//! The exchange plans of the paper's two sorts, written once for both
//! worlds: the simulated programs of `ccsort-algos` and the threaded SPMD
//! programs of [`crate::spmd`] decide which keys go where with these
//! functions and nothing else, so the two run the same supersteps with the
//! same h-relations.
//!
//! **Radix sort**, per pass: every rank's histogram of the current digit
//! goes into one [`RadixPlan`]. Rank `i`'s run of digit `d` starts in the
//! output after every key of a smaller digit and every smaller rank's keys
//! of digit `d`. Each run goes to the ranks that own that stretch of the
//! output ([`part_range`]), cut where it crosses a partition boundary
//! ([`RadixPlan::pieces`], in the sender's digit order).
//!
//! **Sample sort**: part `i` (at `base = part_range(n, p, i).start`) is
//! sorted and contributes the keys at `s` local indices
//! [`sample_index`]`(k, s, m)` ([`samples_per_part`], the paper's
//! [`SAMPLES_PER_PART`] = 128). A sample's global position is a function of
//! its part and index ([`regular_positions`]), so the samples travel as
//! keys and every rank pairs them with their positions. The `p − 1`
//! [`splitters`] are every `s`-th (key, position) pair in order; each part
//! cuts at them ([`bucket_sizes`]) and the counts of all parts fix the
//! [`Layout`]: region `j` holds, in source order, every part's bucket `j`.
//!
//! **The tie rule.** A key at local index `x` of part `i` orders as (key,
//! `base + x`), so a splitter `(v, g)` cuts a part's run of `v`s at global
//! position `g`: the keys equal to a splitter divide by where they sit, not
//! all into one bucket.
//!
//! **The bound** ([`region_bound`]). Consecutive samples of a part of `m ∈
//! {⌊n/p⌋, ⌈n/p⌉}` keys — and the last sample and the part's end — are at
//! most `g = ⌈⌈n/p⌉/s⌉` apart (`s ≤ ⌊n/p⌋`). Positions are distinct, so the
//! `p·s` samples are strictly ordered, and with every `s`-th one as a
//! splitter exactly `s` samples fall in a rank's interval `[splitter_j,
//! splitter_{j+1})`. If `c_i` of them are part `i`'s, that part's keys in
//! the interval lie strictly between two of its samples that are `c_i + 1`
//! gaps apart: at most `(c_i + 1)·g − 1` keys. Summed over the parts, with
//! `Σ c_i = s`: `(s + p)·g − p`, which is `≈ n/p + n/s` — whatever the
//! duplication, because ties are split by position. (Samples at hashed
//! positions, as the simulator's `Random` strategy takes, may repeat and
//! carry no bound.)

use std::ops::Range;

use crate::key::RadixKey;

/// Regular samples each part contributes to splitter selection (the
/// paper's choice).
pub const SAMPLES_PER_PART: usize = 128;

/// One contiguous run of keys on its way from a sender's buffer to a
/// receiver's region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// Where the run starts in the sender's buffer: its digit-ordered
    /// staging buffer (radix sort) or its sorted part (sample sort).
    pub src_off: usize,
    /// The receiving rank.
    pub dst: usize,
    /// Where the run lands, as an index into the whole output `0..n`.
    pub dst_at: usize,
    pub len: usize,
}

/// Rank `i`'s partition of `n` keys over `p` ranks, the input every rank
/// starts from and each radix pass's region.
#[inline]
pub fn part_range(n: usize, p: usize, i: usize) -> Range<usize> {
    i * n / p..(i + 1) * n / p
}

/// Per-rank count rows as `usize`s, whatever word the caller gathered them
/// in.
fn table<C: Copy + Into<u64>>(rows: &[Vec<C>]) -> Vec<Vec<usize>> {
    rows.iter().map(|row| row.iter().map(|&c| c.into() as usize).collect()).collect()
}

/// One radix pass's exchange, from every rank's histogram of the digit.
pub struct RadixPlan {
    n: usize,
    hists: Vec<Vec<usize>>,
    /// `starts[i][d]`: where rank `i`'s run of digit `d` begins in the
    /// output.
    starts: Vec<Vec<usize>>,
}

impl RadixPlan {
    /// `hists[i][d]`: rank `i`'s keys of digit `d`; `n` is their total.
    pub fn new<C: Copy + Into<u64>>(hists: &[Vec<C>]) -> Self {
        let hists = table(hists);
        let bins = hists[0].len();
        let mut starts = vec![vec![0; bins]; hists.len()];
        let mut at = 0;
        for d in 0..bins {
            for (start, hist) in starts.iter_mut().zip(&hists) {
                start[d] = at;
                at += hist[d];
            }
        }
        RadixPlan { n: at, hists, starts }
    }

    /// The output stretch rank `rank` receives: its partition.
    pub fn region(&self, rank: usize) -> Range<usize> {
        part_range(self.n, self.hists.len(), rank)
    }

    /// Rank `src`'s pieces in digit order, out of its staging buffer (its
    /// keys grouped by digit, digits ascending). Over all ranks they tile
    /// `0..n` exactly once, each inside its receiver's region.
    pub fn pieces(&self, src: usize) -> Vec<Piece> {
        let mut pieces = Vec::new();
        let (mut src_off, mut dst) = (0, 0);
        for (&start, &len) in self.starts[src].iter().zip(&self.hists[src]) {
            let (mut at, end) = (start, start + len);
            while at < end {
                while self.region(dst).end <= at {
                    dst += 1;
                }
                let len = end.min(self.region(dst).end) - at;
                pieces.push(Piece { src_off, dst, dst_at: at, len });
                src_off += len;
                at += len;
            }
        }
        pieces
    }
}

/// Samples each part contributes when `want` are asked for, over `p` parts
/// of `n` keys: at least one, and no more than the smallest part has.
pub fn samples_per_part(want: usize, n: usize, p: usize) -> usize {
    want.min(n / p).max(1)
}

/// The local index of a part's `k`-th of `s` regular samples, out of `len`
/// keys.
#[inline]
pub fn sample_index(k: usize, s: usize, len: usize) -> usize {
    k * len / s
}

/// The key images of a sorted part's `s` regular samples.
pub fn regular_samples<K: RadixKey>(part: &[K], s: usize) -> Vec<u64> {
    (0..s).map(|k| part[sample_index(k, s, part.len())].to_bits()).collect()
}

/// The global positions of every part's `s` regular samples, part by part:
/// what every rank pairs the gathered sample keys with.
pub fn regular_positions(n: usize, p: usize, s: usize) -> Vec<u64> {
    (0..p)
        .flat_map(|i| {
            let part = part_range(n, p, i);
            (0..s).map(move |k| (part.start + sample_index(k, s, part.len())) as u64)
        })
        .collect()
}

/// The `p − 1` splitters of every part's (key image, global position)
/// samples, in any order and in whatever integer width the caller keeps
/// them: every `(len / p)`-th one in (key, position) order.
pub fn splitters<W: Copy + Ord + Into<u64>>(samples: impl IntoIterator<Item = (W, W)>, p: usize) -> Vec<(u64, u64)> {
    let mut all: Vec<(W, W)> = samples.into_iter().collect();
    all.sort_unstable();
    (1..p).map(|j| all[j * all.len() / p]).map(|(key, at)| (key.into(), at.into())).collect()
}

/// How many of a sorted part's keys — the part sits at `base` of the input
/// — order before `(v, g)`, a key image and a global position.
fn cut<K: RadixKey>(part: &[K], base: usize, (v, g): (u64, u64)) -> usize {
    let lower = part.partition_point(|x| x.to_bits() < v);
    let upper = part.partition_point(|x| x.to_bits() <= v);
    (g as usize).saturating_sub(base).clamp(lower, upper)
}

/// The sizes of a sorted part's `p` buckets under the `p − 1` splitters,
/// for the part at `base` of the input.
pub fn bucket_sizes<K: RadixKey>(part: &[K], base: usize, splitters: &[(u64, u64)]) -> Vec<u64> {
    let mut last = 0;
    let mut sizes: Vec<u64> = splitters
        .iter()
        .map(|&splitter| {
            let at = cut(part, base, splitter);
            let size = at - last;
            last = at;
            size as u64
        })
        .collect();
    sizes.push((part.len() - last) as u64);
    sizes
}

/// Keys sample sort gives one rank at most, out of `n` over `p` ranks with
/// `s` regular samples per part (`1 ≤ s ≤ ⌊n/p⌋`; the module docs prove
/// it).
pub fn region_bound(n: usize, p: usize, s: usize) -> usize {
    (s + p) * n.div_ceil(p).div_ceil(s) - p
}

/// The sample sort's key exchange, from every part's bucket sizes: region
/// `j` of the output holds, in source order, every part's bucket `j`.
pub struct Layout {
    /// `counts[i][j]`: part `i`'s keys in bucket `j`.
    counts: Vec<Vec<usize>>,
    /// `lands[i][j]`: where part `i`'s bucket `j` begins in the output.
    lands: Vec<Vec<usize>>,
    regions: Vec<usize>,
}

impl Layout {
    /// `counts[i][j]`: part `i`'s keys in bucket `j` (each row is one
    /// part's [`bucket_sizes`]).
    pub fn new<C: Copy + Into<u64>>(counts: &[Vec<C>]) -> Self {
        let counts = table(counts);
        let p = counts.len();
        let mut lands = vec![vec![0; p]; p];
        let mut regions = vec![0; p + 1];
        for j in 0..p {
            regions[j + 1] = regions[j];
            for i in 0..p {
                lands[i][j] = regions[j + 1];
                regions[j + 1] += counts[i][j];
            }
        }
        Layout { counts, lands, regions }
    }

    /// The output stretch rank `rank` receives.
    pub fn region(&self, rank: usize) -> Range<usize> {
        self.regions[rank]..self.regions[rank + 1]
    }

    /// The most keys any rank receives.
    pub fn widest(&self) -> usize {
        self.regions.windows(2).map(|w| w[1] - w[0]).max().expect("p >= 1")
    }

    /// Part `src`'s bucket `dst`, out of its sorted part, if not empty.
    pub fn piece(&self, src: usize, dst: usize) -> Option<Piece> {
        let len = self.counts[src][dst];
        let src_off = self.counts[src][..dst].iter().sum();
        (len > 0).then_some(Piece { src_off, dst, dst_at: self.lands[src][dst], len })
    }

    /// Part `src`'s non-empty buckets, in destination order.
    pub fn pieces(&self, src: usize) -> Vec<Piece> {
        (0..self.counts.len()).filter_map(|dst| self.piece(src, dst)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_runs_are_ranked_by_digit_then_rank_and_cut_at_partitions() {
        // Ranks 0 and 1 over n = 9: partitions 0..4 and 4..9.
        let plan = RadixPlan::new(&[vec![2u32, 0, 1, 3], vec![1, 2, 0, 0]]);
        assert_eq!(plan.starts, [[0, 3, 5, 6], [2, 3, 6, 9]]);
        let piece = |src_off, dst, dst_at, len| Piece { src_off, dst, dst_at, len };
        assert_eq!(plan.pieces(0), [piece(0, 0, 0, 2), piece(2, 1, 5, 1), piece(3, 1, 6, 3)]);
        // Rank 1's run of digit 1 (output 3..5) straddles the boundary at 4.
        assert_eq!(plan.pieces(1), [piece(0, 0, 2, 1), piece(1, 0, 3, 1), piece(2, 1, 4, 1)]);
        assert_eq!(plan.region(1), 4..9);
    }

    #[test]
    fn radix_pieces_tile_the_output_inside_their_regions() {
        // n = 10 over p = 3: partitions 0..3, 3..6, 6..10.
        let plan = RadixPlan::new(&[vec![0u64, 3, 0], vec![1, 0, 2], vec![0, 4, 0]]);
        let mut covered = vec![0; 10];
        for src in 0..3 {
            let pieces = plan.pieces(src);
            assert_eq!(pieces.iter().map(|pc| pc.len).sum::<usize>(), plan.hists[src].iter().sum());
            for pc in pieces {
                assert!(plan.region(pc.dst).start <= pc.dst_at && pc.dst_at + pc.len <= plan.region(pc.dst).end);
                covered[pc.dst_at..pc.dst_at + pc.len].iter_mut().for_each(|c| *c += 1);
            }
        }
        assert_eq!(covered, [1; 10]);
    }

    #[test]
    fn ties_cut_at_the_splitters_position() {
        let part = [3u32, 5, 5, 5, 8];
        // Positions 10..15; the run of fives is at 11..14.
        assert_eq!(cut(&part, 10, (5, 0)), 1);
        assert_eq!(cut(&part, 10, (5, 12)), 2);
        assert_eq!(cut(&part, 10, (5, 99)), 4);
        assert_eq!(cut(&part, 10, (4, 99)), 1);
        assert_eq!(cut(&part, 10, (9, 0)), 5);
        assert_eq!(bucket_sizes(&part, 10, &[(5, 12), (5, 99)]), [2, 2, 1]);
    }

    #[test]
    fn equal_keys_split_evenly_by_position() {
        // Two parts of 5,000 nines: the one splitter is the 128th sample in
        // position order, the first of part 1.
        let part = vec![9u32; 5000];
        let s = samples_per_part(SAMPLES_PER_PART, 10_000, 2);
        let keys = [regular_samples(&part, s), regular_samples(&part, s)].concat();
        let positions = regular_positions(10_000, 2, s);
        assert_eq!(positions[s - 1..s + 1], [4960, 5000]);
        let splitters = splitters(keys.into_iter().zip(positions), 2);
        assert_eq!(splitters, [(9, 5000)]);
        let layout = Layout::new(&[bucket_sizes(&part, 0, &splitters), bucket_sizes(&part, 5000, &splitters)]);
        assert_eq!([layout.region(0), layout.region(1)], [0..5000, 5000..10_000]);
        assert!(layout.widest() <= region_bound(10_000, 2, s));
    }

    #[test]
    fn layout_lands_buckets_in_source_order() {
        let layout = Layout::new(&[vec![2u32, 0, 1], vec![1, 3, 0], vec![0, 0, 2]]);
        assert_eq!([layout.region(0), layout.region(1), layout.region(2)], [0..3, 3..6, 6..9]);
        assert_eq!(layout.widest(), 3);
        let piece = |src_off, dst, dst_at, len| Piece { src_off, dst, dst_at, len };
        assert_eq!(layout.pieces(0), [piece(0, 0, 0, 2), piece(2, 2, 6, 1)]);
        assert_eq!(layout.pieces(1), [piece(0, 0, 2, 1), piece(1, 1, 3, 3)]);
        assert_eq!(layout.piece(2, 0), None);
    }
}
