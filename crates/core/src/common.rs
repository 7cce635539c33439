//! Shared building blocks of the simulated sorting programs: digit
//! arithmetic, partitioning, timed local histogram and the timed local
//! (uniprocessor) radix sort used as a subroutine by sample sort and as the
//! sequential baseline.

use ccsort_machine::{ArrayId, Machine};

use crate::costs;

/// Scratch-block size (elements) for streamed sweeps: large enough to
/// amortise per-block overhead, small enough to stay cache-resident.
pub const BLOCK: usize = 4096;

/// Number of radix passes needed to sort keys of `max_bits` significant
/// bits with an `r`-bit digit.
pub fn n_passes(max_bits: u32, r: u32) -> u32 {
    assert!(r >= 1);
    max_bits.max(1).div_ceil(r)
}

/// The `pass`-th `r`-bit digit of `key`, counting from the least
/// significant bit.
#[inline]
pub fn digit(key: u32, pass: u32, r: u32) -> usize {
    ((key >> (pass * r)) & ((1u32 << r) - 1)) as usize
}

/// Exclusive prefix sum (the scan every model runs over its histograms).
pub fn exclusive_scan(v: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; v.len()];
    let mut acc = 0u32;
    for (o, &x) in out.iter_mut().zip(v) {
        *o = acc;
        acc += x;
    }
    out
}

/// Number of significant bits in the largest of `keys` (0 for all-zero
/// input, where a single pass suffices).
pub fn max_bits(keys: &[u32]) -> u32 {
    let max = keys.iter().copied().max().unwrap_or(0);
    32 - max.leading_zeros()
}

/// Half-open element range of process `i`'s partition of an `n`-element
/// array split over `p` processes: the threaded programs' partition.
pub use ccsort_parallel::plan::part_range;

/// Timed histogram of the `pass`-th digit over `arr[range]`, executed by
/// `pe` as a streamed sweep. Returns the (host-side private) histogram.
pub fn local_histogram(
    m: &mut Machine,
    pe: usize,
    arr: ArrayId,
    range: std::ops::Range<usize>,
    pass: u32,
    r: u32,
) -> Vec<u32> {
    let bins = 1usize << r;
    let mut hist = vec![0u32; bins];
    let mut buf = vec![0u32; BLOCK];
    let mut off = range.start;
    while off < range.end {
        let len = BLOCK.min(range.end - off);
        buf.truncate(len);
        m.read_run(pe, arr, off, &mut buf[..len]);
        m.busy_cycles(pe, costs::HIST_CYC_PER_KEY * len as f64);
        for &k in &buf[..len] {
            hist[digit(k, pass, r)] += 1;
        }
        buf.resize(BLOCK, 0);
        off += len;
    }
    hist
}

/// Timed local LSD radix sort of `arr_a[off..off+len]`, using
/// `arr_b[off..off+len]` as the toggle buffer — the local sorts inside
/// sample sort and the uniprocessor baseline. Returns the array holding the
/// sorted result (`arr_a` or `arr_b`).
///
/// Each pass is a streamed histogram sweep, a (cheap, in-cache) offset scan
/// and a permutation whose writes are *scattered* within the local range —
/// exactly the access pattern whose TLB and cache behaviour drives the
/// paper's large-data-set effects.
#[allow(clippy::too_many_arguments)]
pub fn local_radix_sort(
    m: &mut Machine,
    pe: usize,
    arr_a: ArrayId,
    arr_b: ArrayId,
    off: usize,
    len: usize,
    r: u32,
    key_bits: u32,
) -> ArrayId {
    if len == 0 {
        return arr_a;
    }
    let passes = n_passes(key_bits, r);
    let bins = 1usize << r;
    let (mut src, mut dst) = (arr_a, arr_b);
    let mut buf = vec![0u32; BLOCK];
    let mut dests = vec![0usize; BLOCK];
    for pass in 0..passes {
        let hist = local_histogram(m, pe, src, off..off + len, pass, r);
        m.busy_cycles(pe, costs::SCAN_CYC_PER_BIN * bins as f64);
        let mut offsets = exclusive_scan(&hist);
        let mut pos = off;
        while pos < off + len {
            let blk = BLOCK.min(off + len - pos);
            m.read_run(pe, src, pos, &mut buf[..blk]);
            m.busy_cycles(pe, costs::PERMUTE_CYC_PER_KEY * blk as f64);
            for i in 0..blk {
                let d = digit(buf[i], pass, r);
                dests[i] = off + offsets[d] as usize;
                offsets[d] += 1;
            }
            m.scatter_run(pe, dst, &dests[..blk], &buf[..blk]);
            pos += blk;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::KEY_BITS;
    use ccsort_machine::{MachineConfig, Placement};

    #[test]
    fn pass_counts_match_paper() {
        // Section 4.2.3: radix 7 -> 5 passes, radix 8 -> 4, radix 11/12 -> 3.
        assert_eq!(n_passes(KEY_BITS, 7), 5);
        assert_eq!(n_passes(KEY_BITS, 8), 4);
        assert_eq!(n_passes(KEY_BITS, 11), 3);
        assert_eq!(n_passes(KEY_BITS, 12), 3);
        assert_eq!(n_passes(KEY_BITS, 6), 6);
        assert_eq!(n_passes(0, 8), 1);
    }

    #[test]
    fn digit_extraction() {
        let k = 0b101_1100_0011u32;
        assert_eq!(digit(k, 0, 4), 0b0011);
        assert_eq!(digit(k, 1, 4), 0b1100);
        assert_eq!(digit(k, 2, 4), 0b101);
        assert_eq!(digit(u32::MAX, 0, 11), (1 << 11) - 1);
    }

    #[test]
    fn partitions_cover_exactly() {
        for &(n, p) in &[(100usize, 7usize), (64, 64), (1 << 16, 48), (13, 13)] {
            let mut total = 0;
            for i in 0..p {
                let range = part_range(n, p, i);
                total += range.len();
                if i > 0 {
                    assert_eq!(part_range(n, p, i - 1).end, range.start);
                }
            }
            assert_eq!(total, n);
        }
    }

    #[test]
    fn exclusive_scan_shifts_by_one() {
        assert_eq!(exclusive_scan(&[3, 1, 4, 1]), vec![0, 3, 4, 8]);
        assert_eq!(exclusive_scan(&[3, 0, 2, 5]), vec![0, 3, 3, 5]);
        assert!(exclusive_scan(&[]).is_empty());
    }

    #[test]
    fn max_bits_examples() {
        assert_eq!(max_bits(&[0]), 0);
        assert_eq!(max_bits(&[1]), 1);
        assert_eq!(max_bits(&[255]), 8);
        assert_eq!(max_bits(&[1 << 30]), 31);
    }

    #[test]
    fn histogram_counts_digits() {
        let mut m = Machine::new(MachineConfig::origin2000(1).scaled_down(16));
        let a = m.alloc(256, Placement::Node(0), "a");
        for i in 0..256 {
            m.raw_mut(a)[i] = (i % 16) as u32;
        }
        let h = local_histogram(&mut m, 0, a, 0..256, 0, 4);
        assert_eq!(h, vec![16u32; 16]);
        // Second digit of all keys is 0.
        let h2 = local_histogram(&mut m, 0, a, 0..256, 1, 4);
        assert_eq!(h2[0], 256);
        assert!(m.breakdown(0).busy > 0.0);
    }

    #[test]
    fn local_radix_sorts() {
        let mut m = Machine::new(MachineConfig::origin2000(1).scaled_down(16));
        let n = 5000;
        let a = m.alloc(n, Placement::Node(0), "a");
        let b = m.alloc(n, Placement::Node(0), "b");
        // Deterministic scrambled input.
        let input: Vec<u32> = (0..n).map(|i| ((i * 2654435761usize) % (1 << 31)) as u32).collect();
        m.raw_mut(a).copy_from_slice(&input);
        let result = local_radix_sort(&mut m, 0, a, b, 0, n, 8, 31);
        let mut expect = input.clone();
        expect.sort_unstable();
        assert_eq!(m.raw(result), &expect[..]);
    }

    #[test]
    fn local_radix_respects_subrange() {
        let mut m = Machine::new(MachineConfig::origin2000(1).scaled_down(16));
        let a = m.alloc(100, Placement::Node(0), "a");
        let b = m.alloc(100, Placement::Node(0), "b");
        for i in 0..100 {
            m.raw_mut(a)[i] = (99 - i) as u32;
        }
        let result = local_radix_sort(&mut m, 0, a, b, 10, 50, 4, 7);
        // [10, 60) sorted, rest of `a` untouched.
        let vals: Vec<u32> = m.raw(result)[10..60].to_vec();
        let mut expect: Vec<u32> = (0..100u32).map(|i| 99 - i).collect::<Vec<_>>()[10..60].to_vec();
        expect.sort_unstable();
        assert_eq!(vals, expect);
        assert_eq!(m.raw(a)[0], 99);
        assert_eq!(m.raw(a)[99], 0);
    }

    #[test]
    fn odd_pass_count_lands_in_b() {
        let mut m = Machine::new(MachineConfig::origin2000(1).scaled_down(16));
        let a = m.alloc(64, Placement::Node(0), "a");
        let b = m.alloc(64, Placement::Node(0), "b");
        let result = local_radix_sort(&mut m, 0, a, b, 0, 64, 11, 31); // 3 passes
        assert_eq!(result, b);
        let r2 = local_radix_sort(&mut m, 0, a, b, 0, 64, 8, 31); // 4 passes
        assert_eq!(r2, a);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use ccsort_rng::{check_cases, SplitMix64};

    #[test]
    fn exclusive_scan_matches_definition() {
        let case = |rng: &mut SplitMix64| -> Vec<u32> {
            (0..rng.random_range(0..200)).map(|_| rng.random_range(0..1000)).collect()
        };
        check_cases(256, case, |v| {
            let scan = exclusive_scan(v);
            let mut acc = 0u32;
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(scan[i], acc);
                acc += x;
            }
        });
    }

    #[test]
    fn digits_reassemble_the_key() {
        check_cases(256, |rng| (rng.random::<u32>(), rng.random_range(1u32..=16)), |&(key, r)| {
            let passes = n_passes(32, r);
            let mut rebuilt: u64 = 0;
            for pass in 0..passes {
                rebuilt |= (digit(key, pass, r) as u64) << (pass * r);
            }
            assert_eq!(rebuilt as u32, key);
        });
    }
}
