//! Parallel histogram and counting-sort utilities.
//!
//! The building blocks of every sort in this workspace, exposed for
//! standalone use: a thread-parallel digit histogram whose per-thread count
//! arrays are cache-line padded (no false sharing between accumulators), a
//! fused multi-digit histogram that counts every pass's digits in one read,
//! and a counting sort for small-range keys. [`PaddedCounts`] is the
//! padded count-matrix storage the radix-sort engine builds its per-chunk
//! histograms and offsets in.

use std::ops::Range;

use crate::key::RadixKey;
use crate::seq::passes_for;
use crate::steal::{default_workers, run_workers, ChunkQueue};

/// Words per 64-byte cache line (`usize` is 8 bytes on every target this
/// library supports).
const LINE_WORDS: usize = 8;

/// One 64-byte-aligned cache line of counters. The `#[repr(align(64))]`
/// wrapper is what keeps two threads' count arrays from ever sharing a
/// line: a `Vec<CacheLine>` is aligned storage whose rows can be handed to
/// different threads without write-write line ping-pong at the edges.
#[repr(C, align(64))]
#[derive(Clone, Copy, Default)]
struct CacheLine([usize; LINE_WORDS]);

/// A rows × bins count matrix in which every row starts on a 64-byte cache
/// line boundary and is padded to a whole number of lines. Rows are the
/// per-thread (or per-chunk) accumulators of the parallel sorts; the
/// padding means two workers incrementing counts in different rows never
/// write the same cache line.
pub struct PaddedCounts {
    lines: Vec<CacheLine>,
    stride: usize, // words per row, multiple of LINE_WORDS
    bins: usize,
    rows: usize,
}

impl PaddedCounts {
    /// A zeroed matrix with `rows` padded rows of `bins` counters each.
    pub fn new(rows: usize, bins: usize) -> Self {
        let stride = bins.div_ceil(LINE_WORDS).max(1) * LINE_WORDS;
        let lines = vec![CacheLine::default(); rows * stride / LINE_WORDS];
        PaddedCounts { lines, stride, bins, rows }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of counters per row.
    pub fn bins(&self) -> usize {
        self.bins
    }

    fn flat(&self) -> &[usize] {
        // SAFETY: `CacheLine` is `#[repr(C)]` over `[usize; LINE_WORDS]`,
        // so the line buffer is exactly `lines.len() * LINE_WORDS`
        // contiguous initialized words.
        unsafe {
            std::slice::from_raw_parts(
                self.lines.as_ptr().cast::<usize>(),
                self.lines.len() * LINE_WORDS,
            )
        }
    }

    fn flat_mut(&mut self) -> &mut [usize] {
        // SAFETY: as in `flat`, plus we hold `&mut self`.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.lines.as_mut_ptr().cast::<usize>(),
                self.lines.len() * LINE_WORDS,
            )
        }
    }

    /// Row `r` as a `bins`-long slice.
    pub fn row(&self, r: usize) -> &[usize] {
        let start = r * self.stride;
        &self.flat()[start..start + self.bins]
    }

    /// Row `r`, mutable.
    pub fn row_mut(&mut self, r: usize) -> &mut [usize] {
        let start = r * self.stride;
        let bins = self.bins;
        &mut self.flat_mut()[start..start + bins]
    }

    /// Zero every counter.
    pub fn clear(&mut self) {
        self.lines.fill(CacheLine::default());
    }

    /// Reshape to `rows` × `bins` and zero every counter, reusing the
    /// existing line buffer whenever it is large enough. Returns `true`
    /// when the backing storage had to grow — the scratch-reuse entry
    /// points count these to prove steady-state sorting allocates nothing.
    pub fn reset(&mut self, rows: usize, bins: usize) -> bool {
        let stride = bins.div_ceil(LINE_WORDS).max(1) * LINE_WORDS;
        let need = rows * stride / LINE_WORDS;
        let grew = need > self.lines.capacity();
        self.lines.clear();
        self.lines.resize(need, CacheLine::default());
        self.stride = stride;
        self.bins = bins;
        self.rows = rows;
        grew
    }

    /// Add every counter of `other` (same shape) into `self`.
    pub fn accumulate(&mut self, other: &PaddedCounts) {
        assert_eq!((self.rows, self.bins), (other.rows, other.bins));
        for r in 0..self.rows {
            let start = r * self.stride;
            let bins = self.bins;
            let dst = &mut self.flat_mut()[start..start + bins];
            let src = &other.flat()[start..start + bins];
            for (a, b) in dst.iter_mut().zip(src) {
                *a += b;
            }
        }
    }

    /// A `Send + Sync` view for phases in which each row is written by at
    /// most one worker at a time (workers claim disjoint chunk ids and
    /// touch only their claimed chunks' rows).
    pub fn shared(&mut self) -> SharedCounts<'_> {
        SharedCounts {
            ptr: self.flat_mut().as_mut_ptr(),
            stride: self.stride,
            bins: self.bins,
            rows: self.rows,
            _marker: std::marker::PhantomData,
        }
    }
}

/// Shared view of a [`PaddedCounts`] for disjoint-row parallel access; the
/// count-matrix analogue of [`crate::SharedSlice`].
pub struct SharedCounts<'a> {
    ptr: *mut usize,
    stride: usize,
    bins: usize,
    rows: usize,
    _marker: std::marker::PhantomData<&'a mut [usize]>,
}

unsafe impl Send for SharedCounts<'_> {}
unsafe impl Sync for SharedCounts<'_> {}

impl SharedCounts<'_> {
    /// Row `r`, mutable.
    ///
    /// # Safety
    ///
    /// No other thread may access row `r` for the lifetime of the returned
    /// slice. The sorts guarantee this by claiming each chunk id exactly
    /// once per phase ([`crate::steal::ChunkQueue`]).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn row_mut(&self, r: usize) -> &mut [usize] {
        debug_assert!(r < self.rows, "SharedCounts row out of bounds: {r} >= {}", self.rows);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(r * self.stride), self.bins) }
    }
}

/// Count `keys`' digits at `shift` into `row`, 4-way unrolled: the four
/// independent extractions per iteration give the core ILP that a single
/// load → increment dependency chain denies it.
pub(crate) fn count_digits_into<K: RadixKey>(keys: &[K], shift: u32, mask: u64, row: &mut [usize]) {
    let mut quads = keys.chunks_exact(4);
    for q in quads.by_ref() {
        let d0 = q[0].digit(shift, mask);
        let d1 = q[1].digit(shift, mask);
        let d2 = q[2].digit(shift, mask);
        let d3 = q[3].digit(shift, mask);
        row[d0] += 1;
        row[d1] += 1;
        row[d2] += 1;
        row[d3] += 1;
    }
    for k in quads.remainder() {
        row[k.digit(shift, mask)] += 1;
    }
}

/// How far ahead of its read a counting loop prefetches. Its counter
/// updates leave too few loads in flight for the hardware prefetchers to
/// hide memory latency; on the reference host this brings the fold's
/// counting read of 2^22 `u64` keys near a bare fold's speed
/// (DESIGN.md §14).
const PREFETCH_BYTES: usize = 2048;

/// Keys per sub-block of the sequential kernel's counting read, which asks
/// for the first scatter's lines one sub-block ahead of the keys it counts.
/// A few lines per step overlap the count; hundreds asked for at once stall
/// it. 64 to 256 all gain on the reference host; at 512 the bucket phase's
/// gain is gone (DESIGN.md §14).
pub(crate) const COUNT_SUB: usize = 128;

/// Ask for the cache lines of `base[range]`, one hint per 64 bytes. `base`
/// is only offset, never read.
pub(crate) fn prefetch_lines<T>(base: *const T, range: Range<usize>) {
    let step = (64 / std::mem::size_of::<T>().max(1)).max(1);
    for i in range.step_by(step) {
        prefetch(base.wrapping_add(i));
    }
}

/// Ask for the cache line at `p` ahead of its use.
#[inline(always)]
pub(crate) fn prefetch<T>(p: *const T) {
    // SAFETY: a prefetch is a hint: it reads nothing the program sees and
    // never faults, whatever the address.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    unsafe {
        std::arch::x86_64::_mm_prefetch(p.cast::<i8>(), std::arch::x86_64::_MM_HINT_T0)
    };
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = p;
}

/// Overwrite `row` with the counts of `keys`' digits at `shift` and return
/// the OR and the AND of their `to_bits()`, in one read, one cache line at
/// a time with the line [`PREFETCH_BYTES`] ahead requested. Keys alternate
/// between `row` and `spare` (zeroed here, added into `row` at the end),
/// so a run of equal digits — sorted input, a Zipf head — is two
/// store-to-load chains on two counters instead of one on one.
#[inline]
pub(crate) fn fold_and_count<K: RadixKey>(
    keys: &[K],
    shift: u32,
    mask: u64,
    row: &mut [usize],
    spare: &mut [usize],
) -> (u64, u64) {
    // Rows exactly `mask + 1` long, so no digit needs a bounds check.
    let (row, spare) = (&mut row[..=mask as usize], &mut spare[..=mask as usize]);
    row.fill(0);
    spare.fill(0);
    let (mut or, mut and) = (0u64, u64::MAX);
    let digit = |bits: u64| ((bits >> shift) & mask) as usize;
    let size = std::mem::size_of::<K>().max(1);
    let line = (64 / size).next_multiple_of(4).max(4);
    let mut ahead = keys.as_ptr().wrapping_add(PREFETCH_BYTES / size);
    let mut lines = keys.chunks_exact(line);
    for l in lines.by_ref() {
        prefetch(ahead);
        ahead = ahead.wrapping_add(line);
        for q in l.chunks_exact(4) {
            let (b0, b1, b2, b3) = (q[0].to_bits(), q[1].to_bits(), q[2].to_bits(), q[3].to_bits());
            or |= b0 | b1 | b2 | b3;
            and &= b0 & b1 & b2 & b3;
            row[digit(b0)] += 1;
            spare[digit(b1)] += 1;
            row[digit(b2)] += 1;
            spare[digit(b3)] += 1;
        }
    }
    for k in lines.remainder() {
        let bits = k.to_bits();
        or |= bits;
        and &= bits;
        row[digit(bits)] += 1;
    }
    for (r, s) in row.iter_mut().zip(spare.iter()) {
        *r += s;
    }
    (or, and)
}

/// Keys per claimed chunk of the standalone histograms.
const HIST_CHUNK: usize = 64 * 1024;

/// `count` of every [`HIST_CHUNK`]-key chunk of `keys`, accumulated into one
/// `rows` × `bins` matrix: each of up to `workers` threads counts the
/// chunks it claims into its own padded matrix, and the matrices are summed.
fn count_chunks<K: RadixKey>(
    workers: usize,
    keys: &[K],
    rows: usize,
    bins: usize,
    count: impl Fn(&[K], &mut PaddedCounts) + Sync,
) -> PaddedCounts {
    let chunks = keys.len().div_ceil(HIST_CHUNK);
    let workers = workers.clamp(1, chunks.max(1));
    let queue = ChunkQueue::new(workers, chunks, true);
    let mut parts = run_workers(workers, |w| {
        let mut h = PaddedCounts::new(rows, bins);
        while let Some(c) = queue.claim(w) {
            let end = ((c + 1) * HIST_CHUNK).min(keys.len());
            count(&keys[c * HIST_CHUNK..end], &mut h);
        }
        h
    })
    .into_iter();
    let mut total = parts.next().expect("at least one worker");
    parts.for_each(|h| total.accumulate(&h));
    total
}

/// Count the occurrences of the `radix_bits`-wide digit at `shift` across
/// `keys`, in parallel. Per-thread accumulators are cache-line padded
/// ([`PaddedCounts`]), so concurrent counting never false-shares.
pub fn par_digit_histogram<K: RadixKey>(keys: &[K], shift: u32, radix_bits: u32) -> Vec<usize> {
    digit_histogram_on(default_workers(), keys, shift, radix_bits)
}

/// [`par_digit_histogram`] on `workers` threads.
fn digit_histogram_on<K: RadixKey>(
    workers: usize,
    keys: &[K],
    shift: u32,
    radix_bits: u32,
) -> Vec<usize> {
    assert!((1..=16).contains(&radix_bits));
    let bins = 1usize << radix_bits;
    let mask = (bins - 1) as u64;
    count_chunks(workers, keys, 1, bins, |chunk, h| {
        count_digits_into(chunk, shift, mask, h.row_mut(0))
    })
    .row(0)
    .to_vec()
}

/// Fused multi-digit histogram: one parallel read of `keys` counting every
/// LSD pass's digit at once. Returns `passes_for::<K>(radix_bits)` rows of
/// `1 << radix_bits` global counts — row `p` is the histogram of the digit
/// at shift `p * radix_bits`.
///
/// Global digit counts are permutation-invariant, so the rows stay valid
/// across every pass of an LSD sort no matter how the data moves. (The
/// radix engine no longer needs them: it learns which passes are trivial
/// from an OR/AND fold of the keys, one read and no counters.)
pub fn par_multi_digit_histogram<K: RadixKey>(keys: &[K], radix_bits: u32) -> Vec<Vec<usize>> {
    multi_digit_histogram_on(default_workers(), keys, radix_bits)
}

/// [`par_multi_digit_histogram`] on `workers` threads.
fn multi_digit_histogram_on<K: RadixKey>(
    workers: usize,
    keys: &[K],
    radix_bits: u32,
) -> Vec<Vec<usize>> {
    assert!((1..=16).contains(&radix_bits));
    let bins = 1usize << radix_bits;
    let mask = (bins - 1) as u64;
    let passes = passes_for::<K>(radix_bits) as usize;
    let counts = count_chunks(workers, keys, passes, bins, |chunk, h| {
        for k in chunk {
            let bits = k.to_bits();
            for p in 0..passes {
                h.row_mut(p)[((bits >> (p as u32 * radix_bits)) & mask) as usize] += 1;
            }
        }
    });
    (0..passes).map(|p| counts.row(p).to_vec()).collect()
}

/// Exclusive prefix sum, returning the total.
pub(crate) fn exclusive_prefix_sum(counts: &mut [usize]) -> usize {
    let mut acc = 0usize;
    for c in counts.iter_mut() {
        let v = *c;
        *c = acc;
        acc += v;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsort_rng::SplitMix64;

    #[test]
    fn par_histogram_matches_serial() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let keys: Vec<u32> = (0..200_000).map(|_| rng.random()).collect();
        for (shift, bits) in [(0u32, 8u32), (8, 8), (24, 8), (0, 11)] {
            let par = par_digit_histogram(&keys, shift, bits);
            let mut ser = vec![0usize; 1 << bits];
            let mask = (1u64 << bits) - 1;
            for k in &keys {
                ser[((*k as u64) >> shift & mask) as usize] += 1;
            }
            assert_eq!(par, ser, "shift={shift} bits={bits}");
            assert_eq!(par.iter().sum::<usize>(), keys.len());
        }
    }

    #[test]
    fn multi_digit_histogram_matches_per_pass() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let keys: Vec<u32> = (0..100_000).map(|_| rng.random()).collect();
        for bits in [8u32, 11] {
            let fused = par_multi_digit_histogram(&keys, bits);
            assert_eq!(fused.len(), passes_for::<u32>(bits) as usize);
            for (p, row) in fused.iter().enumerate() {
                assert_eq!(
                    row,
                    &par_digit_histogram(&keys, p as u32 * bits, bits),
                    "pass {p} bits {bits}"
                );
            }
        }
        // u64 keys: 8 passes at radix 8.
        let wide: Vec<u64> = (0..50_000).map(|_| rng.random()).collect();
        let fused = par_multi_digit_histogram(&wide, 8);
        assert_eq!(fused.len(), 8);
        for (p, row) in fused.iter().enumerate() {
            assert_eq!(row, &par_digit_histogram(&wide, p as u32 * 8, 8));
        }
    }

    #[test]
    fn histograms_at_3_and_7_workers() {
        let mut rng = SplitMix64::seed_from_u64(11);
        // Eight chunks, the last one short; then fewer chunks than workers;
        // then nothing.
        for n in [7 * HIST_CHUNK + 12_345, HIST_CHUNK + 1, 0] {
            let keys: Vec<u32> = (0..n).map(|_| rng.random()).collect();
            let mut serial = vec![vec![0usize; 256]; 4];
            for k in &keys {
                for (p, row) in serial.iter_mut().enumerate() {
                    row[(k >> (8 * p)) as usize & 0xFF] += 1;
                }
            }
            for workers in [3, 7] {
                assert_eq!(multi_digit_histogram_on(workers, &keys, 8), serial, "n={n}");
                assert_eq!(digit_histogram_on(workers, &keys, 16, 8), serial[2], "n={n}");
            }
        }
    }

    #[test]
    fn padded_counts_rows_are_line_aligned_and_disjoint() {
        let mut m = PaddedCounts::new(5, 11);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.bins(), 11);
        for r in 0..5 {
            assert_eq!(m.row(r).as_ptr() as usize % 64, 0, "row {r} not 64B-aligned");
            for (d, slot) in m.row_mut(r).iter_mut().enumerate() {
                *slot = r * 100 + d;
            }
        }
        for r in 0..5 {
            for d in 0..11 {
                assert_eq!(m.row(r)[d], r * 100 + d);
            }
        }
        let mut other = PaddedCounts::new(5, 11);
        other.row_mut(2)[3] = 7;
        m.accumulate(&other);
        assert_eq!(m.row(2)[3], 203 + 7);
        m.clear();
        assert!((0..5).all(|r| m.row(r).iter().all(|&c| c == 0)));
    }

    #[test]
    fn shared_counts_parallel_disjoint_rows() {
        let rows = 8;
        let mut m = PaddedCounts::new(rows, 16);
        let shared = m.shared();
        std::thread::scope(|s| {
            for r in 0..rows {
                let shared = &shared;
                s.spawn(move || {
                    // SAFETY: each thread touches exactly one row.
                    let row = unsafe { shared.row_mut(r) };
                    for (d, slot) in row.iter_mut().enumerate() {
                        *slot = r * 1000 + d;
                    }
                });
            }
        });
        for r in 0..rows {
            assert!(m.row(r).iter().enumerate().all(|(d, &v)| v == r * 1000 + d));
        }
    }

    #[test]
    fn unrolled_counting_matches_naive() {
        let mut rng = SplitMix64::seed_from_u64(3);
        for n in [0usize, 1, 3, 4, 5, 1023] {
            let keys: Vec<u32> = (0..n).map(|_| rng.random()).collect();
            let mut unrolled = vec![0usize; 256];
            count_digits_into(&keys, 8, 0xFF, &mut unrolled);
            let mut naive = vec![0usize; 256];
            for k in &keys {
                naive[k.digit(8, 0xFF)] += 1;
            }
            assert_eq!(unrolled, naive, "n={n}");
        }
    }

    #[test]
    fn fold_and_count_matches_a_naive_fold_and_count() {
        // Lengths around the four-key unroll, a run of one digit (both rows
        // on the same counter), and a spare row left dirty by a last call.
        let mut rng = SplitMix64::seed_from_u64(4);
        let mut spare = vec![99usize; 256];
        for n in [0usize, 1, 3, 4, 5, 1023] {
            for keys in [(0..n).map(|_| rng.random()).collect::<Vec<u32>>(), vec![0x1234_5678; n]] {
                let mut row = vec![7usize; 256];
                let fold = fold_and_count(&keys, 8, 0xFF, &mut row, &mut spare);
                let mut naive = vec![0usize; 256];
                for k in &keys {
                    naive[k.digit(8, 0xFF)] += 1;
                }
                let or = keys.iter().fold(0u64, |a, &k| a | u64::from(k));
                let and = keys.iter().fold(u64::MAX, |a, &k| a & u64::from(k));
                assert_eq!((row, fold), (naive, (or, and)), "n={n}");
            }
        }
    }

    #[test]
    fn prefix_sum_is_exclusive_and_totals() {
        let mut v = vec![3usize, 0, 2, 5];
        let total = exclusive_prefix_sum(&mut v);
        assert_eq!(v, vec![0, 3, 3, 5]);
        assert_eq!(total, 10);
        let mut empty: Vec<usize> = vec![];
        assert_eq!(exclusive_prefix_sum(&mut empty), 0);
    }
}
