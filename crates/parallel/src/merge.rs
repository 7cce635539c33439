//! Parallel stable merge sort — the comparison-based counterpart to the
//! radix sorts, for keys without a radix decomposition (or as a baseline).
//!
//! Classic structure: sort chunks in parallel, then merge pairs of sorted
//! runs with parallel splitting (each merge recursively halves at the
//! median of the larger run and binary-searches the partner, giving two
//! independent sub-merges — Θ(log² n) span). A merge forks a thread per
//! split only while its share of the workers lasts, and runs inline below
//! that.

use crate::shared::SharedSlice;
use crate::steal::{default_workers, par_for_each};

/// Below this length a sub-merge runs sequentially.
const SEQ_MERGE_CUTOFF: usize = 1 << 12;
/// Below this length the whole sort runs sequentially.
const SEQ_SORT_CUTOFF: usize = 1 << 13;

/// Sort `data` with a parallel stable merge sort.
pub fn par_merge_sort<T: Ord + Copy + Send + Sync>(data: &mut [T]) {
    merge_sort_on(default_workers(), data);
}

/// [`par_merge_sort`] on `workers` threads.
fn merge_sort_on<T: Ord + Copy + Send + Sync>(workers: usize, data: &mut [T]) {
    let n = data.len();
    if n <= SEQ_SORT_CUTOFF {
        data.sort();
        return;
    }
    let chunks = workers.max(2).next_power_of_two();
    let bounds: Vec<usize> = (0..=chunks).map(|c| c * n / chunks).collect();

    // Phase 1: sort chunks in parallel (stable within each chunk).
    {
        let mut rest: &mut [T] = data;
        let mut parts = Vec::with_capacity(chunks);
        for c in 0..chunks {
            let (head, tail) = rest.split_at_mut(bounds[c + 1] - bounds[c]);
            parts.push(head);
            rest = tail;
        }
        par_for_each(workers, parts, |p| p.sort());
    }

    // Phase 2: log2(chunks) rounds of pairwise merges, ping-ponging with a
    // scratch buffer.
    let mut scratch: Vec<T> = data.to_vec();
    let mut runs: Vec<usize> = bounds;
    let mut src_is_data = true;
    while runs.len() > 2 {
        // `chunks` is a power of two, so the run-boundary list always has
        // an odd length and pairs tile it exactly.
        debug_assert!(runs.len() % 2 == 1);
        let merged_runs: Vec<usize> = runs.iter().step_by(2).copied().collect();
        {
            let (src, dst): (&[T], &mut [T]) =
                if src_is_data { (&*data, &mut scratch) } else { (&*scratch, &mut *data) };
            // Merge run pairs into dst, in parallel over pairs.
            let pairs: Vec<(usize, usize, usize)> =
                runs.windows(3).step_by(2).map(|w| (w[0], w[1], w[2])).collect();
            let dst_cell = SharedSlice::new(dst);
            // Late rounds have fewer pairs than workers: each merge may
            // fork until the pairs' forks together occupy the workers.
            let forks = (workers / pairs.len()).next_power_of_two().trailing_zeros();
            par_for_each(workers, pairs, |(lo, mid, hi)| {
                // SAFETY: pair output ranges [lo, hi) are disjoint.
                unsafe { par_merge_into(&src[lo..mid], &src[mid..hi], &dst_cell, lo, forks) };
            });
        }
        runs = merged_runs;
        src_is_data = !src_is_data;
    }
    if !src_is_data {
        data.copy_from_slice(&scratch);
    }
}

/// Merge two sorted runs into `out[out_off..]`, splitting recursively for
/// parallelism: each of the first `forks` levels of splits runs its halves
/// on two threads, the levels below run inline.
///
/// # Safety
///
/// The output range `[out_off, out_off + a.len() + b.len())` must not be
/// accessed concurrently by anyone else.
unsafe fn par_merge_into<T: Ord + Copy + Send + Sync>(
    a: &[T],
    b: &[T],
    out: &SharedSlice<'_, T>,
    out_off: usize,
    forks: u32,
) {
    if forks == 0 || a.len() + b.len() <= SEQ_MERGE_CUTOFF {
        let (mut i, mut j, mut k) = (0, 0, out_off);
        while i < a.len() && j < b.len() {
            // `<=` keeps the merge stable (a's elements first on ties).
            let v = if a[i] <= b[j] {
                i += 1;
                a[i - 1]
            } else {
                j += 1;
                b[j - 1]
            };
            unsafe { out.write(k, v) };
            k += 1;
        }
        for &v in &a[i..] {
            unsafe { out.write(k, v) };
            k += 1;
        }
        for &v in &b[j..] {
            unsafe { out.write(k, v) };
            k += 1;
        }
        return;
    }
    // Split at the median of the longer run; partition the other by binary
    // search. partition_point keeps stability: equal elements of `b` stay
    // after equal elements of `a`.
    let (am, bm) = if a.len() >= b.len() {
        let am = a.len() / 2;
        (am, b.partition_point(|x| *x < a[am]))
    } else {
        let bm = b.len() / 2;
        (a.partition_point(|x| *x <= b[bm]), bm)
    };
    // SAFETY: the halves write `[out_off, out_off + am + bm)` and the rest of
    // the caller's range, which do not overlap.
    std::thread::scope(|s| {
        s.spawn(|| unsafe { par_merge_into(&a[..am], &b[..bm], out, out_off, forks - 1) });
        unsafe { par_merge_into(&a[am..], &b[bm..], out, out_off + am + bm, forks - 1) };
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsort_rng::SplitMix64;

    fn check<T: Ord + Copy + Send + Sync + std::fmt::Debug>(mut v: Vec<T>) {
        let mut expect = v.clone();
        expect.sort();
        par_merge_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_large_random() {
        let mut rng = SplitMix64::seed_from_u64(1);
        check((0..300_000).map(|_| rng.random::<u64>()).collect::<Vec<_>>());
        check((0..300_000).map(|_| rng.random::<i32>()).collect::<Vec<_>>());
    }

    #[test]
    fn sorts_adversarial_shapes() {
        check((0..100_000u32).collect::<Vec<_>>());
        check((0..100_000u32).rev().collect::<Vec<_>>());
        check(vec![7u32; 100_000]);
        let mut rng = SplitMix64::seed_from_u64(2);
        check((0..100_000).map(|_| rng.random_range(0..4u32)).collect::<Vec<_>>());
        check(Vec::<u32>::new());
        check(vec![1u32]);
    }

    /// Stable at the machine's own worker count and at two that make the
    /// chunk count (4, 8) differ from the workers and give the late merge
    /// rounds forks to spend.
    #[test]
    fn merge_sort_is_stable_at_3_and_7_workers() {
        // (key, original index) records ordered by key only — `Ord` on
        // tuples would use the index — so stability shows in the indices.
        #[derive(Clone, Copy, Debug)]
        struct Rec(u8, u32);
        impl PartialEq for Rec {
            fn eq(&self, o: &Self) -> bool {
                self.0 == o.0 // key only, consistent with Ord
            }
        }
        impl Eq for Rec {}
        impl PartialOrd for Rec {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for Rec {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                self.0.cmp(&o.0)
            }
        }
        let mut rng = SplitMix64::seed_from_u64(4);
        for workers in [3, 7, default_workers()] {
            let check = |keys: Vec<u8>| {
                let mut v: Vec<Rec> = keys.iter().zip(0..).map(|(&k, i)| Rec(k, i)).collect();
                merge_sort_on(workers, &mut v);
                // The tuple order is the one stable outcome.
                let mut expect: Vec<(u8, u32)> = keys.into_iter().zip(0..).collect();
                expect.sort();
                assert!(v.iter().map(|r| (r.0, r.1)).eq(expect), "workers={workers}");
            };
            // Four distinct keys, odd length.
            check((0..70_001).map(|_| rng.random_range(0..4u8)).collect());
            // One key: stability is the whole answer.
            check(vec![7; 50_003]);
            // Uniform keys, just above the sequential cutoff.
            check((0..=SEQ_SORT_CUTOFF).map(|_| rng.random()).collect());
        }
    }

    #[test]
    fn matches_radix_on_integers() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let v: Vec<u32> = (0..150_000).map(|_| rng.random()).collect();
        let mut a = v.clone();
        let mut b = v;
        par_merge_sort(&mut a);
        crate::radix::par_radix_sort(&mut b);
        assert_eq!(a, b);
    }
}
