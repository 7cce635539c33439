//! MSD (most-significant-digit-first) radix sort — in-place, with parallel
//! recursion over buckets.
//!
//! The paper's algorithms are LSD; MSD is the classic alternative with a
//! different trade-off: no scratch array (American-flag permutation cycles
//! in place), early termination on short buckets, and natural parallelism
//! across disjoint buckets instead of across passes. Included so downstream
//! users can pick per workload; the test suite cross-checks it against the
//! LSD sorts.

use crate::key::RadixKey;
use crate::steal::{default_workers, par_for_each};

/// Buckets shorter than this use insertion sort (standard MSD cutoff).
const INSERTION_CUTOFF: usize = 48;
/// Slices shorter than this recurse sequentially rather than spawning.
const PARALLEL_CUTOFF: usize = 1 << 13;
/// Digit width (8 keeps the 256-counter histogram cheap per level).
const MSD_BITS: u32 = 8;

/// Sort `keys` in place with a parallel MSD radix sort.
pub fn par_msd_radix_sort<K: RadixKey>(keys: &mut [K]) {
    msd_sort_on(default_workers(), keys);
}

/// Sort `keys` in place with the sequential MSD radix sort.
pub fn msd_radix_sort<K: RadixKey>(keys: &mut [K]) {
    msd_sort_on(1, keys);
}

/// The MSD radix sort on `workers` threads.
fn msd_sort_on<K: RadixKey>(workers: usize, keys: &mut [K]) {
    if keys.len() <= 1 {
        return;
    }
    let top_shift = K::BITS.saturating_sub(MSD_BITS);
    msd_recurse(keys, top_shift, workers);
}

fn insertion_sort<K: RadixKey>(keys: &mut [K]) {
    for i in 1..keys.len() {
        let mut j = i;
        while j > 0 && keys[j - 1] > keys[j] {
            keys.swap(j - 1, j);
            j -= 1;
        }
    }
}

fn msd_recurse<K: RadixKey>(keys: &mut [K], shift: u32, workers: usize) {
    if keys.len() <= INSERTION_CUTOFF {
        insertion_sort(keys);
        return;
    }
    let bins = 1usize << MSD_BITS;
    let mask = (bins - 1) as u64;

    // Histogram of the current digit.
    let mut counts = vec![0usize; bins];
    for k in keys.iter() {
        counts[k.digit(shift, mask)] += 1;
    }
    // Bucket start/end cursors.
    let mut starts = vec![0usize; bins + 1];
    for d in 0..bins {
        starts[d + 1] = starts[d] + counts[d];
    }

    // American-flag in-place permutation: walk each bucket's head cursor,
    // swapping misplaced keys into their home buckets.
    let mut heads = starts.clone();
    for d in 0..bins {
        let end = starts[d + 1];
        while heads[d] < end {
            let k = keys[heads[d]];
            let home = k.digit(shift, mask);
            if home == d {
                heads[d] += 1;
            } else {
                keys.swap(heads[d], heads[home]);
                heads[home] += 1;
            }
        }
    }

    if shift == 0 {
        return; // last digit: buckets are fully sorted
    }
    let next_shift = shift.saturating_sub(MSD_BITS);

    // Recurse into buckets — disjoint slices, so this parallelizes with
    // ordinary split borrows (no unsafe needed). A bucket recurses on its
    // share of the workers by its share of the keys, so one bucket holding
    // nearly everything (keys with a common prefix) stays parallel below.
    let n = keys.len();
    let mut rest: &mut [K] = keys;
    let mut buckets: Vec<&mut [K]> = Vec::new();
    for d in 0..bins {
        let (head, tail) = rest.split_at_mut(starts[d + 1] - starts[d]);
        buckets.push(head);
        rest = tail;
    }
    let workers = if n >= PARALLEL_CUTOFF { workers } else { 1 };
    buckets.retain(|b| b.len() > 1);
    par_for_each(workers, buckets, |b| {
        let share = (workers * b.len() / n).max(1);
        msd_recurse(b, next_shift, share);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsort_rng::SplitMix64;

    fn check<K: RadixKey + std::fmt::Debug>(mut v: Vec<K>, parallel: bool) {
        let mut expect = v.clone();
        expect.sort_unstable();
        if parallel {
            par_msd_radix_sort(&mut v);
        } else {
            msd_radix_sort(&mut v);
        }
        assert_eq!(v, expect);
    }

    #[test]
    fn msd_sorts_u32() {
        let mut rng = SplitMix64::seed_from_u64(1);
        check((0..50_000).map(|_| rng.random::<u32>()).collect(), false);
        check((0..50_000).map(|_| rng.random::<u32>()).collect(), true);
    }

    #[test]
    fn msd_sorts_signed_and_wide() {
        let mut rng = SplitMix64::seed_from_u64(2);
        check((0..30_000).map(|_| rng.random::<i64>()).collect(), true);
        check((0..30_000).map(|_| rng.random::<u64>()).collect(), true);
        check((0..30_000).map(|_| rng.random::<i8>()).collect(), true);
    }

    #[test]
    fn msd_edge_cases() {
        check(Vec::<u32>::new(), true);
        check(vec![1u32], true);
        check(vec![5u32; 10_000], true);
        check((0..10_000u32).collect(), true);
        check((0..10_000u32).rev().collect(), true);
        // Low cardinality (deep equal-prefix recursion).
        let mut rng = SplitMix64::seed_from_u64(3);
        check((0..30_000).map(|_| rng.random_range(0..3u32)).collect(), true);
    }

    #[test]
    fn msd_sort_at_3_and_7_workers() {
        let mut rng = SplitMix64::seed_from_u64(5);
        for workers in [3, 7] {
            let check = |v: Vec<u64>| {
                let mut expect = v.clone();
                expect.sort_unstable();
                let mut got = v;
                msd_sort_on(workers, &mut got);
                assert_eq!(got, expect, "workers={workers}");
            };
            // Uniform: 256 top buckets shared out among the workers.
            check((0..40_001).map(|_| rng.random()).collect());
            // A common 5-byte prefix: one bucket holds everything for five
            // levels and passes all its workers down.
            check((0..30_003).map(|_| rng.random_range(0..1u64 << 24)).collect());
            // Three distinct keys, and one.
            check((0..20_001).map(|_| rng.random_range(0..3u64) << 40).collect());
            check(vec![5; 10_001]);
        }
    }

    #[test]
    fn msd_matches_lsd() {
        let mut rng = SplitMix64::seed_from_u64(4);
        let v: Vec<u32> = (0..40_000).map(|_| rng.random()).collect();
        let mut a = v.clone();
        let mut b = v;
        par_msd_radix_sort(&mut a);
        crate::radix::par_radix_sort(&mut b);
        assert_eq!(a, b);
    }
}
