//! Property-based tests for the real threaded sorting library: for
//! arbitrary inputs, every sort is a permutation-preserving ordering
//! identical to the standard library's.

use ccsort::parallel::msg::radix_sort_msg;
use ccsort::parallel::pairs::{
    par_radix_sort_pairs_with, par_radix_sort_pairs_with_scratch, radix_sort_pairs,
};
use ccsort::parallel::sym::radix_sort_shmem;
use ccsort::parallel::{
    par_radix_sort_with, par_sample_sort_with, seq_radix_sort, RadixSortConfig, SampleSortConfig,
    Schedule, SortScratch,
};
use proptest::prelude::*;

/// The LSD-only engine (`simple()`) at a sampled digit width and worker
/// count — with the cutoff, the whole of the engine's configuration space.
fn build_config(radix_bits: u32, chunks: usize) -> RadixSortConfig {
    RadixSortConfig { radix_bits, chunks: Some(chunks), ..RadixSortConfig::simple() }
}

/// Build an input that stresses the engine: 0 = uniform, 1 = zipf-like
/// skew (a hot value dominating one radix bucket plus a tail), 2 =
/// duplicate-heavy (8 distinct values), 3 = nearly sorted.
fn build_input(shape: usize, n: usize, seed: u64) -> Vec<u32> {
    let mut s = seed | 1;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 33) as u32
    };
    match shape % 4 {
        0 => (0..n).map(|_| next()).collect(),
        1 => (0..n)
            .map(|_| match next() % 7 {
                0..=3 => 0xDEAD_BEEF,
                4 | 5 => next() % 16,
                _ => next(),
            })
            .collect(),
        2 => (0..n).map(|_| next() % 8).collect(),
        _ => {
            let mut v: Vec<u32> = (0..n as u32).collect();
            for _ in 0..n / 50 {
                let i = next() as usize % n.max(1);
                let j = next() as usize % n.max(1);
                v.swap(i, j);
            }
            v
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn seq_radix_matches_std(mut v in proptest::collection::vec(any::<u32>(), 0..4000), bits in 1u32..=16) {
        let mut expect = v.clone();
        expect.sort_unstable();
        seq_radix_sort(&mut v, bits);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn seq_radix_matches_std_signed(mut v in proptest::collection::vec(any::<i64>(), 0..2000)) {
        let mut expect = v.clone();
        expect.sort_unstable();
        seq_radix_sort(&mut v, 11);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn par_radix_matches_std(
        mut v in proptest::collection::vec(any::<u32>(), 0..6000),
        chunks in 1usize..12,
        bits in 4u32..=12,
    ) {
        let mut expect = v.clone();
        expect.sort_unstable();
        par_radix_sort_with(&mut v, &build_config(bits, chunks));
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn par_sample_matches_std(
        mut v in proptest::collection::vec(any::<u64>(), 0..6000),
        parts in 1usize..10,
    ) {
        let mut expect = v.clone();
        expect.sort_unstable();
        par_sample_sort_with(&mut v, &SampleSortConfig {
            parts: Some(parts),
            sequential_cutoff: 0,
            ..Default::default()
        });
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn par_sample_handles_low_cardinality(
        mut v in proptest::collection::vec(0u32..8, 0..6000),
        parts in 1usize..10,
    ) {
        // Massive duplication: exercises the tied-splitter spreading.
        let mut expect = v.clone();
        expect.sort_unstable();
        par_sample_sort_with(&mut v, &SampleSortConfig {
            parts: Some(parts),
            sequential_cutoff: 0,
            ..Default::default()
        });
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn msg_radix_matches_std(
        mut v in proptest::collection::vec(any::<u32>(), 0..3000),
        p in 1usize..7,
        bits in 6u32..=11,
    ) {
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort_msg(&mut v, p, bits);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn shmem_radix_matches_std(
        mut v in proptest::collection::vec(any::<u32>(), 0..3000),
        p in 1usize..7,
        bits in 6u32..=11,
    ) {
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort_shmem(&mut v, p, bits);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn msg_radix_handles_non_power_of_two_p(
        mut v in proptest::collection::vec(any::<u32>(), 64..2000),
        p in prop::sample::select(vec![3usize, 5, 6, 7, 63]),
        bits in prop::sample::select(vec![5u32, 7, 9, 11]),
    ) {
        // Both checked-in regression seeds sat at odd p; sweep the real
        // threaded sorts across non-power-of-two process counts (and
        // non-power-of-two digit widths, hence odd bin counts) too.
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort_msg(&mut v, p, bits);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn shmem_radix_handles_non_power_of_two_p(
        mut v in proptest::collection::vec(any::<u32>(), 64..2000),
        p in prop::sample::select(vec![3usize, 5, 6, 7, 63]),
        bits in prop::sample::select(vec![5u32, 7, 9, 11]),
    ) {
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort_shmem(&mut v, p, bits);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn par_radix_any_config_matches_std(
        shape in 0usize..4,
        n in 0usize..6000,
        seed in any::<u64>(),
        bits in 4u32..=12,
        chunks in prop::sample::select(vec![1usize, 2, 3, 5, 7, 8, 13]),
    ) {
        // Every digit width × worker count (non-powers of two, and more
        // workers than keys when n is small) is bit-identical to std.
        let cfg = build_config(bits, chunks);
        let mut v = build_input(shape, n, seed);
        let mut expect = v.clone();
        expect.sort_unstable();
        par_radix_sort_with(&mut v, &cfg);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn par_radix_pairs_any_config_stable(
        shape in 0usize..4,
        n in 0usize..4000,
        seed in any::<u64>(),
        bits in 4u32..=12,
        chunks in prop::sample::select(vec![1usize, 2, 3, 5, 7, 8, 13]),
    ) {
        // Payloads record original positions, so the unique stable order
        // doubles as the oracle: any scheduling- or buffering-induced
        // reordering of equal keys would diverge from the sequential sort.
        let cfg = build_config(bits, chunks);
        let keys = build_input(shape, n, seed);
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let (mut ks, mut vs) = (keys.clone(), vals.clone());
        radix_sort_pairs(&mut ks, &mut vs, cfg.radix_bits);
        let (mut kp, mut vp) = (keys, vals);
        par_radix_sort_pairs_with(&mut kp, &mut vp, &cfg);
        prop_assert_eq!(kp, ks);
        prop_assert_eq!(vp, vs);
    }

    #[test]
    fn either_schedule_is_stable_and_equals_the_simple_oracle(
        shape in prop::sample::select(vec![0usize, 0, 0, 1, 2, 3]),
        n in 0usize..6000,
        seed in any::<u64>(),
        bits in 3u32..=5,
        key_bits in prop::sample::select(vec![8u32, 12, 16, 20, 30, 32]),
        cutoff_div in prop::sample::select(vec![2usize, 3, 4, 8]),
        chunks in prop::sample::select(vec![1usize, 2, 3, 5, 7, 8, 13]),
    ) {
        // A cutoff that is a fraction of n lets the data decide between the
        // MSD-first and the LSD schedule (narrow digits keep `bins² <= 2n`
        // reachable at these sizes; `key_bits` moves the top live digit).
        // Whatever it decides: pairs equal the stable `sort_by_key`, equal
        // the LSD-only `simple()` bit for bit, and an MSD-first report is
        // only ever made within the rule.
        let cfg = RadixSortConfig { sequential_cutoff: n / cutoff_div, ..build_config(bits, chunks) };
        let keys: Vec<u32> = build_input(shape, n, seed).iter().map(|k| k >> (32 - key_bits)).collect();
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let mut expect: Vec<(u32, u32)> = keys.iter().copied().zip(vals.iter().copied()).collect();
        expect.sort_by_key(|p| p.0);

        let mut scratch: SortScratch<u32, u32> = SortScratch::new();
        let (mut kp, mut vp) = (keys.clone(), vals.clone());
        par_radix_sort_pairs_with_scratch(&mut kp, &mut vp, &cfg, &mut scratch);
        let got: Vec<(u32, u32)> = kp.iter().copied().zip(vp.iter().copied()).collect();
        prop_assert_eq!(&got, &expect);
        if let Some(Schedule::MsdFirst { live_passes, largest_bucket, .. }) = scratch.last_schedule() {
            prop_assert!(live_passes >= 2 && largest_bucket <= cfg.sequential_cutoff);
        }

        let (mut ks, mut vs) = (keys, vals);
        par_radix_sort_pairs_with(&mut ks, &mut vs, &build_config(bits, chunks));
        prop_assert_eq!(kp, ks);
        prop_assert_eq!(vp, vs);
    }

    #[test]
    fn all_sorts_agree_pairwise(v in proptest::collection::vec(any::<u32>(), 0..3000)) {
        let mut a = v.clone();
        let mut b = v.clone();
        let mut c = v;
        par_radix_sort_with(&mut a, &RadixSortConfig { sequential_cutoff: 0, ..Default::default() });
        par_sample_sort_with(&mut b, &SampleSortConfig { sequential_cutoff: 0, ..Default::default() });
        radix_sort_msg(&mut c, 3, 8);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&b, &c);
    }
}
