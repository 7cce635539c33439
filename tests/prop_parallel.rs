//! Property tests for the real threaded sorting library: for seeded
//! random inputs, every sort is a permutation-preserving ordering
//! identical to the standard library's. A failing case names its seed;
//! `ccsort_rng::check_case` replays it.

use ccsort::parallel::pairs::{
    par_radix_sort_pairs_with, par_radix_sort_pairs_with_scratch, radix_sort_pairs,
};
use ccsort::parallel::spmd::{programs, radix_sort, sample_sort, Direct, Message, Symmetric};
use ccsort::parallel::{
    par_radix_sort_with, seq_radix_sort, RadixKey, RadixSortConfig, Schedule, SortScratch,
};
use ccsort_rng::{check_cases, Random, SplitMix64};

/// Cases per property.
const CASES: u64 = 64;

/// Worker counts: non-powers of two, and more workers than keys when n is
/// small.
const CHUNKS: [usize; 7] = [1, 2, 3, 5, 7, 8, 13];

/// Uniform draws, as many as one draw from `len` says.
fn vec_of<T: Random>(rng: &mut SplitMix64, len: std::ops::Range<usize>) -> Vec<T> {
    (0..rng.random_range(len)).map(|_| rng.random()).collect()
}

fn pick<T: Copy>(rng: &mut SplitMix64, from: &[T]) -> T {
    from[rng.random_range(0..from.len())]
}

fn sorted<T: Ord + Clone>(v: &[T]) -> Vec<T> {
    let mut expect = v.to_vec();
    expect.sort_unstable();
    expect
}

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

#[test]
fn seq_radix_matches_std() {
    check_cases(CASES, |rng| (vec_of::<u32>(rng, 0..4000), rng.random_range(1u32..=16)), |(v, bits)| {
        let mut got = v.clone();
        seq_radix_sort(&mut got, *bits);
        assert_eq!(got, sorted(v));
    });
}

#[test]
fn seq_radix_matches_std_signed() {
    check_cases(CASES, |rng| vec_of::<i64>(rng, 0..2000), |v| {
        let mut got = v.clone();
        seq_radix_sort(&mut got, 11);
        assert_eq!(got, sorted(v));
    });
}

/// The engine on (keys, digit width, worker count) is bit-identical to std.
fn par_radix_sorts((v, bits, chunks): &(Vec<u32>, u32, usize)) {
    let mut got = v.clone();
    par_radix_sort_with(&mut got, &build_config(*bits, *chunks));
    assert_eq!(got, sorted(v));
}

#[test]
fn par_radix_matches_std() {
    let case = |rng: &mut SplitMix64| {
        (vec_of::<u32>(rng, 0..6000), rng.random_range(4u32..=12), rng.random_range(1usize..12))
    };
    check_cases(CASES, case, par_radix_sorts);
}

/// Every digit width × worker count, on every input shape.
#[test]
fn par_radix_any_config_matches_std() {
    check_cases(CASES, |rng| shaped_case(rng, 6000), par_radix_sorts);
}

/// A `build_input` shape below `max_n` keys, a digit width, a worker count.
fn shaped_case(rng: &mut SplitMix64, max_n: usize) -> (Vec<u32>, u32, usize) {
    let keys = build_input(rng.random_range(0..4), rng.random_range(0..max_n), rng.random());
    (keys, rng.random_range(4u32..=12), pick(rng, &CHUNKS))
}

/// The sample sort over all three transports on (keys, ranks).
fn par_sample_sorts<K: RadixKey + Default + std::fmt::Debug>((v, parts): &(Vec<K>, usize)) {
    for (name, sort) in &programs::<K>()[3..] {
        let mut got = v.clone();
        sort(&mut got, *parts, 11);
        assert_eq!(got, sorted(v), "{name}");
    }
}

#[test]
fn par_sample_matches_std() {
    check_cases(CASES, |rng| (vec_of::<u64>(rng, 0..6000), rng.random_range(1usize..10)), par_sample_sorts);
}

/// Massive duplication: ties split by position, or a rank overflows its
/// region bound.
#[test]
fn par_sample_handles_low_cardinality() {
    let case = |rng: &mut SplitMix64| {
        let v: Vec<u32> = (0..rng.random_range(0..6000)).map(|_| rng.random_range(0..8)).collect();
        (v, rng.random_range(1usize..10))
    };
    check_cases(CASES, case, par_sample_sorts);
}

/// The radix sort over one of the runtime transports (message passing,
/// symmetric heap) on (keys, process count, digit width) cases.
fn runtime_sorts(
    sort: fn(&mut [u32], usize, u32),
    case: impl Fn(&mut SplitMix64) -> (Vec<u32>, usize, u32),
) {
    check_cases(CASES, case, |(v, p, bits)| {
        let mut got = v.clone();
        sort(&mut got, *p, *bits);
        assert_eq!(got, sorted(v));
    });
}

fn any_p(rng: &mut SplitMix64) -> (Vec<u32>, usize, u32) {
    (vec_of(rng, 0..3000), rng.random_range(1usize..7), rng.random_range(6u32..=11))
}

/// Both cases pinned in `regression_seeds.rs` sat at odd p; sweep the real
/// threaded sorts across non-power-of-two process counts (and
/// non-power-of-two digit widths, hence odd bin counts) too.
fn non_power_of_two_p(rng: &mut SplitMix64) -> (Vec<u32>, usize, u32) {
    (vec_of(rng, 64..2000), pick(rng, &[3usize, 5, 6, 7, 63]), pick(rng, &[5u32, 7, 9, 11]))
}

#[test]
fn msg_radix_matches_std() {
    runtime_sorts(radix_sort::<Message<u32>, u32>, any_p);
}

#[test]
fn shmem_radix_matches_std() {
    runtime_sorts(radix_sort::<Symmetric<u32>, u32>, any_p);
}

#[test]
fn msg_radix_handles_non_power_of_two_p() {
    runtime_sorts(radix_sort::<Message<u32>, u32>, non_power_of_two_p);
}

#[test]
fn shmem_radix_handles_non_power_of_two_p() {
    runtime_sorts(radix_sort::<Symmetric<u32>, u32>, non_power_of_two_p);
}

/// Payloads record original positions, so the unique stable order doubles
/// as the oracle: any scheduling- or buffering-induced reordering of equal
/// keys would diverge from the sequential sort.
#[test]
fn par_radix_pairs_any_config_stable() {
    check_cases(CASES, |rng| shaped_case(rng, 4000), |(keys, bits, chunks)| {
        let cfg = build_config(*bits, *chunks);
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let (mut ks, mut vs) = (keys.clone(), vals.clone());
        radix_sort_pairs(&mut ks, &mut vs, cfg.radix_bits);
        let (mut kp, mut vp) = (keys.clone(), vals);
        par_radix_sort_pairs_with(&mut kp, &mut vp, &cfg);
        assert_eq!(kp, ks);
        assert_eq!(vp, vs);
    });
}

/// A cutoff that is a fraction of n lets the data decide between the
/// MSD-first and the LSD schedule, and which buckets go back through the
/// engine (narrow digits keep `bins² <= 2n` reachable at these sizes;
/// `key_bits` moves the top live digit; the skewed and the duplicate-heavy
/// shapes make heavy buckets at any of these cutoffs). Whatever it
/// decides: pairs equal the stable `sort_by_key`, equal the LSD-only
/// `simple()` bit for bit, and an MSD-first report is only ever made
/// within the rule.
#[test]
fn either_schedule_is_stable_and_equals_the_simple_oracle() {
    let case = |rng: &mut SplitMix64| {
        let shape = pick(rng, &[0usize, 0, 1, 1, 2, 3]);
        let (n, seed) = (rng.random_range(0..6000), rng.random());
        let key_bits = pick(rng, &[8u32, 12, 16, 20, 30, 32]);
        let keys: Vec<u32> = build_input(shape, n, seed).iter().map(|k| k >> (32 - key_bits)).collect();
        (keys, rng.random_range(3u32..=5), pick(rng, &[2usize, 3, 4, 8]), pick(rng, &CHUNKS))
    };
    check_cases(CASES, case, |(keys, bits, cutoff_div, chunks)| {
        let simple = build_config(*bits, *chunks);
        let cfg = RadixSortConfig { sequential_cutoff: keys.len() / cutoff_div, ..simple.clone() };
        let vals: Vec<u32> = (0..keys.len() as u32).collect();
        let mut expect: Vec<(u32, u32)> = keys.iter().copied().zip(vals.iter().copied()).collect();
        expect.sort_by_key(|p| p.0);

        let mut scratch: SortScratch<u32, u32> = SortScratch::new();
        let (mut kp, mut vp) = (keys.clone(), vals.clone());
        par_radix_sort_pairs_with_scratch(&mut kp, &mut vp, &cfg, &mut scratch);
        let got: Vec<(u32, u32)> = kp.iter().copied().zip(vp.iter().copied()).collect();
        assert_eq!(got, expect);
        if let Some(Schedule::MsdFirst { live_passes, largest_bucket, heavy_buckets, .. }) =
            scratch.last_schedule()
        {
            assert!(live_passes >= 2 && cfg.sequential_cutoff > 0);
            assert_eq!(heavy_buckets > 0, largest_bucket > cfg.sequential_cutoff);
        }

        let (mut ks, mut vs) = (keys.clone(), vals);
        par_radix_sort_pairs_with(&mut ks, &mut vs, &simple);
        assert_eq!(kp, ks);
        assert_eq!(vp, vs);
    });
}

#[test]
fn all_sorts_agree_pairwise() {
    check_cases(CASES, |rng| vec_of::<u32>(rng, 0..3000), |v| {
        let (mut a, mut b, mut c, mut d) = (v.clone(), v.clone(), v.clone(), v.clone());
        par_radix_sort_with(&mut a, &RadixSortConfig { sequential_cutoff: 0, ..Default::default() });
        sample_sort::<Symmetric<u32>, u32>(&mut b, 2, 11);
        radix_sort::<Message<u32>, u32>(&mut c, 3, 8);
        radix_sort::<Direct<u32>, u32>(&mut d, 5, 8);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(c, d);
    });
}
