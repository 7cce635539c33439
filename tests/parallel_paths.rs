//! Deterministic coverage of the parallel radix engine — write-coalescing
//! staging, the work-stealing chunk queue, the fold and counting during
//! the permute — sized for the gating ThreadSanitizer CI tier: real
//! threads, real contention, no generate-and-check loops. The engine's
//! whole configuration space is schedules × worker counts × digit widths,
//! and this file crosses all of it.
//!
//! Every sort here runs with a `sequential_cutoff` below its input length
//! so the parallel engine (not the sequential fallback) is what TSan
//! instruments: `simple()` pins the LSD schedule, `MSD_CUTOFF` selects the
//! MSD-first one (partition once, then disjoint `&mut` bucket sub-slices of
//! both buffers finished by the sequential kernel — and, on skewed keys,
//! the heavy bucket handed back to the engine with the buffers swapped).
//! The MSD-first tests read the schedule back from the scratch instead of
//! inferring it.

use ccsort::parallel::pairs::{
    par_radix_sort_pairs_with, par_radix_sort_pairs_with_scratch, radix_sort_pairs,
};
use ccsort::parallel::{
    par_radix_sort_with, par_radix_sort_with_scratch, ChunkQueue, RadixSortConfig, Schedule,
    SortScratch,
};

/// Deterministic keys (splitmix64) — the same arrays on every run, so a
/// TSan report here is always reproducible.
fn keys(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = ccsort_rng::SplitMix64::seed_from_u64(seed);
    (0..n).map(|_| rng.random()).collect()
}

/// The LSD schedule at worker counts that force contention (more workers
/// than cores on any CI machine), non-powers of two included, and at the
/// machine's own count.
fn configs() -> Vec<RadixSortConfig> {
    [None, Some(1), Some(3), Some(5), Some(7), Some(13)]
        .into_iter()
        .map(|chunks| RadixSortConfig { chunks, ..RadixSortConfig::simple() })
        .collect()
}

/// One dominant bucket (zipf-like worst case for static partitioning, and
/// a top-digit bucket above any cutoff here) plus a uniform tail; all
/// passes above the first are near-trivial.
fn skewed_keys() -> Vec<u32> {
    let mut input = keys(60_000, 2);
    for (i, k) in input.iter_mut().enumerate() {
        if i % 4 != 0 {
            *k = 0xAB00 + (i % 7) as u32;
        }
    }
    input
}

/// The same worker counts with a cutoff that admits the MSD-first schedule:
/// 60,000 uniform keys make 256 top-digit buckets of a few hundred keys each.
const MSD_CUTOFF: usize = 4096;

fn msd_configs() -> Vec<RadixSortConfig> {
    configs().into_iter().map(|c| RadixSortConfig { sequential_cutoff: MSD_CUTOFF, ..c }).collect()
}

#[test]
fn msd_first_schedule_sorts_uniform_keys_on_every_engine_path() {
    let input = keys(60_000, 5);
    let mut expect = input.clone();
    expect.sort_unstable();
    for cfg in msd_configs() {
        let mut scratch: SortScratch<u32> = SortScratch::new();
        let mut v = input.clone();
        par_radix_sort_with_scratch(&mut v, &cfg, &mut scratch);
        assert_eq!(v, expect, "diverged under {cfg:?}");
        let schedule = scratch.last_schedule().expect("a sort ran");
        assert!(
            matches!(schedule, Schedule::MsdFirst { top_pass: 3, live_passes: 4, .. }),
            "{schedule:?} under {cfg:?}"
        );
    }
}

#[test]
fn msd_first_schedule_keeps_pairs_stable_and_skew_goes_back_through_the_engine() {
    // 4,096 distinct keys over bytes 0 and 3, payload = original index:
    // the stable order must survive partition ∘ per-bucket kernel under
    // stealing. `skewed_keys` puts three quarters of the keys in top
    // bucket 0: same configs, same schedule, and that bucket goes back
    // through the engine — a split on byte 2 leaves the seven hot values
    // together, and one LSD pass on byte 0 tells them apart.
    let input: Vec<u32> = keys(40_000, 6).iter().map(|k| k & 0xFF00_000F).collect();
    let vals: Vec<u32> = (0..input.len() as u32).collect();
    let (mut ks, mut vs) = (input.clone(), vals.clone());
    radix_sort_pairs(&mut ks, &mut vs, 8);
    let skewed = skewed_keys();
    let mut skewed_expect = skewed.clone();
    skewed_expect.sort_unstable();
    for cfg in msd_configs() {
        let mut scratch: SortScratch<u32, u32> = SortScratch::new();
        let (mut k, mut v) = (input.clone(), vals.clone());
        par_radix_sort_pairs_with_scratch(&mut k, &mut v, &cfg, &mut scratch);
        assert_eq!(k, ks, "keys diverged under {cfg:?}");
        assert_eq!(v, vs, "stability broken under {cfg:?}");
        assert!(
            matches!(
                scratch.last_schedule(),
                Some(Schedule::MsdFirst { top_pass: 3, live_passes: 2, .. })
            ),
            "{:?} under {cfg:?}",
            scratch.last_schedule()
        );

        let mut s = skewed.clone();
        par_radix_sort_with_scratch(&mut s, &cfg, &mut scratch);
        assert_eq!(s, skewed_expect, "skewed keys diverged under {cfg:?}");
        assert!(
            matches!(
                scratch.last_schedule(),
                Some(Schedule::MsdFirst { top_pass: 3, live_passes: 4, largest_bucket, heavy_buckets: 1 })
                    if largest_bucket > 45_000
            ),
            "{:?} under {cfg:?}",
            scratch.last_schedule()
        );
    }
}

#[test]
fn every_engine_path_sorts_uniform_keys() {
    let input = keys(60_000, 1);
    let mut expect = input.clone();
    expect.sort_unstable();
    for cfg in configs() {
        let mut v = input.clone();
        par_radix_sort_with(&mut v, &cfg);
        assert_eq!(v, expect, "diverged under {cfg:?}");
    }
}

#[test]
fn every_engine_path_sorts_skewed_keys() {
    let input = skewed_keys();
    let mut expect = input.clone();
    expect.sort_unstable();
    for cfg in configs() {
        let mut v = input.clone();
        par_radix_sort_with(&mut v, &cfg);
        assert_eq!(v, expect, "diverged under {cfg:?}");
    }
}

#[test]
fn every_engine_path_keeps_pairs_stable() {
    // 16 distinct keys, payload = original index: the unique stable order
    // catches any equal-key reordering from staging or stealing.
    let input: Vec<u32> = keys(40_000, 3).iter().map(|k| k & 15).collect();
    let vals: Vec<u32> = (0..input.len() as u32).collect();
    let (mut ks, mut vs) = (input.clone(), vals.clone());
    radix_sort_pairs(&mut ks, &mut vs, 8);
    for cfg in configs() {
        let (mut k, mut v) = (input.clone(), vals.clone());
        par_radix_sort_pairs_with(&mut k, &mut v, &cfg);
        assert_eq!(k, ks, "keys diverged under {cfg:?}");
        assert_eq!(v, vs, "stability broken under {cfg:?}");
    }
}

#[test]
fn chunk_queue_contended_claims_are_exactly_once() {
    // Heavier-than-unit-test contention for the TSan tier: many workers
    // hammering a small region set, repeated to vary interleavings.
    for round in 0..8u64 {
        let workers = 2 + (round as usize % 7);
        let chunks = 96;
        let q = ChunkQueue::new(workers, chunks, true);
        let counts: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let q = &q;
                    s.spawn(move || {
                        let mut seen = vec![false; chunks];
                        while let Some(c) = q.claim(w) {
                            assert!(!seen[c], "worker {w} claimed {c} twice");
                            seen[c] = true;
                        }
                        seen.iter().filter(|&&b| b).count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counts.iter().sum::<usize>(), chunks, "round {round}");
        assert_eq!(q.remaining(), 0);
    }
}

#[test]
fn wide_digit_and_u64_paths() {
    // 12-bit digits count the next pass during each permute; with 16-bit
    // digits the next-pass matrices (20 chunks × 65,536 counters a worker)
    // are past the cache budget and every pass is counted by its own read.
    // Both under stealing with real threads; the 45-bit keys have four
    // live 12-bit passes and three live 16-bit ones.
    let input: Vec<u64> = keys(40_000, 4).iter().map(|&k| (k as u64) << 13 | k as u64).collect();
    let mut expect = input.clone();
    expect.sort_unstable();
    for (bits, executed_passes) in [(12u32, 4), (16, 3)] {
        let mut v = input.clone();
        let mut scratch: SortScratch<u64> = SortScratch::new();
        let cfg = RadixSortConfig { radix_bits: bits, chunks: Some(6), ..RadixSortConfig::simple() };
        par_radix_sort_with_scratch(&mut v, &cfg, &mut scratch);
        assert_eq!(v, expect, "diverged at radix_bits={bits}");
        assert_eq!(scratch.last_schedule(), Some(Schedule::Lsd { executed_passes }));
    }
}
