//! Thread-parallel sample sort with regular sampling.
//!
//! The five phases of the paper's program (Section 3.2), on threads:
//! parallel local radix sorts, regular sampling (128 samples per part),
//! splitter selection, a splitter-partitioned all-to-all into a scratch
//! buffer, and parallel local sorts of the received regions. Compared to
//! radix sort it does two local sorts but the data movement is one
//! contiguous block per (source, destination) pair.

use crate::key::RadixKey;
use crate::seq::radix_sort_with_scratch;
use crate::shared::SharedSlice;
use crate::steal::{default_workers, par_for_each, par_map};

/// Samples taken per part (the paper's choice).
pub const SAMPLES_PER_PART: usize = 128;

/// Configuration for [`par_sample_sort_with`].
#[derive(Debug, Clone)]
pub struct SampleSortConfig {
    /// Digit width for the local radix sorts.
    pub radix_bits: u32,
    /// Number of parts; `None` = one per worker thread
    /// (`std::thread::available_parallelism`).
    pub parts: Option<usize>,
    /// Below this length, fall back to the sequential sort.
    pub sequential_cutoff: usize,
}

impl Default for SampleSortConfig {
    fn default() -> Self {
        SampleSortConfig {
            // The paper finds radix 11 best for sample sort's local sorts.
            radix_bits: 11,
            parts: None,
            sequential_cutoff: 1 << 13,
        }
    }
}

/// Sort `keys` in parallel with the default configuration.
pub fn par_sample_sort<K: RadixKey + Default>(keys: &mut [K]) {
    par_sample_sort_with(keys, &SampleSortConfig::default());
}

/// Split `slice` into mutable sub-slices at the given boundaries
/// (`bounds[0] == 0`, `bounds.last() == slice.len()`).
fn split_at_bounds<'a, K>(mut slice: &'a mut [K], bounds: &[usize]) -> Vec<&'a mut [K]> {
    let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
    let mut prev = 0;
    for &b in &bounds[1..] {
        let (head, tail) = slice.split_at_mut(b - prev);
        out.push(head);
        slice = tail;
        prev = b;
    }
    out
}

/// Bucket cut points of a sorted `part` under `splitters`, spreading keys
/// equal to tied splitter values evenly over the tied buckets (any of which
/// may legally hold them; the local sorts of phase 5 restore order).
fn splitter_bounds<K: Ord>(part: &[K], splitters: &[K]) -> Vec<usize> {
    let p = splitters.len() + 1;
    let mut b = vec![0usize; p + 1];
    b[p] = part.len();
    let mut j = 0usize;
    while j < splitters.len() {
        let v = &splitters[j];
        let mut jl = j;
        while jl + 1 < splitters.len() && splitters[jl + 1] == *v {
            jl += 1;
        }
        if jl == j {
            b[j + 1] = part.partition_point(|x| x < v);
            j += 1;
            continue;
        }
        let lower = part.partition_point(|x| x < v);
        let upper = part.partition_point(|x| x <= v);
        let run = upper - lower;
        let slots = jl - j + 2;
        for (k, cut) in (j + 1..=jl + 1).enumerate() {
            b[cut] = lower + (k + 1) * run / slots;
        }
        j = jl + 1;
    }
    b
}

/// Sort `keys` in parallel with an explicit configuration.
pub fn par_sample_sort_with<K: RadixKey + Default>(keys: &mut [K], cfg: &SampleSortConfig) {
    sample_sort_on(default_workers(), keys, cfg);
}

/// [`par_sample_sort_with`] on `workers` threads.
fn sample_sort_on<K: RadixKey + Default>(workers: usize, keys: &mut [K], cfg: &SampleSortConfig) {
    let n = keys.len();
    if n <= cfg.sequential_cutoff.max(1) {
        crate::seq::radix_sort(keys, cfg.radix_bits.min(K::BITS.max(1)).max(1));
        return;
    }
    let p = cfg.parts.unwrap_or(workers).clamp(1, n);
    let part_bounds: Vec<usize> = (0..=p).map(|i| i * n / p).collect();
    let s = SAMPLES_PER_PART.min(n / p).max(1);

    // Phase 1: parallel local sorts.
    {
        let parts = split_at_bounds(keys, &part_bounds);
        par_for_each(workers, parts, |part| {
            let mut scratch = vec![K::default(); part.len()];
            radix_sort_with_scratch(part, &mut scratch, cfg.radix_bits);
        });
    }

    // Phase 2 + 3: regular sampling and splitter selection.
    let mut samples: Vec<K> = Vec::with_capacity(p * s);
    for i in 0..p {
        let part = &keys[part_bounds[i]..part_bounds[i + 1]];
        for k in 0..s {
            samples.push(part[k * part.len() / s]);
        }
    }
    samples.sort_unstable();
    let splitters: Vec<K> = (1..p).map(|k| samples[k * samples.len() / p]).collect();

    // Phase 4: bucket boundaries per part (each part is sorted, so the
    // boundaries are binary searches), then the all-to-all scatter. Keys
    // equal to a run of tied splitters are spread over the tied buckets so
    // heavy duplication cannot overload one region.
    let bounds: Vec<Vec<usize>> = par_map(workers, 0..p, |i| {
        let part = &keys[part_bounds[i]..part_bounds[i + 1]];
        splitter_bounds(part, &splitters)
    });

    // Destination layout: region j holds, in source order, every part's
    // bucket j.
    let mut region_bounds = vec![0usize; p + 1];
    for j in 0..p {
        let inbound: usize = (0..p).map(|i| bounds[i][j + 1] - bounds[i][j]).sum();
        region_bounds[j + 1] = region_bounds[j] + inbound;
    }
    debug_assert_eq!(region_bounds[p], n);
    let dst_off = |i: usize, j: usize| -> usize {
        region_bounds[j] + (0..i).map(|i2| bounds[i2][j + 1] - bounds[i2][j]).sum::<usize>()
    };

    let mut scratch = vec![K::default(); n];
    {
        let out = SharedSlice::new(&mut scratch);
        par_for_each(workers, 0..p, |i| {
            let part = &keys[part_bounds[i]..part_bounds[i + 1]];
            for j in 0..p {
                let bucket = &part[bounds[i][j]..bounds[i][j + 1]];
                let base = dst_off(i, j);
                for (k, &key) in bucket.iter().enumerate() {
                    // SAFETY: regions [dst_off(i,j), dst_off(i,j)+len) are
                    // pairwise disjoint across (i, j) and tile [0, n).
                    unsafe { out.write(base + k, key) };
                }
            }
        });
    }

    // Phase 5: parallel local sorts of the received regions, then copy back.
    {
        let regions = split_at_bounds(&mut scratch, &region_bounds);
        par_for_each(workers, regions, |region| {
            let mut tmp = vec![K::default(); region.len()];
            radix_sort_with_scratch(region, &mut tmp, cfg.radix_bits);
        });
    }
    par_for_each(
        workers,
        keys.chunks_mut(64 * 1024).zip(scratch.chunks(64 * 1024)),
        |(dst, src)| dst.copy_from_slice(src),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsort_rng::SplitMix64;

    fn check<K: RadixKey + Default + std::fmt::Debug>(mut v: Vec<K>, cfg: &SampleSortConfig) {
        let mut expect = v.clone();
        expect.sort_unstable();
        par_sample_sort_with(&mut v, cfg);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_large_u32() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let v: Vec<u32> = (0..200_000).map(|_| rng.random()).collect();
        check(v, &SampleSortConfig::default());
    }

    #[test]
    fn sorts_with_explicit_parts() {
        let mut rng = SplitMix64::seed_from_u64(2);
        for parts in [1usize, 2, 3, 7, 16] {
            let v: Vec<u32> = (0..40_000).map(|_| rng.random()).collect();
            check(
                v,
                &SampleSortConfig { parts: Some(parts), sequential_cutoff: 0, ..Default::default() },
            );
        }
    }

    #[test]
    fn heavy_duplicates_and_skew() {
        let mut rng = SplitMix64::seed_from_u64(3);
        // 30% zeros (worse than the paper's zero distribution).
        let v: Vec<u32> = (0..60_000)
            .map(|_| if rng.random_range(0..10u32) < 3 { 0 } else { rng.random() })
            .collect();
        check(v, &SampleSortConfig { sequential_cutoff: 0, ..Default::default() });
        // Single value: every key lands in one bucket.
        check(vec![7u32; 30_000], &SampleSortConfig { sequential_cutoff: 0, ..Default::default() });
        // Sorted input: maximally imbalanced sampling is still correct.
        check((0..30_000u32).collect(), &SampleSortConfig { sequential_cutoff: 0, ..Default::default() });
    }

    /// Odd worker counts that divide nothing; 7 is above the cores of any CI
    /// machine.
    #[test]
    fn sample_sort_at_3_and_7_workers() {
        let mut rng = SplitMix64::seed_from_u64(7);
        for workers in [3, 7] {
            let check = |v: Vec<u32>, parts: Option<usize>| {
                let mut expect = v.clone();
                expect.sort_unstable();
                let mut got = v;
                let cfg = SampleSortConfig { parts, sequential_cutoff: 0, ..Default::default() };
                sample_sort_on(workers, &mut got, &cfg);
                assert_eq!(got, expect, "workers={workers} parts={parts:?}");
            };
            // Four distinct values: runs of tied splitters, spread buckets.
            check((0..30_001).map(|_| rng.random_range(0..4u32)).collect(), None);
            check((0..30_001).map(|_| rng.random_range(0..4u32)).collect(), Some(16));
            // One value: every splitter tied.
            check(vec![9; 10_007], None);
            // More parts than keys.
            check((0..5).map(|_| rng.random()).collect(), Some(64));
            // Odd length, parts not a multiple of the workers.
            check((0..40_003).map(|_| rng.random()).collect(), Some(5));
        }
    }

    #[test]
    fn sorts_signed() {
        let mut rng = SplitMix64::seed_from_u64(4);
        let v: Vec<i32> = (0..60_000).map(|_| rng.random()).collect();
        check(v, &SampleSortConfig { sequential_cutoff: 0, ..Default::default() });
    }

    #[test]
    fn small_inputs() {
        check(Vec::<u32>::new(), &SampleSortConfig::default());
        check(vec![3u32, 1, 2], &SampleSortConfig::default());
        let mut rng = SplitMix64::seed_from_u64(5);
        let v: Vec<u32> = (0..257).map(|_| rng.random()).collect();
        check(v, &SampleSortConfig { parts: Some(4), sequential_cutoff: 0, ..Default::default() });
    }

    #[test]
    fn agrees_with_par_radix() {
        let mut rng = SplitMix64::seed_from_u64(6);
        let v: Vec<u64> = (0..50_000).map(|_| rng.random()).collect();
        let mut a = v.clone();
        let mut b = v;
        par_sample_sort_with(&mut a, &SampleSortConfig { sequential_cutoff: 0, ..Default::default() });
        crate::radix::par_radix_sort_with(
            &mut b,
            &crate::radix::RadixSortConfig { sequential_cutoff: 0, ..Default::default() },
        );
        assert_eq!(a, b);
    }
}
