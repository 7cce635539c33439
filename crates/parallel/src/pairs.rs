//! Sorting records by key: (key, payload) pairs and sort-by-key for
//! arbitrary copyable records — what a database index build (the paper's
//! motivating use) actually needs.

use crate::key::RadixKey;
use crate::radix::{RadixSortConfig, SortScratch};
use crate::seq::{all_passes, hist_len, lsd_sort};

/// Sequential LSD radix sort of parallel `keys`/`values` arrays (structure
/// of arrays): after return, `keys` is sorted and `values[i]` is still the
/// payload of `keys[i]`. The sort is stable.
pub fn radix_sort_pairs<K: RadixKey + Default, V: Copy + Default>(
    keys: &mut [K],
    values: &mut [V],
    radix_bits: u32,
) {
    assert_eq!(keys.len(), values.len(), "keys and values must be parallel arrays");
    assert!((1..=16).contains(&radix_bits));
    let n = keys.len();
    let mut key_scratch = vec![K::default(); n];
    let mut val_scratch = vec![V::default(); n];
    let mut hist = vec![0usize; hist_len::<K>(radix_bits)];
    lsd_sort::<K, V, true>(
        keys,
        values,
        &mut key_scratch,
        &mut val_scratch,
        &mut hist,
        radix_bits,
        all_passes::<K>(radix_bits),
        false,
    );
}

/// Thread-parallel LSD radix sort of parallel `keys`/`values` arrays with
/// an explicit configuration. Runs the same engine as
/// [`crate::par_radix_sort_with`] with the payload lane enabled, so the
/// pairs sort gets write coalescing, work stealing, the fold and both
/// pass schedules too. Stable on either schedule: within a chunk, records
/// are staged and flushed in input order to consecutive ranks; across
/// chunks, lower chunk ids rank first for equal digits; and what finishes
/// an MSD-first bucket — the sequential kernel, or the engine again when
/// the bucket is heavy — is a stable sort of keys that already agree on
/// the top digit.
pub fn par_radix_sort_pairs_with<K, V>(keys: &mut [K], values: &mut [V], cfg: &RadixSortConfig)
where
    K: RadixKey + Default,
    V: Copy + Default + Send + Sync,
{
    let mut scratch = SortScratch::new();
    par_radix_sort_pairs_with_scratch(keys, values, cfg, &mut scratch);
}

/// [`par_radix_sort_pairs_with`] through caller-owned scratch. Repeated
/// sorts of same-shaped inputs through one [`SortScratch`] reuse every
/// internal buffer — flip arrays, histograms, and the per-worker
/// write-coalescing staging blocks — so steady-state callers (the
/// sorting service) allocate nothing per sort.
pub fn par_radix_sort_pairs_with_scratch<K, V>(
    keys: &mut [K],
    values: &mut [V],
    cfg: &RadixSortConfig,
    scratch: &mut SortScratch<K, V>,
) where
    K: RadixKey + Default,
    V: Copy + Default + Send + Sync,
{
    assert_eq!(keys.len(), values.len(), "keys and values must be parallel arrays");
    if let Err(e) = cfg.validate() {
        panic!("invalid RadixSortConfig: {e}");
    }
    if keys.len() <= cfg.sequential_cutoff.max(1) {
        return scratch.sort_sequential::<true>(keys, values, cfg.radix_bits);
    }
    crate::radix::sort_engine::<K, V, true>(keys, values, cfg, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsort_rng::SplitMix64;

    #[test]
    fn seq_pairs_keep_payloads_attached() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let keys_in: Vec<u32> = (0..5000).map(|_| rng.random()).collect();
        let vals_in: Vec<u64> = keys_in.iter().map(|&k| (k as u64) * 7 + 1).collect();
        let mut keys = keys_in.clone();
        let mut vals = vals_in;
        radix_sort_pairs(&mut keys, &mut vals, 8);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert!(keys.iter().zip(&vals).all(|(&k, &v)| v == (k as u64) * 7 + 1));
    }

    #[test]
    fn par_pairs_match_seq_pairs() {
        let mut rng = SplitMix64::seed_from_u64(2);
        let keys_in: Vec<u32> = (0..40_000).map(|_| rng.random()).collect();
        let vals_in: Vec<u32> = (0..40_000).collect();
        let (mut k1, mut v1) = (keys_in.clone(), vals_in.clone());
        let (mut k2, mut v2) = (keys_in, vals_in);
        radix_sort_pairs(&mut k1, &mut v1, 8);
        let engine = RadixSortConfig { sequential_cutoff: 0, ..Default::default() };
        par_radix_sort_pairs_with(&mut k2, &mut v2, &engine);
        assert_eq!(k1, k2);
        assert_eq!(v1, v2);
    }

    #[test]
    fn pairs_sort_is_stable() {
        // Many duplicate keys; payloads record original order.
        let mut keys: Vec<u8> = (0..20_000u32).map(|i| (i % 5) as u8).collect();
        let mut vals: Vec<u32> = (0..20_000).collect();
        let engine = RadixSortConfig { sequential_cutoff: 0, ..Default::default() };
        par_radix_sort_pairs_with(&mut keys, &mut vals, &engine);
        for w in vals.windows(2).zip(keys.windows(2)) {
            let (v, k) = w;
            if k[0] == k[1] {
                assert!(v[0] < v[1], "stability violated for key {}", k[0]);
            }
        }
    }

    #[test]
    fn pairs_stable_under_every_config() {
        // Duplicate-heavy keys with order-recording payloads: every worker
        // count × digit width must reproduce the sequential stable order.
        let mut rng = SplitMix64::seed_from_u64(9);
        let keys_in: Vec<u16> = (0..12_000).map(|_| rng.random_range(0..32u16)).collect();
        let vals_in: Vec<u32> = (0..12_000).collect();
        let (mut ks, mut vs) = (keys_in.clone(), vals_in.clone());
        radix_sort_pairs(&mut ks, &mut vs, 8);
        for chunks in [1usize, 3, 5, 7, 13] {
            for radix_bits in [4u32, 8, 11] {
                let cfg = RadixSortConfig { radix_bits, chunks: Some(chunks), ..RadixSortConfig::simple() };
                let (mut k, mut v) = (keys_in.clone(), vals_in.clone());
                par_radix_sort_pairs_with(&mut k, &mut v, &cfg);
                assert_eq!(k, ks, "keys diverge under {cfg:?}");
                assert_eq!(v, vs, "stable order diverges under {cfg:?}");
            }
        }
    }

    #[test]
    fn pairs_edge_cases() {
        let mut k: Vec<u32> = vec![];
        let mut v: Vec<u32> = vec![];
        par_radix_sort_pairs_with(&mut k, &mut v, &RadixSortConfig::default());
        let mut k = vec![1u32];
        let mut v = vec![9u32];
        radix_sort_pairs(&mut k, &mut v, 8);
        assert_eq!((k[0], v[0]), (1, 9));
    }

    #[test]
    #[should_panic(expected = "parallel arrays")]
    fn mismatched_lengths_rejected() {
        let mut k = vec![1u32, 2];
        let mut v = vec![0u32];
        radix_sort_pairs(&mut k, &mut v, 8);
    }
}
