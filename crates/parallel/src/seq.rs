//! Sequential LSD radix sort — the building block for the parallel sorts
//! and the single-thread baseline for speedup measurements.

use crate::histogram::{count_digits_into, prefetch_lines, COUNT_SUB};
use crate::key::RadixKey;

/// Default digit width in bits. 8 keeps the histogram (256 counters) in L1
/// and needs 4 passes for 32-bit keys — the paper found radix 8 "quite good
/// across all the data set sizes".
pub const DEFAULT_RADIX_BITS: u32 = 8;

/// Number of LSD passes for a key type at a digit width.
pub fn passes_for<K: RadixKey>(radix_bits: u32) -> u32 {
    K::BITS.div_ceil(radix_bits)
}

/// Counters the kernel needs for `K` at a digit width: one `bins`-entry
/// histogram per pass.
pub(crate) fn hist_len<K: RadixKey>(radix_bits: u32) -> usize {
    passes_for::<K>(radix_bits) as usize * (1usize << radix_bits)
}

/// The live-pass mask that runs every pass of `K` (bit `p` = pass `p`).
pub(crate) fn all_passes<K: RadixKey>(radix_bits: u32) -> u64 {
    u64::MAX >> (64 - passes_for::<K>(radix_bits))
}

/// The one sequential LSD kernel behind [`radix_sort_with_scratch`],
/// [`crate::pairs::radix_sort_pairs`], the sub-cutoff path of the
/// `par_radix_sort_*` entry points and the bucket phase of the engine's
/// MSD-first schedule (`WITH_VALS` selects the payload lane; keys-only
/// callers pass `V = ()` and empty slices).
///
/// Only the passes in `live` are counted and run; the caller vouches that
/// every other pass is trivial for these keys ([`all_passes`] when it knows
/// nothing). One read counts the live passes' digits (the counts are
/// permutation-invariant, so they stay valid while the passes move the
/// keys) in sub-blocks of [`COUNT_SUB`] keys, each small enough to stay in
/// L1 while every live pass counts it, and before counting one it asks for
/// the next one's lines of `kbuf` (and of `vals` and `vbuf` with payloads).
/// The first scatter writes `kbuf` on 2^radix_bits lines at once and would
/// stall on every miss; asked for a few at a time under the compute-bound
/// count, the lines are cached by then (DESIGN.md §14). A pass whose
/// histogram holds all `n` keys in one bin is the identity permutation
/// and is skipped without touching the data again.
/// Each executed pass is a stable scatter between `keys` and the flip
/// buffer `kbuf`; the result ends in `kbuf`/`vbuf` when `land_in_buf`, in
/// `keys`/`vals` otherwise, whatever the parity of the executed passes.
/// `hist` is [`hist_len`] counters, contents irrelevant on entry.
#[allow(clippy::too_many_arguments)]
pub(crate) fn lsd_sort<K, V, const WITH_VALS: bool>(
    keys: &mut [K],
    vals: &mut [V],
    kbuf: &mut [K],
    vbuf: &mut [V],
    hist: &mut [usize],
    radix_bits: u32,
    live: u64,
    land_in_buf: bool,
) where
    K: RadixKey,
    V: Copy,
{
    let n = keys.len();
    let bins = 1usize << radix_bits;
    let mask = (bins - 1) as u64;
    debug_assert_eq!(kbuf.len(), n);
    debug_assert_eq!(hist.len(), hist_len::<K>(radix_bits));
    let is_live = |pass: usize| live >> pass & 1 == 1;

    // src/dst flip each executed pass; `flipped` tracks where the data is.
    let mut flipped = false;
    if n > 1 {
        for (pass, row) in hist.chunks_exact_mut(bins).enumerate() {
            if is_live(pass) {
                row.fill(0);
            }
        }
        // The lines the first scatter touches; none runs unless a pass is live.
        let ask = |at: usize| {
            let lines = at.min(n)..(at + COUNT_SUB).min(n);
            if live != 0 {
                prefetch_lines(kbuf.as_ptr(), lines.clone());
                if WITH_VALS {
                    prefetch_lines(vals.as_ptr(), lines.clone());
                    prefetch_lines(vbuf.as_ptr(), lines);
                }
            }
        };
        ask(0);
        for (at, sub) in (0..).step_by(COUNT_SUB).zip(keys.chunks(COUNT_SUB)) {
            ask(at + COUNT_SUB);
            for (pass, row) in hist.chunks_exact_mut(bins).enumerate() {
                if is_live(pass) {
                    count_digits_into(sub, pass as u32 * radix_bits, mask, row);
                }
            }
        }

        // One bin holds all n keys exactly when it is the bin of any one key.
        let probe = keys[0];
        for (pass, offs) in hist.chunks_exact_mut(bins).enumerate() {
            let shift = pass as u32 * radix_bits;
            if !is_live(pass) || offs[probe.digit(shift, mask)] == n {
                continue;
            }
            let (ks, vs, kd, vd): (&[K], &[V], &mut [K], &mut [V]) = if flipped {
                (&*kbuf, &*vbuf, &mut *keys, &mut *vals)
            } else {
                (&*keys, &*vals, &mut *kbuf, &mut *vbuf)
            };
            // Exclusive prefix sum -> starting offsets.
            let mut acc = 0usize;
            for h in offs.iter_mut() {
                let c = *h;
                *h = acc;
                acc += c;
            }
            for (i, &k) in ks.iter().enumerate() {
                let d = k.digit(shift, mask);
                let pos = offs[d];
                kd[pos] = k;
                if WITH_VALS {
                    vd[pos] = vs[i];
                }
                offs[d] = pos + 1;
            }
            flipped = !flipped;
        }
    }
    if flipped != land_in_buf {
        let (ks, vs, kd, vd): (&[K], &[V], &mut [K], &mut [V]) =
            if flipped { (kbuf, vbuf, keys, vals) } else { (keys, vals, kbuf, vbuf) };
        kd.copy_from_slice(ks);
        if WITH_VALS {
            vd.copy_from_slice(vs);
        }
    }
}

/// Sort `keys` with an LSD radix sort using `radix_bits`-bit digits and the
/// provided scratch buffer (`scratch.len() == keys.len()`). After return the
/// sorted data is in `keys`.
pub fn radix_sort_with_scratch<K: RadixKey>(keys: &mut [K], scratch: &mut [K], radix_bits: u32) {
    assert!((1..=16).contains(&radix_bits), "radix_bits out of range");
    assert_eq!(keys.len(), scratch.len());
    let mut hist = vec![0usize; hist_len::<K>(radix_bits)];
    lsd_sort::<K, (), false>(
        keys,
        &mut [],
        scratch,
        &mut [],
        &mut hist,
        radix_bits,
        all_passes::<K>(radix_bits),
        false,
    );
}

/// Sort `keys` with an LSD radix sort (allocates one scratch buffer).
pub fn radix_sort<K: RadixKey + Default>(keys: &mut [K], radix_bits: u32) {
    let mut scratch = vec![K::default(); keys.len()];
    radix_sort_with_scratch(keys, &mut scratch, radix_bits);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsort_rng::SplitMix64;

    #[test]
    fn sorts_u32() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let mut v: Vec<u32> = (0..10_000).map(|_| rng.random()).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v, 8);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_with_odd_radix_widths() {
        let mut rng = SplitMix64::seed_from_u64(2);
        for bits in [1u32, 3, 7, 11, 16] {
            let mut v: Vec<u32> = (0..5_000).map(|_| rng.random()).collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            radix_sort(&mut v, bits);
            assert_eq!(v, expect, "radix_bits={bits}");
        }
    }

    #[test]
    fn sorts_signed_keys() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let mut v: Vec<i64> = (0..10_000).map(|_| rng.random()).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v, 8);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_small_types() {
        let mut rng = SplitMix64::seed_from_u64(4);
        let mut v: Vec<u8> = (0..4_000).map(|_| rng.random()).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v, 8); // exactly one pass
        assert_eq!(v, expect);

        let mut w: Vec<i16> = (0..4_000).map(|_| rng.random()).collect();
        let mut expect = w.clone();
        expect.sort_unstable();
        radix_sort(&mut w, 11);
        assert_eq!(w, expect);
    }

    #[test]
    fn edge_cases() {
        let mut empty: Vec<u32> = vec![];
        radix_sort(&mut empty, 8);
        assert!(empty.is_empty());

        let mut one = vec![5u32];
        radix_sort(&mut one, 8);
        assert_eq!(one, vec![5]);

        let mut dup = vec![3u32; 1000];
        radix_sort(&mut dup, 8);
        assert!(dup.iter().all(|&x| x == 3));

        let mut rev: Vec<u32> = (0..1000).rev().collect();
        radix_sort(&mut rev, 8);
        assert!(rev.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn pass_count() {
        assert_eq!(passes_for::<u32>(8), 4);
        assert_eq!(passes_for::<u32>(11), 3);
        assert_eq!(passes_for::<u64>(8), 8);
        assert_eq!(passes_for::<u8>(8), 1);
    }

    /// Run the kernel with a poisoned flip buffer and check the result is
    /// in `keys` whatever the parity of the executed passes.
    fn check_lands_in_keys<K: RadixKey + Default + std::fmt::Debug>(input: Vec<K>, poison: K) {
        let mut expect = input.clone();
        expect.sort_unstable();
        let mut keys = input;
        let mut scratch = vec![poison; keys.len()];
        radix_sort_with_scratch(&mut keys, &mut scratch, 8);
        assert_eq!(keys, expect);
    }

    #[test]
    fn trivial_passes_are_skipped_and_data_ends_in_keys() {
        let mut rng = SplitMix64::seed_from_u64(5);
        // No executed pass at all: every key equal.
        check_lands_in_keys(vec![0xDEAD_BEEFu32; 3000], 0);
        check_lands_in_keys(vec![-7i64; 3000], 0);
        // u64 keys below 2^16: six of eight passes hold all n keys in bin 0.
        check_lands_in_keys((0..3000).map(|_| rng.random::<u64>() & 0xFFFF).collect(), u64::MAX);
        // One, two and three executed passes (odd counts end in the flip
        // buffer and must be copied back), in non-adjacent digit positions.
        for live_bytes in [&[2usize][..], &[0, 3], &[0, 1, 3]] {
            let mask = live_bytes.iter().fold(0u32, |m, b| m | 0xFF << (8 * b));
            check_lands_in_keys((0..3000).map(|_| rng.random::<u32>() & mask).collect(), u32::MAX);
        }
    }

    #[test]
    fn only_live_passes_run_and_the_result_lands_where_asked() {
        // The bucket-phase contract: the caller names the live passes (a
        // superset of the non-trivial ones) and the buffer the result must
        // end in; payloads record input order, so the answer is unique.
        let mut rng = SplitMix64::seed_from_u64(7);
        for (live_bytes, n) in [(&[0usize, 2][..], 3000usize), (&[1], 3000), (&[0, 1, 2], 3000), (&[0, 2], 1), (&[], 0)] {
            let mask = live_bytes.iter().fold(0u32, |m, b| m | 0xFF << (8 * b));
            let live = live_bytes.iter().fold(0u64, |l, b| l | 1 << b);
            let keys_in: Vec<u32> = (0..n).map(|_| rng.random::<u32>() & mask & 0x1F1F_1F1F).collect();
            let mut expect: Vec<(u32, u32)> = keys_in.iter().copied().zip(0..).collect();
            expect.sort_by_key(|p| p.0);
            for (live, land_in_buf) in [(live, true), (live, false), (all_passes::<u32>(8), true)] {
                let (mut keys, mut vals) = (keys_in.clone(), (0..n as u32).collect::<Vec<_>>());
                let (mut kbuf, mut vbuf) = (vec![u32::MAX; n], vec![u32::MAX; n]);
                // Dead rows are never read or written: poison them.
                let mut hist = vec![usize::MAX; hist_len::<u32>(8)];
                lsd_sort::<u32, u32, true>(
                    &mut keys, &mut vals, &mut kbuf, &mut vbuf, &mut hist, 8, live, land_in_buf,
                );
                let (k, v) = if land_in_buf { (kbuf, vbuf) } else { (keys, vals) };
                assert_eq!(k.into_iter().zip(v).collect::<Vec<_>>(), expect, "live={live:#b}");
                if live.count_ones() < 4 {
                    let dead = (0..4).find(|p| live >> p & 1 == 0).expect("a dead pass");
                    assert!(hist[dead * 256..(dead + 1) * 256].iter().all(|&c| c == usize::MAX));
                }
            }
        }
    }

    #[test]
    fn prefetched_count_edges_match_sort_by_key() {
        // The counting read asks for the lines the first scatter touches one
        // sub-block ahead: sizes around a cache line (16 `u32`s), one and
        // two sub-blocks, and a few thousand keys; no / one / every live
        // pass, both landing sides and both lanes, on poisoned flip buffers.
        let mut rng = SplitMix64::seed_from_u64(8);
        let sub = COUNT_SUB;
        for n in [1usize, 15, 16, 17, sub - 1, sub, sub + 1, 2 * sub + 1, 2047, 2048, 2049, 4097] {
            for (live, mask) in [(0u64, 0u32), (0b10, 0xFF00), (all_passes::<u32>(8), u32::MAX)] {
                let base = rng.random::<u32>() & !mask;
                let keys_in: Vec<u32> = (0..n).map(|_| base | rng.random::<u32>() & mask).collect();
                let mut expect: Vec<(u32, u32)> = keys_in.iter().copied().zip(0..).collect();
                expect.sort_by_key(|p| p.0);
                let at = format!("n={n} live={live:#b}");
                for land_in_buf in [false, true] {
                    let mut hist = vec![usize::MAX; hist_len::<u32>(8)];
                    let (mut keys, mut kbuf) = (keys_in.clone(), vec![u32::MAX; n]);
                    lsd_sort::<u32, (), false>(&mut keys, &mut [], &mut kbuf, &mut [], &mut hist, 8, live, land_in_buf);
                    let k = if land_in_buf { kbuf } else { keys };
                    assert!(k.into_iter().eq(expect.iter().map(|p| p.0)), "keys, {at} land_in_buf={land_in_buf}");

                    let (mut keys, mut vals) = (keys_in.clone(), (0..n as u32).collect::<Vec<_>>());
                    let (mut kbuf, mut vbuf) = (vec![u32::MAX; n], vec![u32::MAX; n]);
                    lsd_sort::<u32, u32, true>(
                        &mut keys, &mut vals, &mut kbuf, &mut vbuf, &mut hist, 8, live, land_in_buf,
                    );
                    let (k, v) = if land_in_buf { (kbuf, vbuf) } else { (keys, vals) };
                    assert_eq!(k.into_iter().zip(v).collect::<Vec<_>>(), expect, "pairs, {at} land_in_buf={land_in_buf}");
                }
            }
        }
    }

    #[test]
    fn skipped_passes_keep_pairs_stable() {
        // Keys use byte 1 only (one executed pass of four); payloads record
        // input order, so the stable order is the unique right answer.
        let mut rng = SplitMix64::seed_from_u64(6);
        let keys_in: Vec<u32> = (0..5000).map(|_| (rng.random::<u32>() & 0x1F) << 8).collect();
        let mut expect: Vec<(u32, u32)> = keys_in.iter().copied().zip(0..).collect();
        expect.sort_by_key(|p| p.0);
        let (mut keys, mut vals) = (keys_in, (0..5000u32).collect::<Vec<_>>());
        crate::pairs::radix_sort_pairs(&mut keys, &mut vals, 8);
        assert_eq!(keys.into_iter().zip(vals).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn stable_within_equal_bits() {
        // Radix sort is stable; for plain integers stability is invisible,
        // but an odd pass count must still land data back in `keys`.
        let mut v: Vec<u32> = (0..100).map(|i| (100 - i) % 7).collect();
        radix_sort(&mut v, 11); // 3 passes: ends in scratch, copied back
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }
}
