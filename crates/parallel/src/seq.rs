//! Sequential LSD radix sort — the building block for the parallel sorts
//! and the single-thread baseline for speedup measurements.

use crate::histogram::count_digits_into;
use crate::key::RadixKey;

/// Default digit width in bits. 8 keeps the histogram (256 counters) in L1
/// and needs 4 passes for 32-bit keys — the paper found radix 8 "quite good
/// across all the data set sizes".
pub const DEFAULT_RADIX_BITS: u32 = 8;

/// Number of LSD passes for a key type at a digit width.
pub fn passes_for<K: RadixKey>(radix_bits: u32) -> u32 {
    K::BITS.div_ceil(radix_bits)
}

/// Keys per block of the kernel's counting read: 16 KiB of `u64`s, small
/// enough that a block stays in L1 while every pass's digits are counted
/// from it.
const COUNT_BLOCK: usize = 2048;

/// Counters the kernel needs for `K` at a digit width: one `bins`-entry
/// histogram per pass.
pub(crate) fn hist_len<K: RadixKey>(radix_bits: u32) -> usize {
    passes_for::<K>(radix_bits) as usize * (1usize << radix_bits)
}

/// The one sequential LSD kernel behind [`radix_sort_with_scratch`],
/// [`crate::pairs::radix_sort_pairs`] and the sub-cutoff path of the
/// `par_radix_sort_*` entry points (`WITH_VALS` selects the payload lane;
/// keys-only callers pass `V = ()` and empty slices).
///
/// One blocked read counts every pass's digits (the counts are
/// permutation-invariant, so they stay valid while the passes move the
/// keys); a pass whose histogram holds all `n` keys in one bin is the
/// identity permutation and is skipped without touching the data again.
/// Each executed pass is a stable scatter between `keys` and the flip
/// buffer `kbuf`; the result always ends in `keys`/`vals`. `hist` is
/// [`hist_len`] counters, contents irrelevant on entry.
pub(crate) fn lsd_sort<K, V, const WITH_VALS: bool>(
    keys: &mut [K],
    vals: &mut [V],
    kbuf: &mut [K],
    vbuf: &mut [V],
    hist: &mut [usize],
    radix_bits: u32,
) where
    K: RadixKey,
    V: Copy,
{
    let n = keys.len();
    if n <= 1 {
        return;
    }
    let bins = 1usize << radix_bits;
    let mask = (bins - 1) as u64;
    debug_assert_eq!(kbuf.len(), n);
    debug_assert_eq!(hist.len(), hist_len::<K>(radix_bits));

    hist.fill(0);
    for block in keys.chunks(COUNT_BLOCK) {
        for (pass, row) in hist.chunks_exact_mut(bins).enumerate() {
            count_digits_into(block, pass as u32 * radix_bits, mask, row);
        }
    }

    // One bin holds all n keys exactly when it is the bin of any one key.
    let probe = keys[0];
    // src/dst flip each executed pass; `flipped` tracks where the data is.
    let mut flipped = false;
    for (pass, offs) in hist.chunks_exact_mut(bins).enumerate() {
        let shift = pass as u32 * radix_bits;
        if offs[probe.digit(shift, mask)] == n {
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
    if flipped {
        keys.copy_from_slice(kbuf);
        if WITH_VALS {
            vals.copy_from_slice(vbuf);
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
    lsd_sort::<K, (), false>(keys, &mut [], scratch, &mut [], &mut hist, radix_bits);
}

/// Sort `keys` with an LSD radix sort (allocates one scratch buffer).
pub fn radix_sort<K: RadixKey + Default>(keys: &mut [K], radix_bits: u32) {
    let mut scratch = vec![K::default(); keys.len()];
    radix_sort_with_scratch(keys, &mut scratch, radix_bits);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn sorts_u32() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v: Vec<u32> = (0..10_000).map(|_| rng.random()).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v, 8);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_with_odd_radix_widths() {
        let mut rng = StdRng::seed_from_u64(2);
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
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<i64> = (0..10_000).map(|_| rng.random()).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v, 8);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_small_types() {
        let mut rng = StdRng::seed_from_u64(4);
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
        let mut rng = StdRng::seed_from_u64(5);
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
    fn skipped_passes_keep_pairs_stable() {
        // Keys use byte 1 only (one executed pass of four); payloads record
        // input order, so the stable order is the unique right answer.
        let mut rng = StdRng::seed_from_u64(6);
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
