//! Output-verification utilities: sortedness and permutation checks.
//!
//! Every claim this workspace makes rests on outputs being *sorted
//! permutations* of inputs (`realbench` rows, tests). The O(n) permutation
//! check is probabilistic, with no exact count: [`multiset_fingerprint`] is
//! a sum and a rotated xor of one SplitMix64 draw per key, plus the length;
//! accidental corruption collides about once in 2^64, a crafted input can.

use ccsort_rng::SplitMix64;

use crate::key::RadixKey;

/// Is the slice non-decreasing?
pub fn is_sorted<T: Ord>(data: &[T]) -> bool {
    data.windows(2).all(|w| w[0] <= w[1])
}

/// Order-independent multiset fingerprint: sum and xor of a per-element
/// hash. Two slices with different fingerprints are definitely not
/// permutations of each other; collisions are astronomically unlikely for
/// accidental corruption (2^-64-ish per component).
pub fn multiset_fingerprint<K: RadixKey>(data: &[K]) -> (u64, u64, usize) {
    let mut sum = 0u64;
    let mut xor = 0u64;
    for k in data {
        // The first draw of the generator seeded with the key's image.
        let x = SplitMix64::seed_from_u64(k.to_bits()).next_u64();
        sum = sum.wrapping_add(x);
        xor ^= x.rotate_left((k.to_bits() & 63) as u32);
    }
    (sum, xor, data.len())
}

/// Are `a` and `b` permutations of each other (by fingerprint)?
pub(crate) fn is_permutation_of<K: RadixKey>(a: &[K], b: &[K]) -> bool {
    multiset_fingerprint(a) == multiset_fingerprint(b)
}

/// The full check: `output` is a sorted permutation of `input`.
pub fn is_sorted_permutation_of<K: RadixKey>(output: &[K], input: &[K]) -> bool {
    is_sorted(output) && is_permutation_of(output, input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sortedness_checks() {
        assert!(is_sorted(&[1u32, 2, 2, 3]));
        assert!(is_sorted::<u32>(&[]));
        assert!(is_sorted(&[5u32]));
        assert!(!is_sorted(&[2u32, 1]));
    }

    #[test]
    fn permutation_detects_reorderings_and_corruption() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let a: Vec<u32> = (0..10_000).map(|_| rng.random()).collect();
        let mut b = a.clone();
        b.reverse();
        assert!(is_permutation_of(&a, &b));
        b.swap(0, 9_999);
        assert!(is_permutation_of(&a, &b));
        // Corrupt one element: caught.
        b[5] ^= 1;
        assert!(!is_permutation_of(&a, &b));
        // Duplicate one element over another: caught (sum/xor change).
        let mut c = a.clone();
        c[7] = c[8];
        assert!(!is_permutation_of(&a, &c) || a[7] == a[8]);
        // Length changes: caught.
        assert!(!is_permutation_of(&a, &a[1..]));
    }

    #[test]
    fn full_check_validates_real_sorts() {
        let mut rng = SplitMix64::seed_from_u64(2);
        let input: Vec<i64> = (0..50_000).map(|_| rng.random()).collect();
        let mut sorted = input.clone();
        crate::radix::par_radix_sort(&mut sorted);
        assert!(is_sorted_permutation_of(&sorted, &input));
        // A sorted but non-permutation output fails.
        let fake: Vec<i64> = (0..50_000).collect();
        assert!(is_sorted(&fake));
        assert!(!is_sorted_permutation_of(&fake, &input));
    }

    #[test]
    fn fingerprint_is_order_independent_but_value_sensitive() {
        let a = vec![1u32, 2, 3, 4];
        let b = vec![4u32, 3, 2, 1];
        assert_eq!(multiset_fingerprint(&a), multiset_fingerprint(&b));
        assert_eq!(multiset_fingerprint(&a), (12961742505305361990, 8075548596611395959, 4));
        let c = vec![1u32, 2, 3, 5];
        assert_ne!(multiset_fingerprint(&a), multiset_fingerprint(&c));
    }
}
