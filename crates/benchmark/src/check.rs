//! The harness's own output checker — deliberately independent of
//! `ccsort_parallel::verify`, so a bug shared by the engine and its
//! verifier cannot pass. Runs outside every timed span.

use crate::gen::mix64;

/// Order-independent multiset fingerprint: length plus a wrapping sum and
/// an xor of a 64-bit hash of every element. A sorted array with the
/// fingerprint of the reference *is* the reference, up to a hash collision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    len: usize,
    sum: u64,
    xor: u64,
}

impl Fingerprint {
    pub fn of<T: Copy + Into<u64>>(keys: &[T]) -> Self {
        let (mut sum, mut xor) = (0u64, 0u64);
        for &k in keys {
            let h = mix64(k.into());
            sum = sum.wrapping_add(h);
            xor ^= h.rotate_left(17);
        }
        Fingerprint {
            len: keys.len(),
            sum,
            xor,
        }
    }
}

fn is_sorted<T: PartialOrd>(keys: &[T]) -> bool {
    keys.windows(2).all(|w| w[0] <= w[1])
}

/// Keys-only check: ascending, and the same multiset as the reference.
pub fn keys_ok<T: Copy + PartialOrd + Into<u64>>(out: &[T], reference: Fingerprint) -> bool {
    is_sorted(out) && Fingerprint::of(out) == reference
}

/// Pairs check, for payloads that were the original indices `0..n`:
/// ascending keys; equal keys keep ascending original index (stability);
/// every payload still points at its own key in the pristine input; and the
/// payloads are still a permutation of `0..n` — which together make the
/// output the unique stable sort of the input.
pub fn pairs_ok(keys: &[u64], payload: &[u64], pristine: &[u64], indices: Fingerprint) -> bool {
    if keys.len() != pristine.len() || payload.len() != pristine.len() {
        return false;
    }
    for i in 0..keys.len() {
        let Some(&origin) = usize::try_from(payload[i])
            .ok()
            .and_then(|p| pristine.get(p))
        else {
            return false;
        };
        if origin != keys[i] {
            return false;
        }
        if i > 0
            && (keys[i - 1] > keys[i] || (keys[i - 1] == keys[i] && payload[i - 1] >= payload[i]))
        {
            return false;
        }
    }
    Fingerprint::of(payload) == indices
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_check_accepts_the_sort_and_rejects_damage() {
        let input = crate::gen::uniform_u32(3, 5000);
        let mut sorted = input.clone();
        sorted.sort_unstable();
        let fp = Fingerprint::of(&sorted);
        assert_eq!(fp, Fingerprint::of(&input), "fingerprint must ignore order");
        assert!(keys_ok(&sorted, fp));
        assert!(!keys_ok(&input, fp), "unsorted");
        let mut damaged = sorted.clone();
        damaged[2500] = damaged[2499];
        assert!(!keys_ok(&damaged, fp), "sorted but a key was replaced");
        assert!(!keys_ok(&sorted[1..], fp), "a key went missing");
    }

    #[test]
    fn pairs_check_sees_instability_and_detached_payloads() {
        let pristine = vec![5u64, 1, 5, 3, 1];
        let indices = Fingerprint::of(&[0u64, 1, 2, 3, 4]);
        let keys = vec![1u64, 1, 3, 5, 5];
        assert!(pairs_ok(&keys, &[1, 4, 3, 0, 2], &pristine, indices));
        assert!(
            !pairs_ok(&keys, &[4, 1, 3, 0, 2], &pristine, indices),
            "equal keys reordered"
        );
        assert!(
            !pairs_ok(&keys, &[1, 4, 0, 3, 2], &pristine, indices),
            "payload left its key"
        );
        assert!(
            !pairs_ok(&keys, &[1, 1, 3, 0, 2], &pristine, indices),
            "payload duplicated"
        );
        assert!(
            !pairs_ok(&keys, &[1, 4, 3, 0, 9], &pristine, indices),
            "payload out of range"
        );
    }
}
