//! Distribution validator: every [`Dist`] has documented shape properties
//! (module docs of `ccsort_algos::dist`); this module checks them on the
//! actual generated keys, slot by slot, so a generator bug (a window
//! collision, a degenerate range, a zero-filled remainder when `p ∤ n`)
//! is caught directly instead of surfacing later as a mis-shaped figure.

use ccsort_algos::common::part_range;
use ccsort_algos::dist::{generate, stagger_window, Dist, KEY_BITS, MAX_KEY};

/// Validate the keys `generate(dist, n, p, r, seed)` produces. Returns a
/// list of violations (empty = the distribution has its documented shape).
pub fn validate_dist(dist: Dist, n: usize, p: usize, r: u32, seed: u64) -> Vec<String> {
    let mut errs = Vec::new();
    let tag = |msg: String| format!("{}/n={n}/p={p}/r={r}/seed={seed}: {msg}", dist.name());
    let keys = generate(dist, n, p, r, seed);

    if keys.len() != n {
        errs.push(tag(format!("generated {} keys, expected {n}", keys.len())));
        return errs;
    }
    if let Some((i, &k)) = keys.iter().enumerate().find(|&(_, &k)| (k as u64) >= MAX_KEY) {
        errs.push(tag(format!("key {k} at slot {i} outside the 31-bit range")));
    }
    if generate(dist, n, p, r, seed) != keys {
        errs.push(tag("generation is not deterministic".into()));
    }
    // The per-process partitions must tile 0..n exactly — the structural
    // guarantee that no slot is silently left at its zero fill.
    let covered: usize = (0..p).map(|i| part_range(n, p, i).len()).sum();
    if covered != n || part_range(n, p, p - 1).end != n {
        errs.push(tag(format!("partitions cover {covered} of {n} slots")));
    }

    let radix = 1u64 << r;
    match dist {
        Dist::Gauss | Dist::Half => {
            if dist == Dist::Half {
                if let Some((i, &k)) = keys.iter().enumerate().find(|&(_, &k)| k % 2 != 0) {
                    errs.push(tag(format!("odd key {k} at slot {i}")));
                }
            }
            // Average-of-four-uniforms is bell shaped: at usable sizes the
            // middle half of the key range holds the clear majority.
            if n >= 4096 {
                let mid = keys
                    .iter()
                    .filter(|&&k| (k as u64) > MAX_KEY / 4 && (k as u64) < 3 * MAX_KEY / 4)
                    .count();
                if (mid as f64) < 0.75 * n as f64 {
                    errs.push(tag(format!(
                        "not bell-shaped: middle-half fraction {:.3}",
                        mid as f64 / n as f64
                    )));
                }
            }
        }
        Dist::Random => {}
        Dist::Zero => {
            if let Some(i) = (0..n).filter(|i| i % 10 == 9).find(|&i| keys[i] != 0) {
                errs.push(tag(format!("slot {i} should be zero, holds {}", keys[i])));
            }
        }
        Dist::Bucket => {
            for i in 0..p {
                let range = part_range(n, p, i);
                let block = range.len().div_ceil(p).max(1);
                for (idx, slot) in range.enumerate() {
                    let j = (idx / block).min(p - 1) as u64;
                    let lo = j * MAX_KEY / p as u64;
                    let hi = ((j + 1) * MAX_KEY / p as u64).max(lo + 1);
                    let k = keys[slot] as u64;
                    if k < lo || k >= hi {
                        errs.push(tag(format!(
                            "proc {i} block {j} slot {slot}: key {k} outside [{lo},{hi})"
                        )));
                        break;
                    }
                }
            }
        }
        Dist::Stagger => {
            // The p windows must be a permutation of the p key ranges…
            let mut windows: Vec<usize> = (0..p).map(|i| stagger_window(p, i)).collect();
            windows.sort_unstable();
            if windows != (0..p).collect::<Vec<_>>() {
                errs.push(tag(format!("windows are not a permutation of 0..{p}: {windows:?}")));
            }
            // …and every key must sit inside its process's window.
            for i in 0..p {
                let w = stagger_window(p, i) as u64;
                let lo = w * MAX_KEY / p as u64;
                let hi = (w + 1) * MAX_KEY / p as u64;
                for slot in part_range(n, p, i) {
                    let k = keys[slot] as u64;
                    if k < lo || k >= hi {
                        errs.push(tag(format!(
                            "proc {i} slot {slot}: key {k} outside window {w} = [{lo},{hi})"
                        )));
                        break;
                    }
                }
            }
        }
        Dist::Local if (radix as usize) >= p => {
            // Zero communication: every full r-bit digit of every key keeps
            // it on its own process — the per-process locality fraction is
            // exactly 1.
            'outer_local: for i in 0..p {
                for slot in part_range(n, p, i) {
                    let k = keys[slot] as u64;
                    let mut shift = 0;
                    while shift + r <= KEY_BITS {
                        let d = (k >> shift) & (radix - 1);
                        if owner_of(radix as usize, p, d as usize) != i {
                            errs.push(tag(format!(
                                "proc {i} slot {slot}: digit {d} at bit {shift} leaves its process"
                            )));
                            break 'outer_local;
                        }
                        shift += r;
                    }
                }
            }
        }
        Dist::Remote if p > 1 && (radix as usize) >= p => {
            // Maximal communication: the first digit always leaves the home
            // process (locality fraction 0), the second always returns.
            'outer_remote: for i in 0..p {
                for slot in part_range(n, p, i) {
                    let k = keys[slot] as u64;
                    let d0 = k & (radix - 1);
                    let d1 = (k >> r) & (radix - 1);
                    if owner_of(radix as usize, p, d0 as usize) == i {
                        errs.push(tag(format!(
                            "proc {i} slot {slot}: first digit {d0} stays home"
                        )));
                        break 'outer_remote;
                    }
                    if owner_of(radix as usize, p, d1 as usize) != i {
                        errs.push(tag(format!(
                            "proc {i} slot {slot}: second digit {d1} does not return home"
                        )));
                        break 'outer_remote;
                    }
                }
            }
        }
        Dist::Local | Dist::Remote => {} // fewer digits than processes: shape undefined
    }
    errs
}

/// Owning process of element `idx < n` under [`part_range`] partitioning:
/// the last `i` with `i * n / p <= idx`, i.e. `i * n < (idx + 1) * p`.
fn owner_of(n: usize, p: usize, idx: usize) -> usize {
    ((idx + 1) * p - 1) / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_distributions_validate_on_a_grid() {
        for d in Dist::ALL {
            for &(n, p) in &[(64usize, 7usize), (1 << 10, 3), (1 << 10, 8), (100, 5)] {
                let errs = validate_dist(d, n, p, 6, 0);
                assert!(errs.is_empty(), "{errs:?}");
            }
        }
    }

    #[test]
    fn owner_of_inverts_part_range() {
        for n in [1usize, 2, 7, 63, 64, 100, 1000, 4096, 4097] {
            for p in 1..=64 {
                for i in 0..p {
                    for idx in part_range(n, p, i) {
                        assert_eq!(owner_of(n, p, idx), i, "n={n} p={p} idx={idx}");
                    }
                }
            }
        }
    }

    #[test]
    fn validator_catches_zero_fill() {
        // A truncated Stagger generator (the pre-fix bug) left the tail of
        // the key array zero-filled; synthesize that state and confirm the
        // window check would flag it. We can't call the buggy generator any
        // more, so check the property directly: 0 is not in process 2's
        // stagger window for p=3.
        let p = 3;
        let w = stagger_window(p, p - 1) as u64;
        let lo = w * MAX_KEY / p as u64;
        assert!(lo > 0, "window {w} must not contain the zero fill");
    }
}
