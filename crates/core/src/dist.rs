//! The eight key-initialisation methods of Section 3.3.
//!
//! `gauss`, `random`, `zero`, `bucket` and `stagger` come from the
//! literature (SPLASH-2 / NAS IS, Sohn & Kodama, Helman et al.); `half`,
//! `remote` and `local` were designed by the paper's authors to exercise
//! specific communication behaviour:
//!
//! * `half` — Gauss restricted to even keys: halves the number of radix-sort
//!   messages while keeping the data volume fixed.
//! * `remote` — maximises inter-process key movement: every key moves to
//!   another process in every radix pass (and exhibits high spatial locality
//!   in the local permutation, the paper's surprising 256M finding).
//! * `local` — no remote key movement at all: a process's keys stay with it
//!   in every pass.
//!
//! Keys are unsigned 31-bit integers (`MAX = 2^31`), matching the paper.
//! `generate` returns a vector whose slice `[i*n/p, (i+1)*n/p)` holds the
//! keys initially assigned to process `i`. All generators are seeded and
//! fully deterministic.

use ccsort_rng::SplitMix64;
use crate::common::part_range;

/// Exclusive upper bound on key values: 2^31.
pub const MAX_KEY: u64 = 1 << 31;
/// Number of significant key bits.
pub const KEY_BITS: u32 = 31;
/// Widest radix digit any program or generator takes, in bits: `2^16`
/// histogram bins per process already dwarf the keys of every experiment.
/// [`generate`] asserts it and `ExpConfig::validate` rejects wider digits.
pub const MAX_RADIX_BITS: u32 = 16;

/// Key distribution, Section 3.3 of the paper.
///
/// `Ord` so distributions can key deterministic `BTreeMap` memo caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dist {
    /// NAS-IS style: each key the average of four consecutive values of
    /// `x_{k+1} = 513 x_k mod 2^46`, `x_0 = 314159265`.
    Gauss,
    /// Uniform pseudo-random in `[0, 2^31)`.
    Random,
    /// `Random`, but every tenth key is zero.
    Zero,
    /// Each process's partition split into `p` blocks; block `j` uniform in
    /// `[j*MAX/p, (j+1)*MAX/p)`.
    Bucket,
    /// Process `i` draws from key window `[w MAX/p, (w+1) MAX/p)` where
    /// `w = stagger_window(p, i)` — a permutation of the `p` windows for
    /// every `p` (see [`stagger_window`]), so no two processes collide and
    /// no window degenerates.
    Stagger,
    /// Gauss restricted to even values.
    Half,
    /// Maximal communication: alternating radix digits move keys away from
    /// and back to their home process (needs the radix size `r`).
    Remote,
    /// Zero communication: every radix digit keeps a key on its process.
    Local,
}

impl Dist {
    /// All eight methods, in the order of the paper's Figure 5.
    pub const ALL: [Dist; 8] = [
        Dist::Gauss,
        Dist::Random,
        Dist::Zero,
        Dist::Bucket,
        Dist::Stagger,
        Dist::Remote,
        Dist::Half,
        Dist::Local,
    ];

    /// Lower-case name used by the benchmark harness.
    pub fn name(&self) -> &'static str {
        match self {
            Dist::Gauss => "gauss",
            Dist::Random => "random",
            Dist::Zero => "zero",
            Dist::Bucket => "bucket",
            Dist::Stagger => "stagger",
            Dist::Half => "half",
            Dist::Remote => "remote",
            Dist::Local => "local",
        }
    }

    /// Parse a name as produced by [`Dist::name`].
    pub fn parse(s: &str) -> Option<Dist> {
        Dist::ALL.iter().copied().find(|d| d.name() == s)
    }
}

/// The NAS recurrence used by Gauss/Half.
struct NasRng {
    x: u64,
}

impl NasRng {
    const A: u64 = 513;
    const MOD_MASK: u64 = (1 << 46) - 1;

    fn new() -> Self {
        NasRng { x: 314159265 }
    }

    fn next_raw(&mut self) -> u64 {
        self.x = self.x.wrapping_mul(Self::A) & Self::MOD_MASK;
        self.x
    }

    /// One Gauss key: average of four consecutive raws, scaled to 31 bits.
    fn next_key(&mut self) -> u32 {
        let sum = self.next_raw() + self.next_raw() + self.next_raw() + self.next_raw();
        ((sum / 4) >> 15) as u32
    }
}

/// Key window drawn by process `i` under [`Dist::Stagger`]: a permutation
/// of `0..p` for every `p`.
///
/// Even `p` uses the paper's mapping — the first half of the processes take
/// the odd windows (`2i+1`), the second half the even ones (`2i-p`). For odd
/// `p` that formula collides (with `p=3`, processes 0 and 2 both land on
/// window 1), so odd `p` uses `(2i+1) mod p` instead, which cycles through
/// all `p` windows exactly when `p` is odd.
pub fn stagger_window(p: usize, i: usize) -> usize {
    debug_assert!(i < p);
    if p % 2 == 1 {
        (2 * i + 1) % p
    } else if 2 * i < p {
        2 * i + 1
    } else {
        2 * i - p
    }
}

/// Generate `n` keys for `p` processes with radix size `r` (only `Remote`
/// and `Local` depend on `r`) and the given seed (`Gauss`/`Half` are fully
/// defined by the paper's recurrence and ignore it).
///
/// Process `i`'s keys occupy `part_range(n, p, i)` — the same partition the
/// sorting programs use — so every slot is written even when `p ∤ n` (the
/// last processes absorb the remainder instead of leaving a zero-filled
/// tail).
pub fn generate(dist: Dist, n: usize, p: usize, r: u32, seed: u64) -> Vec<u32> {
    assert!(p >= 1 && n >= p, "need at least one key per process");
    assert!((1..=MAX_RADIX_BITS).contains(&r), "radix size out of range");
    let mut keys = vec![0u32; n];
    match dist {
        Dist::Gauss => {
            let mut g = NasRng::new();
            for k in keys.iter_mut() {
                *k = g.next_key();
            }
        }
        Dist::Half => {
            let mut g = NasRng::new();
            for k in keys.iter_mut() {
                *k = g.next_key() & !1;
            }
        }
        Dist::Random => {
            let mut rng = SplitMix64::seed_from_u64(seed);
            for k in keys.iter_mut() {
                *k = rng.random_range(0..MAX_KEY) as u32;
            }
        }
        Dist::Zero => {
            let mut rng = SplitMix64::seed_from_u64(seed);
            for (i, k) in keys.iter_mut().enumerate() {
                *k = if i % 10 == 9 { 0 } else { rng.random_range(0..MAX_KEY) as u32 };
            }
        }
        Dist::Bucket => {
            let mut rng = SplitMix64::seed_from_u64(seed);
            for i in 0..p {
                let range = part_range(n, p, i);
                let block = range.len().div_ceil(p).max(1);
                for (idx, slot) in range.enumerate() {
                    let j = (idx / block).min(p - 1) as u64;
                    let lo = j * MAX_KEY / p as u64;
                    let hi = (j + 1) * MAX_KEY / p as u64;
                    keys[slot] = rng.random_range(lo..hi.max(lo + 1)) as u32;
                }
            }
        }
        Dist::Stagger => {
            let mut rng = SplitMix64::seed_from_u64(seed);
            for i in 0..p {
                let w = stagger_window(p, i) as u64;
                let lo = w * MAX_KEY / p as u64;
                let hi = (w + 1) * MAX_KEY / p as u64;
                for slot in part_range(n, p, i) {
                    keys[slot] = rng.random_range(lo..hi) as u32;
                }
            }
        }
        Dist::Remote => {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let radix = 1u64 << r;
            for i in 0..p {
                let lo = (i as u64) * radix / p as u64;
                let hi = (((i + 1) as u64) * radix / p as u64).max(lo + 1);
                let in_len = hi - lo;
                let out_len = radix - in_len;
                for slot in part_range(n, p, i) {
                    // First digit: uniform over [0, 2^r) \ [lo, hi).
                    let first = if out_len == 0 {
                        // Degenerate (p == 1): nowhere else to go.
                        rng.random_range(0..radix)
                    } else {
                        let v = rng.random_range(0..out_len);
                        if v < lo {
                            v
                        } else {
                            v + in_len
                        }
                    };
                    // Second digit: uniform over [lo, hi).
                    let second = rng.random_range(lo..hi);
                    // Duplicate the pair upward: digits 0,2,4.. = first,
                    // digits 1,3,5.. = second.
                    let mut key: u64 = 0;
                    let mut shift = 0u32;
                    let mut odd = false;
                    while shift < KEY_BITS {
                        let d = if odd { second } else { first };
                        key |= d << shift;
                        shift += r;
                        odd = !odd;
                    }
                    keys[slot] = (key & (MAX_KEY - 1)) as u32;
                }
            }
        }
        Dist::Local => {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let radix = 1u64 << r;
            for i in 0..p {
                let lo = (i as u64) * radix / p as u64;
                let hi = (((i + 1) as u64) * radix / p as u64).max(lo + 1);
                for slot in part_range(n, p, i) {
                    let v = rng.random_range(lo..hi);
                    // Duplicate the digit only into *full* r-bit positions:
                    // the top partial digit stays zero, so it too keeps the
                    // key on its process (digit 0's destination is the
                    // stable order, which is exactly the initial layout).
                    let mut key: u64 = 0;
                    let mut shift = 0u32;
                    while shift + r <= KEY_BITS {
                        key |= v << shift;
                        shift += r;
                    }
                    keys[slot] = (key & (MAX_KEY - 1)) as u32;
                }
            }
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 1 << 12;
    const P: usize = 8;
    const R: u32 = 8;

    #[test]
    fn all_keys_within_31_bits() {
        for d in Dist::ALL {
            let keys = generate(d, N, P, R, 42);
            assert_eq!(keys.len(), N);
            assert!(keys.iter().all(|&k| (k as u64) < MAX_KEY), "{d:?}");
        }
    }

    #[test]
    fn gauss_matches_nas_recurrence_prefix() {
        // First raw values of the recurrence, computed independently.
        let mut x: u64 = 314159265;
        let mut raws = Vec::new();
        for _ in 0..8 {
            x = (x * 513) & ((1 << 46) - 1);
            raws.push(x);
        }
        let expect0 = (((raws[0] + raws[1] + raws[2] + raws[3]) / 4) >> 15) as u32;
        let expect1 = (((raws[4] + raws[5] + raws[6] + raws[7]) / 4) >> 15) as u32;
        let keys = generate(Dist::Gauss, 4, 1, R, 0);
        assert_eq!(keys[0], expect0);
        assert_eq!(keys[1], expect1);
    }

    #[test]
    fn gauss_is_bell_shaped() {
        // Average of four uniforms concentrates around MAX/2: the middle
        // half of the range should hold the large majority of keys.
        let keys = generate(Dist::Gauss, 1 << 14, 1, R, 0);
        let mid = keys
            .iter()
            .filter(|&&k| (k as u64) > MAX_KEY / 4 && (k as u64) < 3 * MAX_KEY / 4)
            .count();
        assert!(mid as f64 > 0.85 * keys.len() as f64, "mid fraction {}", mid as f64 / keys.len() as f64);
    }

    #[test]
    fn zero_has_every_tenth_zero() {
        let keys = generate(Dist::Zero, 100, 4, R, 7);
        let zeros = keys.iter().filter(|&&k| k == 0).count();
        assert!(zeros >= 10, "{zeros}");
        assert_eq!(keys[9], 0);
        assert_eq!(keys[19], 0);
    }

    #[test]
    fn half_keys_are_even() {
        let keys = generate(Dist::Half, N, P, R, 0);
        assert!(keys.iter().all(|&k| k % 2 == 0));
        // And otherwise Gauss-like: same keys with the low bit cleared.
        let gauss = generate(Dist::Gauss, N, P, R, 0);
        assert!(keys.iter().zip(&gauss).all(|(&h, &g)| h == g & !1));
    }

    #[test]
    fn bucket_blocks_are_range_restricted() {
        let keys = generate(Dist::Bucket, N, P, R, 3);
        let per = N / P;
        let block = per.div_ceil(P);
        for i in 0..P {
            for j in 0..P {
                let lo = (j as u64) * MAX_KEY / P as u64;
                let hi = ((j + 1) as u64) * MAX_KEY / P as u64;
                for idx in 0..block {
                    let slot = i * per + j * block + idx;
                    if slot >= (i + 1) * per {
                        break;
                    }
                    let k = keys[slot] as u64;
                    assert!(k >= lo && k < hi, "proc {i} block {j} key {k}");
                }
            }
        }
    }

    #[test]
    fn stagger_ranges_match_formula() {
        let keys = generate(Dist::Stagger, N, P, R, 5);
        let per = N / P;
        for i in 0..P {
            let (lo_mul, hi_mul) =
                if i < P / 2 { (2 * i as u64 + 1, 2 * i as u64 + 2) } else { ((2 * i - P) as u64, (2 * i - P + 1) as u64) };
            let lo = lo_mul * MAX_KEY / P as u64;
            let hi = (hi_mul * MAX_KEY / P as u64).min(MAX_KEY);
            for slot in i * per..(i + 1) * per {
                let k = keys[slot] as u64;
                assert!(k >= lo && k < hi, "proc {i} key {k} not in [{lo},{hi})");
            }
        }
    }

    #[test]
    fn remote_first_digit_leaves_home_second_returns() {
        let keys = generate(Dist::Remote, N, P, R, 11);
        let per = N / P;
        let radix = 1u64 << R;
        for i in 0..P {
            let lo = (i as u64) * radix / P as u64;
            let hi = ((i + 1) as u64) * radix / P as u64;
            for slot in i * per..(i + 1) * per {
                let k = keys[slot] as u64;
                let d0 = k & (radix - 1);
                let d1 = (k >> R) & (radix - 1);
                assert!(!(d0 >= lo && d0 < hi), "first digit must leave process {i}");
                assert!(d1 >= lo && d1 < hi, "second digit must return to process {i}");
                // Alternation continues upward: bits 16..24 repeat digit 0.
                let d2 = (k >> (2 * R)) & (radix - 1);
                assert_eq!(d2, d0, "third digit repeats the first");
            }
        }
    }

    #[test]
    fn local_keys_never_move() {
        let keys = generate(Dist::Local, N, P, R, 13);
        let per = N / P;
        let radix = 1u64 << R;
        for i in 0..P {
            let lo = (i as u64) * radix / P as u64;
            let hi = ((i + 1) as u64) * radix / P as u64;
            for slot in i * per..(i + 1) * per {
                let k = keys[slot] as u64;
                // Every digit of the key stays in process i's digit range.
                let mut shift = 0;
                while shift + R <= KEY_BITS {
                    let d = (k >> shift) & (radix - 1);
                    assert!(d >= lo && d < hi, "proc {i} digit at {shift} = {d}");
                    shift += R;
                }
            }
        }
    }

    #[test]
    fn stagger_windows_form_a_permutation_for_every_p() {
        for p in 1..=33 {
            let mut windows: Vec<usize> = (0..p).map(|i| stagger_window(p, i)).collect();
            windows.sort_unstable();
            assert_eq!(windows, (0..p).collect::<Vec<_>>(), "p={p}");
        }
    }

    #[test]
    fn stagger_odd_p_keys_stay_in_disjoint_windows() {
        for &(n, p) in &[(1usize << 10, 3usize), (64, 7), (1 << 10, 7), (100, 5)] {
            let keys = generate(Dist::Stagger, n, p, 6, 0);
            for i in 0..p {
                let w = stagger_window(p, i) as u64;
                let lo = w * MAX_KEY / p as u64;
                let hi = (w + 1) * MAX_KEY / p as u64;
                for slot in part_range(n, p, i) {
                    let k = keys[slot] as u64;
                    assert!(
                        k >= lo && k < hi,
                        "n={n} p={p} proc {i} slot {slot} key {k} not in [{lo},{hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn remainder_slots_are_covered_when_p_does_not_divide_n() {
        // n=1024, p=3: the old `per = n/p` truncation left slot 1023
        // zero-filled. Every partitioned generator must now write it with a
        // value from the last process's assigned window.
        let n = 1024;
        let p = 3;
        let keys = generate(Dist::Stagger, n, p, 6, 0);
        let w = stagger_window(p, p - 1) as u64; // process 2 -> window 2
        assert_eq!(w, 2);
        let k = keys[n - 1] as u64;
        assert!(k >= w * MAX_KEY / 3 && k < (w + 1) * MAX_KEY / 3, "tail key {k}");

        // Local: the tail slot's every full digit must be in process 2's
        // digit range, which excludes digit 0 — so the key cannot be zero.
        let r = 6;
        let radix = 1u64 << r;
        let keys = generate(Dist::Local, n, p, r, 0);
        let lo = (p as u64 - 1) * radix / p as u64;
        let k = keys[n - 1] as u64;
        assert!(k & (radix - 1) >= lo, "local tail digit {} below {lo}", k & (radix - 1));

        // Remote: the tail slot's second digit must be in process 2's range.
        let keys = generate(Dist::Remote, n, p, r, 0);
        let d1 = (keys[n - 1] as u64 >> r) & (radix - 1);
        assert!(d1 >= lo, "remote tail second digit {d1} below {lo}");
    }

    #[test]
    fn deterministic_per_seed() {
        for d in Dist::ALL {
            assert_eq!(generate(d, 1024, 4, R, 9), generate(d, 1024, 4, R, 9), "{d:?}");
        }
        // Seed changes the rand-based distributions.
        assert_ne!(generate(Dist::Random, 1024, 4, R, 1), generate(Dist::Random, 1024, 4, R, 2));
    }

    #[test]
    fn name_roundtrip() {
        for d in Dist::ALL {
            assert_eq!(Dist::parse(d.name()), Some(d));
        }
        assert_eq!(Dist::parse("nope"), None);
    }
}

#[cfg(test)]
mod statistical_tests {
    use super::*;

    const N: usize = 1 << 15;
    const P: usize = 16;

    /// Chi-squared-flavoured uniformity check on the low byte.
    fn low_byte_is_roughly_uniform(keys: &[u32]) -> bool {
        let mut counts = [0usize; 256];
        for &k in keys {
            counts[(k & 255) as usize] += 1;
        }
        let expect = keys.len() as f64 / 256.0;
        counts.iter().all(|&c| (c as f64) > expect * 0.5 && (c as f64) < expect * 1.5)
    }

    #[test]
    fn random_low_bytes_uniform() {
        assert!(low_byte_is_roughly_uniform(&generate(Dist::Random, N, P, 8, 5)));
    }

    #[test]
    fn gauss_low_bytes_uniform_but_top_concentrated() {
        let keys = generate(Dist::Gauss, N, P, 8, 0);
        assert!(low_byte_is_roughly_uniform(&keys));
        // Top 7 bits: bell-shaped, so the modal bucket holds far more than
        // uniform share.
        let mut top = [0usize; 128];
        for &k in &keys {
            top[(k >> 24) as usize] += 1;
        }
        let max = *top.iter().max().unwrap() as f64;
        assert!(max > 1.8 * (N as f64 / 128.0), "gauss top digit must concentrate: {max}");
    }

    #[test]
    fn bucket_is_globally_uniform_but_locally_sorted_by_block() {
        let keys = generate(Dist::Bucket, N, P, 8, 6);
        // Each process's partition covers the whole range in p ascending blocks.
        let per = N / P;
        let part = &keys[0..per];
        let block = per.div_ceil(P);
        for j in 1..P {
            let prev_max = part[(j - 1) * block..j * block].iter().max().unwrap();
            let cur_min = part[j * block..((j + 1) * block).min(per)].iter().min().unwrap();
            assert!(prev_max <= cur_min || (*prev_max as u64) < MAX_KEY / P as u64 * (j as u64 + 1));
        }
    }

    #[test]
    fn stagger_partitions_do_not_overlap_much() {
        let keys = generate(Dist::Stagger, N, P, 8, 7);
        let per = N / P;
        // Each partition's span is at most MAX/P wide.
        for i in 0..P {
            let part = &keys[i * per..(i + 1) * per];
            let span = *part.iter().max().unwrap() as u64 - *part.iter().min().unwrap() as u64;
            assert!(span <= MAX_KEY / P as u64, "partition {i} span {span}");
        }
    }

    #[test]
    fn zero_fraction_is_ten_percent() {
        let keys = generate(Dist::Zero, N, P, 8, 8);
        let zeros = keys.iter().filter(|&&k| k == 0).count();
        let frac = zeros as f64 / N as f64;
        assert!((0.095..0.115).contains(&frac), "zero fraction {frac}");
    }

    #[test]
    fn remote_vs_local_communication_volume() {
        // Count keys whose first-pass destination process differs from its
        // source: remote -> all of them; local -> none.
        let r = 8;
        let count_movers = |dist: Dist| {
            let keys = generate(dist, N, P, r, 9);
            let per = N / P;
            // Destination process of a key is determined by its digit rank;
            // with per-process digit ranges, digit/(2^r/P) approximates it.
            let digits_per_proc = (1usize << r) / P;
            keys.iter()
                .enumerate()
                .filter(|(i, k)| {
                    let src = i / per;
                    let dst = (**k as usize & ((1 << r) - 1)) / digits_per_proc;
                    src != dst.min(P - 1)
                })
                .count()
        };
        assert_eq!(count_movers(Dist::Local), 0);
        assert_eq!(count_movers(Dist::Remote), N);
    }
}
