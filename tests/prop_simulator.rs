//! Property tests for the simulator stack: any (algorithm, size, processor
//! count, radix, distribution) combination sorts correctly, time
//! accounting is positive and consistent, and the machine's invariants
//! hold. Every generated case runs through the audit layer — the machine
//! invariant auditor (`Machine::audit`) and the distribution validator
//! (`ccsort_audit::validate_dist`) — not just output verification. A
//! failing case names its seed; `ccsort_rng::check_case` replays it.

use ccsort::algos::dist::{generate, Dist, MAX_KEY};
use ccsort::algos::{load_keys, run_experiment_audited, Algorithm, ExpConfig, SamplingStrategy};
use ccsort::machine::{Machine, MachineConfig, Placement};
use ccsort_audit::validate_dist;
use ccsort_rng::{check_cases, SplitMix64};

fn pick<T: Copy>(rng: &mut SplitMix64, from: &[T]) -> T {
    from[rng.random_range(0..from.len())]
}

/// `1..max_len` draws of `one`.
fn ops_of<T>(rng: &mut SplitMix64, max_len: usize, one: impl Fn(&mut SplitMix64) -> T) -> Vec<T> {
    (0..rng.random_range(1..max_len)).map(|_| one(rng)).collect()
}

#[test]
fn any_experiment_verifies_and_accounts_time() {
    let case = |rng: &mut SplitMix64| {
        let (alg, dist) = (pick(rng, &Algorithm::ALL), pick(rng, &Dist::ALL));
        let n = 1 << rng.random_range(10usize..13);
        ExpConfig::new(alg, n, rng.random_range(1usize..10))
            .radix_bits(rng.random_range(6u32..=11))
            .dist(dist)
            .seed(rng.random_range(0u64..1000))
            .scale(256)
    };
    check_cases(24, case, |cfg| {
        let (res, violations) = run_experiment_audited(cfg);
        assert!(violations.is_empty(), "machine audit: {violations:?}");
        assert!(res.verified, "unsorted output");
        assert!(res.parallel_ns > 0.0);
        assert_eq!(res.per_pe.len(), cfg.p);
        // Every processor's clock equals the sum of its buckets.
        for b in &res.per_pe {
            assert!(b.busy >= 0.0 && b.lmem >= 0.0 && b.rmem >= 0.0 && b.sync >= 0.0);
            assert!(b.total() <= res.parallel_ns * (1.0 + 1e-9));
        }
    });
}

#[test]
fn distributions_stay_in_range_and_are_deterministic() {
    let case = |rng: &mut SplitMix64| {
        let (dist, n, p) = (pick(rng, &Dist::ALL), rng.random_range(64usize..4096), rng.random_range(1usize..16));
        (dist, n, p, rng.random_range(6u32..=12), rng.random_range(0u64..1000))
    };
    check_cases(24, case, |&(dist, n, p, r, seed)| {
        let keys = generate(dist, n, p, r, seed);
        assert_eq!(keys.len(), n);
        assert!(keys.iter().all(|&k| (k as u64) < MAX_KEY));
        assert_eq!(generate(dist, n, p, r, seed), keys);
        // Shape properties: window permutations, digit locality, coverage.
        let errs = validate_dist(dist, n, p, r, seed);
        assert!(errs.is_empty(), "distribution validator: {errs:?}");
    });
}

#[test]
fn machine_reads_return_last_write() {
    let case = |rng: &mut SplitMix64| {
        let writes = ops_of(rng, 200, |rng| (rng.random_range(0usize..512), rng.random::<u32>()));
        (writes, rng.random_range(1usize..5))
    };
    check_cases(24, case, |(writes, p)| {
        let p = *p;
        let mut m = Machine::new(MachineConfig::origin2000(p).scaled_down(256));
        let arr = m.alloc(512, Placement::Partitioned { parts: p }, "a");
        let mut shadow = vec![0u32; 512];
        for (i, &(idx, v)) in writes.iter().enumerate() {
            m.write_at(i % p, arr, idx, v);
            shadow[idx] = v;
        }
        for (idx, &v) in shadow.iter().enumerate() {
            assert_eq!(m.read_at(idx % p, arr, idx), v);
        }
    });
}

#[test]
fn machine_time_is_monotone_per_processor() {
    let case = |rng: &mut SplitMix64| ops_of(rng, 300, |rng| (rng.random_range(0usize..256), rng.random::<bool>()));
    check_cases(24, case, |ops| {
        let mut m = Machine::new(MachineConfig::origin2000(4).scaled_down(256));
        let arr = m.alloc(256, Placement::Interleaved, "a");
        let mut last = [0.0f64; 4];
        for (i, &(idx, write)) in ops.iter().enumerate() {
            let pe = i % 4;
            if write {
                m.write_at(pe, arr, idx, i as u32);
            } else {
                m.read_at(pe, arr, idx);
            }
            assert!(m.now(pe) >= last[pe]);
            last[pe] = m.now(pe);
        }
        m.barrier();
        let t = m.now(0);
        for pe in 0..4 {
            assert!((m.now(pe) - t).abs() < 1e-9, "barrier must align clocks");
        }
    });
}

fn assert_audit_clean(m: &Machine) {
    let errs = m.audit();
    assert!(errs.is_empty(), "audit violations: {:?}", &errs[..errs.len().min(5)]);
}

/// After any random access sequence, the caches and the directory must
/// agree on every line's ownership (the coherence invariants listed on
/// `Machine::check_coherence`).
#[test]
fn coherence_invariants_hold_after_random_accesses() {
    let case = |rng: &mut SplitMix64| {
        ops_of(rng, 400, |rng| (rng.random_range(0usize..4), rng.random_range(0usize..512), rng.random::<bool>()))
    };
    check_cases(16, case, |ops| {
        let mut m = Machine::new(MachineConfig::origin2000(4).scaled_down(256));
        let arr = m.alloc(512, Placement::Partitioned { parts: 4 }, "a");
        for &(pe, idx, write) in ops {
            if write {
                m.write_at(pe, arr, idx, idx as u32);
            } else {
                m.read_at(pe, arr, idx);
            }
        }
        assert_audit_clean(&m);
    });
}

/// DMA transfers must also leave the protocol state consistent.
#[test]
fn coherence_invariants_hold_after_dma() {
    let case = |rng: &mut SplitMix64| {
        ops_of(rng, 60, |rng| {
            let (pe, off) = (rng.random_range(0usize..4), rng.random_range(0usize..448));
            (pe, off, rng.random_range(1usize..64), rng.random::<bool>())
        })
    };
    check_cases(16, case, |ops| {
        let mut m = Machine::new(MachineConfig::origin2000(4).scaled_down(256));
        let a = m.alloc(512, Placement::Partitioned { parts: 4 }, "a");
        let b = m.alloc(512, Placement::Partitioned { parts: 4 }, "b");
        for &(pe, off, len, install) in ops {
            let len = len.min(512 - off);
            m.dma_copy(pe, a, off, b, off, len, install);
            m.read_at(pe, a, off); // interleave coherent traffic
            m.write_at((pe + 1) % 4, b, off, 1);
        }
        assert_audit_clean(&m);
    });
}

/// A full simulated sort leaves a consistent machine behind.
#[test]
fn coherence_invariants_hold_after_sorts() {
    check_cases(16, |rng| (pick(rng, &Algorithm::ALL), rng.random_range(0u64..100)), |&(alg, seed)| {
        let n = 1 << 11;
        let p = 4;
        let mut m = Machine::new(MachineConfig::origin2000(p).scaled_down(256));
        let keys = load_keys(&mut m, &generate(Dist::Gauss, n, p, 8, seed));
        alg.sort(&mut m, keys, n, 8, SamplingStrategy::default());
        assert_audit_clean(&m);
    });
}
