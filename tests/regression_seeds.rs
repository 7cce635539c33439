//! The two shrunk counterexamples the simulator properties
//! (`tests/prop_simulator.rs`) once found, pinned as explicit
//! configurations.

use ccsort::algos::dist::{generate, Dist, MAX_KEY};
use ccsort::algos::{run_experiment, Algorithm, ExpConfig};

/// `any_experiment_verifies_and_accounts_time` at alg = RadixCcsas, dist =
/// Stagger, n = 2^10, p = 3, r = 6, seed = 0.
#[test]
fn regression_radix_ccsas_stagger_p3() {
    let cfg = ExpConfig::new(Algorithm::RadixCcsas, 1 << 10, 3)
        .radix_bits(6)
        .dist(Dist::Stagger)
        .seed(0)
        .scale(256);
    let res = run_experiment(&cfg);
    assert!(res.verified, "{cfg:?} produced unsorted output");
    assert!(res.parallel_ns > 0.0);
    assert_eq!(res.per_pe.len(), 3);
    for b in &res.per_pe {
        assert!(b.busy >= 0.0 && b.lmem >= 0.0 && b.rmem >= 0.0 && b.sync >= 0.0);
        assert!(
            b.total() <= res.parallel_ns * (1.0 + 1e-9),
            "bucket total {} exceeds parallel time {}",
            b.total(),
            res.parallel_ns
        );
    }
}

/// `distributions_stay_in_range_and_are_deterministic` at dist = Stagger,
/// n = 64, p = 7, r = 6, seed = 0.
#[test]
fn regression_stagger_n64_p7() {
    let keys = generate(Dist::Stagger, 64, 7, 6, 0);
    assert_eq!(keys.len(), 64);
    assert!(keys.iter().all(|&k| (k as u64) < MAX_KEY));
    assert_eq!(generate(Dist::Stagger, 64, 7, 6, 0), keys);
}

/// The same two configurations swept across every algorithm: the simulator
/// must produce a verified sorted permutation for Stagger at odd `p`.
#[test]
fn stagger_odd_p_all_algorithms_verify() {
    for &alg in Algorithm::ALL.iter() {
        for &(n, p) in &[(1usize << 10, 3usize), (1 << 10, 7)] {
            let cfg = ExpConfig::new(alg, n, p)
                .radix_bits(6)
                .dist(Dist::Stagger)
                .seed(0)
                .scale(256);
            let res = run_experiment(&cfg);
            assert!(res.verified, "{alg:?} n={n} p={p} produced unsorted output");
        }
    }
}
