//! The happens-before race detector must catch deliberately planted
//! missing-barrier bugs — the detector's own acceptance test, the analogue
//! of `machine_audit.rs` for synchronization instead of coherence.
//!
//! The simulator runs bulk-synchronously, so a program missing a barrier
//! still produces sorted output under the deterministic schedule — the bug
//! is invisible to differential testing. `inject_missing_barrier` plants
//! exactly that bug (one barrier keeps its timing but loses its
//! happens-before edge) and the detector must fire, for every one of the
//! paper's eleven programs; conversely the unmodified programs must be
//! race-free across a quick parameter matrix.

use ccsort::algos::{run_experiment_audited, Algorithm, Dist, ExpConfig};
use ccsort::machine::{Machine, MachineConfig, Placement, RaceKind};
use ccsort_audit::{audit_simulated, Point};

fn machine(p: usize) -> Machine {
    let mut m = Machine::new(MachineConfig::origin2000(p).scaled_down(256));
    m.set_race_detector(true);
    m
}

#[test]
fn machine_paths_report_unordered_conflicts() {
    let mut m = machine(2);
    let a = m.alloc(256, Placement::Node(0), "shared");
    m.write_at(0, a, 3, 7);
    m.read_at(1, a, 3);
    let reports = m.race_reports();
    assert_eq!(reports.len(), 1, "{reports:?}");
    assert_eq!(reports[0].kind, RaceKind::WriteThenRead);
    assert_eq!((reports[0].prev_pe, reports[0].pe), (0, 1));
    let msg = reports[0].to_string();
    assert!(msg.contains("shared[3]"), "report must name the element: {msg}");
}

#[test]
fn barrier_separated_conflicts_are_clean() {
    let mut m = machine(2);
    let a = m.alloc(256, Placement::Node(0), "shared");
    m.write_at(0, a, 3, 7);
    m.barrier();
    assert_eq!(m.read_at(1, a, 3), 7);
    // And a bulk transfer over data someone else wrote, barrier-separated.
    let b = m.alloc(256, Placement::Node(0), "dst");
    m.barrier();
    m.dma_copy(1, a, 0, b, 0, 64, true);
    assert_eq!(m.race_reports(), &[], "suppressed={}", m.race_suppressed());
}

#[test]
fn wait_until_is_not_a_happens_before_edge() {
    // `wait_until` orders virtual time, not memory: a program using it as
    // its only "synchronization" for a data handoff is racy and the
    // detector must say so.
    let mut m = machine(2);
    let a = m.alloc(256, Placement::Node(0), "flagged");
    m.write_at(0, a, 0, 1);
    let t = m.now(0);
    m.wait_until(1, t + 100.0);
    m.read_at(1, a, 0);
    assert_eq!(m.race_reports().len(), 1);
}

/// The core acceptance requirement: for every one of the eleven simulator
/// programs, removing some barrier's happens-before edge produces a
/// detected race — while the output stays a sorted permutation (the
/// schedule is unchanged), which is exactly why differential testing alone
/// cannot catch this bug class.
#[test]
fn detector_fires_on_injected_missing_barrier_for_every_algorithm() {
    for alg in Algorithm::ALL {
        let mut fired = false;
        for nth in 1..=40 {
            let cfg = ExpConfig::new(alg, 1 << 10, 4)
                .radix_bits(6)
                .dist(Dist::Gauss)
                .seed(0)
                .scale(256)
                .inject_missing_barrier(nth);
            let (res, violations) = run_experiment_audited(&cfg);
            assert!(
                res.verified,
                "{}: injection must not perturb the run itself (barrier {nth})",
                alg.name()
            );
            if violations.iter().any(|v| v.contains("data race")) {
                fired = true;
                break;
            }
        }
        assert!(
            fired,
            "{}: detector silent though a barrier edge was removed (tried 1..=40)",
            alg.name()
        );
    }
}

/// Zero false positives: the unmodified programs across a quick matrix of
/// distributions and processor counts (including odd p) are race-free.
#[test]
fn quick_matrix_is_race_free() {
    for dist in [Dist::Gauss, Dist::Stagger, Dist::Remote, Dist::Zero] {
        for p in [3usize, 4] {
            let pt = Point {
                dist,
                n: 1 << 9,
                p,
                r: 6,
                seed: 0,
                scale: 256,
                proto: ccsort::machine::ProtocolMode::Invalidate,
            };
            let errs = audit_simulated(&pt, &Algorithm::ALL);
            assert_eq!(errs, Vec::<String>::new());
        }
    }
}
