//! Acceptance tests for the pluggable interconnect (`InterconnectKind`) and
//! coherence-protocol (`ProtocolMode`) layers: neither axis may change
//! *what* the machine computes — sorted output is bit-identical across
//! every topology × protocol combination — while each must change the
//! *costs* in the direction its hardware would: the mesh's longer routes
//! raise average latency over the hypercube's, and the Dragon update mode
//! trades invalidation misses for update traffic.

use ccsort::algos::dist::generate;
use ccsort::algos::{
    load_keys, run_experiment, Algorithm, Dist, ExpConfig, ExpResult, SamplingStrategy,
};
use ccsort::machine::{
    InterconnectKind, Machine, MachineConfig, Placement, ProtocolMode, Topology,
};
use ccsort_audit::{audit_simulated, Point};

const TOPOLOGIES: [InterconnectKind; 3] =
    [InterconnectKind::Hypercube, InterconnectKind::Mesh2D, InterconnectKind::FatTree(4)];
const PROTOCOLS: [ProtocolMode; 2] = [ProtocolMode::Invalidate, ProtocolMode::DragonUpdate];

/// The headline acceptance criterion: radix sort output is bit-identical
/// across every topology × protocol combination (each equals
/// `sort_unstable` of the one input) at both the real machine's p = 64 and
/// the scaled-up p = 256, with a clean end-of-run machine audit in each —
/// the new layers change hop counts and protocol traffic, never state.
#[test]
fn radix_output_is_mode_independent_at_p64_and_p256() {
    for p in [64usize, 256] {
        let (n, r) = (1 << 12, 6u32);
        let input = generate(Dist::Gauss, n, p, r, 7);
        let mut expect = input.clone();
        expect.sort_unstable();

        for topo in TOPOLOGIES {
            for proto in PROTOCOLS {
                let cfg = MachineConfig::origin2000(p)
                    .scaled_down(256)
                    .with_interconnect(topo)
                    .with_protocol(proto);
                let mut m = Machine::new(cfg);
                let keys = load_keys(&mut m, &input);
                let out =
                    Algorithm::RadixCcsas.sort(&mut m, keys, n, r, SamplingStrategy::default());
                assert!(m.raw(out) == &expect[..], "p={p} {topo}/{proto}: output not sorted input");
                assert_eq!(
                    m.audit(),
                    Vec::<String>::new(),
                    "p={p} {topo}/{proto}: machine audit failed"
                );
            }
        }
    }
}

/// Same independence for the sample sort through the experiment driver
/// (which cross-checks the output against `sort_unstable` internally) —
/// its splitter exchange shares lines far more widely than the radix
/// permutation, so it leans on the Dragon write-to-shared transitions.
#[test]
fn sample_sort_verifies_in_every_mode_at_p64_and_p256() {
    for p in [64usize, 256] {
        for topo in TOPOLOGIES {
            for proto in PROTOCOLS {
                let res = run_experiment(
                    &ExpConfig::new(Algorithm::SampleCcsas, 1 << 12, p)
                        .radix_bits(6)
                        .dist(Dist::Stagger)
                        .seed(7)
                        .scale(256)
                        .interconnect(topo)
                        .protocol(proto),
                );
                assert!(res.verified, "p={p} {topo}/{proto}: output not a sorted permutation");
            }
        }
    }
}

/// Topology economics, end to end: at equal p the mesh's Θ(√R) routes make
/// the average remote fetch dearer than the hypercube's Θ(log R) routes,
/// so the machine-level average latency — and a remote-heavy radix sort's
/// parallel time — must both be strictly larger on the mesh.
#[test]
fn mesh_is_slower_than_hypercube_at_equal_p() {
    let p = 64usize;
    let cube = Topology::new(&MachineConfig::origin2000(p));
    let mesh =
        Topology::new(&MachineConfig::origin2000(p).with_interconnect(InterconnectKind::Mesh2D));
    assert!(
        mesh.avg_latency(0) > cube.avg_latency(0),
        "mesh avg latency {} must exceed hypercube {}",
        mesh.avg_latency(0),
        cube.avg_latency(0)
    );

    let run = |topo: InterconnectKind| {
        run_experiment(
            &ExpConfig::new(Algorithm::RadixCcsas, 1 << 12, p)
                .radix_bits(6)
                .dist(Dist::Gauss)
                .seed(0)
                .scale(256)
                .interconnect(topo),
        )
    };
    let on_cube = run(InterconnectKind::Hypercube);
    let on_mesh = run(InterconnectKind::Mesh2D);
    assert!(on_cube.verified && on_mesh.verified);
    assert!(
        on_mesh.parallel_ns > on_cube.parallel_ns,
        "remote-heavy sort must pay the longer mesh routes: mesh={} cube={}",
        on_mesh.parallel_ns,
        on_cube.parallel_ns
    );
}

/// Dragon economics at the phase level: a producer/consumer sharing phase
/// (readers establish copies, the writer re-writes the region each round)
/// charges its cost as invalidations + re-read misses under the invalidate
/// protocol, and as update multicasts — with the readers' copies surviving
/// — under Dragon. The assertion pins both directions of the shift within
/// that phase: Dragon pays update messages and suffers strictly fewer
/// remote misses; invalidate pays invalidations and zero updates.
#[test]
fn dragon_shifts_phase_cost_from_invalidation_misses_to_updates() {
    let run = |proto: ProtocolMode| {
        let cfg = MachineConfig::origin2000(4).scaled_down(256).with_protocol(proto);
        let mut m = Machine::new(cfg);
        let n = 1 << 8;
        let a = m.alloc(n, Placement::Partitioned { parts: 4 }, "shared");
        // Phase 0: every PE reads the whole array — all lines end Shared
        // everywhere.
        for pe in 0..4 {
            m.touch_run(pe, a, 0, n, false);
        }
        m.barrier();
        // Sharing phase: the writer re-writes the region, the readers
        // re-read it, repeatedly. Per round, invalidate pays one
        // invalidation multicast per line then three remote re-misses;
        // Dragon pays one update multicast per *write* and the readers
        // keep hitting.
        let sharing_phase_start: Vec<_> = (0..4).map(|pe| m.events(pe)).collect();
        for _ in 0..4 {
            m.touch_run(0, a, 0, n, true);
            m.barrier();
            for pe in 1..4 {
                m.touch_run(pe, a, 0, n, false);
            }
            m.barrier();
        }
        m.resolve_phase();
        let delta_inv: u64 =
            (0..4).map(|pe| m.events(pe).invalidations - sharing_phase_start[pe].invalidations).sum();
        let delta_upd: u64 =
            (0..4).map(|pe| m.events(pe).updates - sharing_phase_start[pe].updates).sum();
        let delta_remote: u64 =
            (0..4).map(|pe| m.events(pe).misses_remote - sharing_phase_start[pe].misses_remote).sum();
        assert_eq!(m.audit(), Vec::<String>::new(), "{proto}: machine audit failed");
        (delta_inv, delta_upd, delta_remote)
    };

    let (inv_inv, inv_upd, inv_remote) = run(ProtocolMode::Invalidate);
    let (drg_inv, drg_upd, drg_remote) = run(ProtocolMode::DragonUpdate);

    assert!(inv_inv > 0, "invalidate must invalidate in the sharing phase");
    assert_eq!(inv_upd, 0, "invalidate must never send updates");
    assert!(drg_upd > 0, "Dragon must send updates in the sharing phase");
    assert_eq!(drg_inv, 0, "Dragon must not invalidate in the sharing phase");
    assert!(
        drg_remote < inv_remote,
        "updates must spare the readers their re-read misses: dragon={drg_remote} inv={inv_remote}"
    );
}

/// Every new mode runs clean through the audit oracle — all eleven
/// simulator programs with section audits and the race detector on — at a
/// point with odd p (the ragged-grid / partial-tree shapes).
#[test]
fn new_modes_pass_the_audit_oracle() {
    for (topo, proto) in [
        (InterconnectKind::Mesh2D, ProtocolMode::Invalidate),
        (InterconnectKind::FatTree(4), ProtocolMode::Invalidate),
        (InterconnectKind::Hypercube, ProtocolMode::DragonUpdate),
        (InterconnectKind::Mesh2D, ProtocolMode::DragonUpdate),
    ] {
        let pt = Point {
            dist: Dist::Stagger,
            n: 1 << 9,
            p: 3,
            r: 6,
            seed: 0,
            scale: 256,
            dir: ccsort::machine::DirectoryMode::FullMap,
            topo,
            proto,
        };
        let errs = audit_simulated(&pt, &Algorithm::ALL);
        assert_eq!(errs, Vec::<String>::new(), "{topo}/{proto}");
    }
}

/// The new axes compose with the directory representations: an imprecise
/// directory under Dragon over-targets *updates* instead of invalidations,
/// and the sort still verifies with a clean audit.
#[test]
fn modes_compose_with_imprecise_directories() {
    use ccsort::machine::DirectoryMode;
    for dir in [DirectoryMode::LimitedPointer(2), DirectoryMode::CoarseVector(4)] {
        let res = run_experiment(
            &ExpConfig::new(Algorithm::RadixCcsas, 1 << 11, 16)
                .radix_bits(6)
                .dist(Dist::Gauss)
                .seed(0)
                .scale(256)
                .directory_mode(dir)
                .interconnect(InterconnectKind::FatTree(2))
                .protocol(ProtocolMode::DragonUpdate),
        );
        assert!(res.verified, "dir={dir}: output not a sorted permutation");
        let updates: u64 = res.events.iter().map(|e| e.updates).sum();
        assert!(updates > 0, "dir={dir}: Dragon radix run sent no updates");
    }
}

/// Whole-sort event bill: the same radix experiment under both protocols —
/// Dragon's update total replaces (most of) invalidate's invalidation
/// total, and the output stays verified either way.
#[test]
fn dragon_trades_invalidations_for_updates_end_to_end() {
    let run = |proto: ProtocolMode| {
        run_experiment(
            &ExpConfig::new(Algorithm::RadixCcsas, 1 << 11, 16)
                .radix_bits(6)
                .dist(Dist::Gauss)
                .seed(0)
                .scale(256)
                .protocol(proto),
        )
    };
    let sum = |r: &ExpResult, f: fn(&ccsort::machine::EventCounters) -> u64| {
        r.events.iter().map(f).sum::<u64>()
    };
    let inv = run(ProtocolMode::Invalidate);
    let drg = run(ProtocolMode::DragonUpdate);
    assert!(inv.verified && drg.verified);
    assert!(sum(&inv, |e| e.invalidations) > 0);
    assert_eq!(sum(&inv, |e| e.updates), 0, "invalidate protocol must not send updates");
    assert!(sum(&drg, |e| e.updates) > 0, "Dragon radix run must send updates");
    assert!(
        sum(&drg, |e| e.invalidations) < sum(&inv, |e| e.invalidations),
        "Dragon must invalidate less: dragon={} inv={}",
        sum(&drg, |e| e.invalidations),
        sum(&inv, |e| e.invalidations)
    );
}
