//! The batched scatter/gather engine must be *exact*: a schedule submitted
//! through `scatter_run`/`gather_run` must leave the machine in the same
//! observable state as the identical schedule issued element by element
//! through `write_at`/`read_at`, and the batched walk under
//! `fast_path = true` must match the per-element reference walk
//! (`fast_path = false`) bit for bit — times, per-PE breakdowns, section
//! profiles, event counters, memory contents and race verdicts. Modeled on
//! `fastpath_equivalence.rs`, which covers the streamed fast path the same
//! way and shares its experiment-level check (`equivalence/mod.rs`).

mod equivalence;

use ccsort_algos::{Algorithm, Dist};
use ccsort_machine::{
    ArrayId, EventCounters, Machine, MachineConfig, Placement, RaceReport, TimeBreakdown,
};
use equivalence::assert_equivalent;

// ---------------------------------------------------------------------
// Machine-level: batched vs per-element, fast path vs reference walk.
// ---------------------------------------------------------------------

/// Everything observable about a machine after a run. `Eq` on this struct
/// is the equivalence claim: every field must match bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    parallel_ns: f64,
    now: Vec<f64>,
    breakdowns: Vec<TimeBreakdown>,
    events: Vec<EventCounters>,
    sections: Vec<(&'static str, TimeBreakdown)>,
    data: Vec<u32>,
    shared: Vec<u32>,
    gathered: Vec<u32>,
    races: Vec<RaceReport>,
    suppressed: u64,
    coherence: Vec<String>,
}

const P: usize = 4;
const N: usize = 1 << 12;
const SHARED_N: usize = 256;
const BATCH: usize = 512;

/// One deterministic scatter/gather schedule: per-PE batches with duplicate
/// indices inside the PE's own partition (race-free), plus overlapping
/// batches on a small shared array that produce genuine cross-PE races —
/// so the race-verdict comparison covers both the all-clean bulk path and
/// the report/suppression path. `physical = false` is the ablation's
/// virtually indexed cache, which has no fast twins: the walk must fall
/// back to the reference per line rather than index the wrong set.
fn run_schedule(batched: bool, fast: bool, race: bool, physical: bool) -> Snapshot {
    let mut cfg = MachineConfig::origin2000(P);
    cfg.fast_path = fast;
    cfg.physical_cache_indexing = physical;
    let mut m = Machine::new(cfg);
    m.set_race_detector(race);
    let arr = m.alloc(N, Placement::Partitioned { parts: P }, "data");
    let shared = m.alloc(SHARED_N, Placement::Node(0), "shared");
    let chunk = N / P;

    let scatter = |m: &mut Machine, pe: usize, a: ArrayId, idxs: &[usize], vals: &[u32]| {
        if batched {
            m.scatter_run(pe, a, idxs, vals);
        } else {
            for (&idx, &v) in idxs.iter().zip(vals) {
                m.write_at(pe, a, idx, v);
            }
        }
    };
    let gather = |m: &mut Machine, pe: usize, a: ArrayId, idxs: &[usize], out: &mut [u32]| {
        if batched {
            m.gather_run(pe, a, idxs, out);
        } else {
            for (&idx, o) in idxs.iter().zip(out.iter_mut()) {
                *o = m.read_at(pe, a, idx);
            }
        }
    };

    let mut x = 0x1234_5678_9ABC_DEF0u64;
    let mut lcg = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x
    };
    let mut gathered = Vec::new();

    m.section("scatter-gather");
    let mut idxs = vec![0usize; BATCH];
    let mut vals = vec![0u32; BATCH];
    for _pass in 0..3 {
        for pe in 0..P {
            // Own-partition batch with duplicate indices: exercises
            // last-write-wins ordering and the same-line/same-page hints.
            for i in 0..BATCH {
                let r = lcg();
                idxs[i] = pe * chunk + (r >> 33) as usize % chunk;
                vals[i] = r as u32;
            }
            scatter(&mut m, pe, arr, &idxs, &vals);
            let mut out = vec![0u32; BATCH];
            gather(&mut m, pe, arr, &idxs, &mut out);
            gathered.extend_from_slice(&out);

            // Conflicting shared-array batch: every PE hits the same small
            // index set within one phase — real races under the detector.
            let sidxs: Vec<usize> = (0..32).map(|i| (i * 7) % SHARED_N).collect();
            let svals: Vec<u32> = (0..32).map(|i| (pe * 1000 + i) as u32).collect();
            scatter(&mut m, pe, shared, &sidxs, &svals);
            let mut sout = vec![0u32; 32];
            gather(&mut m, pe, shared, &sidxs, &mut sout);
            gathered.extend_from_slice(&sout);
        }
        m.barrier();
    }

    Snapshot {
        parallel_ns: m.parallel_time(),
        now: (0..P).map(|pe| m.now(pe)).collect(),
        breakdowns: (0..P).map(|pe| m.breakdown(pe)).collect(),
        events: (0..P).map(|pe| m.events(pe)).collect(),
        sections: m.section_profile(),
        data: m.raw(arr).to_vec(),
        shared: m.raw(shared).to_vec(),
        gathered,
        races: m.race_reports().to_vec(),
        suppressed: m.race_suppressed(),
        coherence: m.check_coherence(),
    }
}

/// The 4-way comparison: {batched, per-element} × {fast path, reference}
/// must all produce the identical machine state, with the race detector
/// both off and on, on physically and on virtually indexed caches.
#[test]
fn batched_schedule_matches_per_element_full_state() {
    for (race, physical) in [(false, true), (true, true), (false, false), (true, false)] {
        let reference = run_schedule(false, false, race, physical);
        if race {
            assert!(!reference.races.is_empty(), "schedule must provoke races");
        }
        for (batched, fast) in [(false, true), (true, false), (true, true)] {
            let got = run_schedule(batched, fast, race, physical);
            assert_eq!(
                got, reference,
                "state diverged: batched={batched} fast={fast} race={race} physical={physical}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Experiment-level: the real sorting programs, which now submit their
// permutation writes and sample gathers through the batched engine.
// ---------------------------------------------------------------------

/// Scatter-heavy programs: all five radix permutation call sites plus the
/// sample sorts (batched sampling gathers + `local_radix_sort` scatters).
const SCATTER_HEAVY: [Algorithm; 6] = [
    Algorithm::RadixCcsas,
    Algorithm::RadixCcsasNew,
    Algorithm::RadixShmem,
    Algorithm::RadixMpiDirect,
    Algorithm::RadixMpiCoalesced,
    Algorithm::SampleCcsas,
];

#[test]
fn batched_paths_exact_across_programs() {
    for alg in SCATTER_HEAVY {
        assert_equivalent(alg, 1 << 13, 8, 8, Dist::Gauss, false);
    }
}

#[test]
fn batched_paths_exact_with_detector_on() {
    for alg in [Algorithm::RadixCcsas, Algorithm::RadixShmem, Algorithm::SampleCcsas] {
        assert_equivalent(alg, 1 << 13, 8, 8, Dist::Gauss, true);
    }
}

#[test]
fn batched_paths_exact_across_distributions() {
    // Remote/local stress the TLB and the remote-write arms; zero stresses
    // duplicate destinations.
    for dist in [Dist::Random, Dist::Zero, Dist::Remote, Dist::Local, Dist::Stagger] {
        assert_equivalent(Algorithm::RadixCcsas, 1 << 13, 8, 8, dist, false);
    }
}

#[test]
fn batched_paths_exact_across_processor_counts() {
    for p in [1, 2, 4, 16] {
        assert_equivalent(Algorithm::RadixCcsas, 1 << 13, p, 8, Dist::Gauss, false);
        assert_equivalent(Algorithm::SampleCcsas, 1 << 13, p, 8, Dist::Gauss, p == 4);
    }
}
