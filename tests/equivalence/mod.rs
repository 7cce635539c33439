//! The one fast-versus-reference experiment check shared by
//! `fastpath_equivalence.rs` and `batched_equivalence.rs`.

use ccsort_algos::{dist::generate, load_keys, Algorithm, Dist, SamplingStrategy};
use ccsort_machine::{EventCounters, Machine, MachineConfig, RaceReport, TimeBreakdown};

/// Everything a sort leaves observable. `Eq` on this struct is the
/// equivalence claim: every field must match bit for bit.
#[derive(Debug, PartialEq)]
struct Observed {
    parallel_ns: f64,
    per_pe: Vec<TimeBreakdown>,
    events: Vec<EventCounters>,
    sections: Vec<(&'static str, TimeBreakdown)>,
    output: Vec<u32>,
    races: Vec<RaceReport>,
    suppressed: u64,
}

/// Sort `dist` keys with `alg` on the 1/64-scale machine twice — once with
/// `MachineConfig::fast_path` on, once on the per-line reference walk —
/// with the race detector on in both runs when `race` is set, and require
/// the same time, per-PE breakdowns, events, sections, output and race
/// verdicts.
pub fn assert_equivalent(alg: Algorithm, n: usize, p: usize, r: u32, dist: Dist, race: bool) {
    let input = generate(dist, n, p, r, 99991);
    let run = |fast: bool| {
        let mut cfg = MachineConfig::origin2000(p).scaled_down(64);
        cfg.fast_path = fast;
        let mut m = Machine::new(cfg);
        m.set_race_detector(race);
        let keys = load_keys(&mut m, &input);
        let out = alg.sort(&mut m, keys, n, r, SamplingStrategy::default());
        Observed {
            parallel_ns: m.parallel_time(),
            per_pe: (0..p).map(|pe| m.breakdown(pe)).collect(),
            events: (0..p).map(|pe| m.events(pe)).collect(),
            sections: m.section_profile(),
            output: m.raw(out).to_vec(),
            races: m.race_reports().to_vec(),
            suppressed: m.race_suppressed(),
        }
    };
    let fast = run(true);
    let mut expect = input.clone();
    expect.sort_unstable();
    let ctx = format!("{alg:?} n={n} p={p} r={r} {dist:?} race={race}");
    assert_eq!(fast.output, expect, "output not sorted: {ctx}");
    assert_eq!(fast, run(false), "fast path diverged from the reference walk: {ctx}");
}
