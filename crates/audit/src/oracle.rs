//! Differential oracle: one parameter point, every implementation.
//!
//! A point `(Dist, n, p, r, seed)` is pushed through all eleven simulator
//! programs (with the machine-invariant audit enabled, so protocol bugs
//! panic at the phase boundary where they appear) and through the real
//! threaded sorts of `ccsort-parallel`. Every output is cross-checked
//! against `sort_unstable` on the same input and, transitively, against
//! every other implementation; the threaded outputs are additionally
//! compared pairwise so a disagreement names both parties. Each violation
//! message names the failing program (a simulated one as its `Algorithm`
//! variant) and prints the point as a `Point { .. }` literal — the
//! minimized failure artifact.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ccsort_algos::dist::generate;
use ccsort_algos::{run_experiment_audited, Algorithm, Dist, ExpConfig, ProtocolMode};
use ccsort_parallel::spmd::{programs, Sort};
use ccsort_parallel::{par_radix_sort_with, RadixSortConfig};

/// One parameter point of the differential oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    pub dist: Dist,
    pub n: usize,
    pub p: usize,
    pub r: u32,
    pub seed: u64,
    /// Machine scale denominator for the simulator runs.
    pub scale: usize,
    /// Coherence protocol for the simulator runs (the threaded sorts have
    /// no directory; they ignore it).
    pub proto: ProtocolMode,
}

/// Prints the point as the `Point { .. }` literal that built it, so a
/// failure line pastes into a one-line `audit_point` test.
impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Point { dist, n, p, r, seed, scale, proto } = self;
        write!(
            f,
            "Point {{ dist: Dist::{dist:?}, n: {n}, p: {p}, r: {r}, seed: {seed}, \
             scale: {scale}, proto: ProtocolMode::{proto:?} }}"
        )
    }
}

impl Point {
    fn fail(&self, program: &str, msg: &str) -> String {
        format!("{program} at {self}: {msg}")
    }

    fn config(&self, alg: Algorithm) -> ExpConfig {
        ExpConfig::new(alg, self.n, self.p)
            .radix_bits(self.r)
            .dist(self.dist)
            .seed(self.seed)
            .scale(self.scale)
            .protocol(self.proto)
    }
}

fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Run the full differential oracle on one point: the given simulator
/// programs (audited) plus every threaded sort. Returns all violations.
pub fn audit_point(pt: &Point, algs: &[Algorithm]) -> Vec<String> {
    let mut errs = audit_simulated(pt, algs);
    errs.extend(audit_threaded(pt));
    errs
}

/// The simulator half of the oracle. Each program runs with the per-section
/// machine audit on; a mid-run invariant violation panics (and is reported
/// with its point), and the end-of-run audit's findings are reported
/// individually. `verified == false` — the output not being a
/// sorted permutation of the input — is the differential failure: every
/// program is checked against `sort_unstable` on the same input, so any two
/// verified programs agree with each other.
pub fn audit_simulated(pt: &Point, algs: &[Algorithm]) -> Vec<String> {
    let mut errs = Vec::new();
    for &alg in algs {
        let cfg = pt.config(alg);
        let program = format!("Algorithm::{alg:?}");
        match catch_unwind(AssertUnwindSafe(|| run_experiment_audited(&cfg))) {
            Ok((res, violations)) => {
                if !res.verified {
                    errs.push(pt.fail(&program, "output is not a sorted permutation of the input"));
                }
                for v in violations {
                    errs.push(pt.fail(&program, &format!("machine audit: {v}")));
                }
            }
            Err(payload) => {
                errs.push(pt.fail(&program, &format!("panicked: {}", panic_msg(&*payload))));
            }
        }
    }
    errs
}

/// The real-thread half of the oracle: the engine and both SPMD sorts over
/// all three transports run on the same generated input; each output is
/// checked against `sort_unstable` and all outputs are compared pairwise.
fn audit_threaded(pt: &Point) -> Vec<String> {
    let mut errs = Vec::new();
    let input = generate(pt.dist, pt.n, pt.p, pt.r, pt.seed);
    let mut expect = input.clone();
    expect.sort_unstable();

    let (p, r) = (pt.p, pt.r);
    let engine: Sort<u32> = |v, p, r| {
        par_radix_sort_with(v, &RadixSortConfig { radix_bits: r, chunks: Some(p), sequential_cutoff: 0 })
    };
    let runs = [("par-radix", engine)].into_iter().chain(programs());

    let mut outputs: Vec<(&str, Vec<u32>)> = Vec::new();
    for (name, sort) in runs {
        let mut v = input.clone();
        match catch_unwind(AssertUnwindSafe(|| {
            sort(&mut v, p, r);
            v
        })) {
            Ok(out) => {
                if out != expect {
                    errs.push(pt.fail(name, "disagrees with sort_unstable"));
                }
                outputs.push((name, out));
            }
            Err(payload) => {
                errs.push(pt.fail(name, &format!("panicked: {}", panic_msg(&*payload))));
            }
        }
    }
    for i in 0..outputs.len() {
        for j in i + 1..outputs.len() {
            if outputs[i].1 != outputs[j].1 {
                errs.push(pt.fail(outputs[i].0, &format!("disagrees with {}", outputs[j].0)));
            }
        }
    }
    errs
}
