//! Differential oracle: one parameter point, every implementation.
//!
//! A point `(Dist, n, p, r, seed)` is pushed through all eleven simulator
//! programs (with the machine-invariant audit enabled, so protocol bugs
//! panic at the phase boundary where they appear) and through the real
//! threaded sorts of `ccsort-parallel`. Every output is cross-checked
//! against `sort_unstable` on the same input and, transitively, against
//! every other implementation; the threaded outputs are additionally
//! compared pairwise so a disagreement names both parties. Each violation
//! message starts with a one-line replay command — the minimized failure
//! artifact.

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

impl Point {
    /// Spell a [`ProtocolMode`] as a `--proto` flag value.
    pub fn proto_flag(proto: ProtocolMode) -> String {
        match proto {
            ProtocolMode::Invalidate => "inv".to_string(),
            ProtocolMode::DragonUpdate => "upd".to_string(),
        }
    }

    /// Parse a `--proto` flag value (`inv`, `upd`).
    pub fn parse_proto_flag(s: &str) -> Result<ProtocolMode, String> {
        match s {
            "inv" => Ok(ProtocolMode::Invalidate),
            "upd" => Ok(ProtocolMode::DragonUpdate),
            _ => Err(format!("unknown protocol {s:?}; expected inv or upd")),
        }
    }

    /// The replayable failure artifact: a command that re-runs exactly this
    /// point (optionally restricted to one simulator program).
    pub fn replay_command(&self, alg: Option<Algorithm>) -> String {
        let mut cmd = format!(
            "cargo run -p ccsort-audit -- replay --alg {} --dist {} --n {} --p {} --r {} --seed {} --scale {}",
            alg.map(|a| a.name()).unwrap_or("all"),
            self.dist.name(),
            self.n,
            self.p,
            self.r,
            self.seed,
            self.scale
        );
        if self.proto != ProtocolMode::Invalidate {
            cmd.push_str(&format!(" --proto {}", Point::proto_flag(self.proto)));
        }
        cmd
    }

    fn fail(&self, alg: Option<Algorithm>, msg: &str) -> String {
        format!("[{}] {msg}", self.replay_command(alg))
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
/// with its replay command), and the end-of-run audit's findings are
/// reported individually. `verified == false` — the output not being a
/// sorted permutation of the input — is the differential failure: every
/// program is checked against `sort_unstable` on the same input, so any two
/// verified programs agree with each other.
pub fn audit_simulated(pt: &Point, algs: &[Algorithm]) -> Vec<String> {
    let mut errs = Vec::new();
    for &alg in algs {
        let cfg = pt.config(alg);
        match catch_unwind(AssertUnwindSafe(|| run_experiment_audited(&cfg))) {
            Ok((res, violations)) => {
                if !res.verified {
                    errs.push(pt.fail(
                        Some(alg),
                        "output is not a sorted permutation of the input",
                    ));
                }
                for v in violations {
                    errs.push(pt.fail(Some(alg), &format!("machine audit: {v}")));
                }
            }
            Err(payload) => {
                errs.push(pt.fail(Some(alg), &format!("panicked: {}", panic_msg(&*payload))));
            }
        }
    }
    errs
}

/// The real-thread half of the oracle: the engine and both SPMD sorts over
/// all three transports run on the same generated input; each output is
/// checked against `sort_unstable` and all outputs are compared pairwise.
pub fn audit_threaded(pt: &Point) -> Vec<String> {
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
                    errs.push(pt.fail(None, &format!("{name} disagrees with sort_unstable")));
                }
                outputs.push((name, out));
            }
            Err(payload) => {
                errs.push(pt.fail(None, &format!("{name} panicked: {}", panic_msg(&*payload))));
            }
        }
    }
    for i in 0..outputs.len() {
        for j in i + 1..outputs.len() {
            if outputs[i].1 != outputs[j].1 {
                errs.push(pt.fail(
                    None,
                    &format!("{} and {} disagree with each other", outputs[i].0, outputs[j].0),
                ));
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_points_pass_the_full_oracle() {
        // The two cases `tests/regression_seeds.rs` pins, end to end.
        for &(n, p) in &[(1usize << 10, 3usize), (64, 7)] {
            let pt = Point {
                dist: Dist::Stagger,
                n,
                p,
                r: 6,
                seed: 0,
                scale: 256,
                proto: ProtocolMode::Invalidate,
            };
            let errs = audit_point(&pt, &Algorithm::ALL);
            assert!(errs.is_empty(), "{errs:?}");
        }
    }

    #[test]
    fn replay_command_is_parseable_shape() {
        let mut pt = Point {
            dist: Dist::Stagger,
            n: 1024,
            p: 3,
            r: 6,
            seed: 0,
            scale: 256,
            proto: ProtocolMode::Invalidate,
        };
        let cmd = pt.replay_command(Some(Algorithm::RadixCcsas));
        assert!(cmd.contains("--alg radix-ccsas"));
        assert!(cmd.contains("--dist stagger"));
        assert!(cmd.contains("--n 1024"));
        assert!(cmd.contains("--p 3"));
        // Invalidate is the default and stays implicit; Dragon round-trips
        // through --proto.
        assert!(!cmd.contains("--proto"), "{cmd}");
        pt.proto = ProtocolMode::DragonUpdate;
        let cmd = pt.replay_command(None);
        assert!(cmd.contains("--proto upd"), "{cmd}");
    }

    #[test]
    fn proto_flags_round_trip() {
        for proto in [ProtocolMode::Invalidate, ProtocolMode::DragonUpdate] {
            assert_eq!(Point::parse_proto_flag(&Point::proto_flag(proto)), Ok(proto));
        }
    }

    /// Every malformed spelling is rejected with a message naming what was
    /// expected: the CLI names the offending field on error.
    #[test]
    fn malformed_proto_flags_are_rejected() {
        for bad in ["invalidate", "dragon", "update", "INV", ""] {
            let err = Point::parse_proto_flag(bad).unwrap_err();
            assert!(err.contains("protocol"), "{bad:?} -> {err}");
        }
    }
}
