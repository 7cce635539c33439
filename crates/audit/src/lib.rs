//! # ccsort-audit
//!
//! Differential-conformance and invariant-auditing layer for the whole
//! workspace. Three parts:
//!
//! * [`oracle`] — the differential oracle: runs one `(Dist, n, p, r, seed)`
//!   point through every applicable implementation (all eleven simulator
//!   programs via `run_experiment_audited`, plus the real threaded sorts in
//!   `ccsort-parallel`), cross-checks every output against `sort_unstable`
//!   and against each other, and collects machine-invariant violations.
//!   Every failure message names the program and prints the point as a
//!   `Point { .. }` literal that a one-line `audit_point` test replays.
//! * [`distcheck`] — the distribution validator: asserts each [`Dist`]'s
//!   documented shape properties (window permutation and coverage for
//!   `Stagger`, per-process digit locality for `Local`/`Remote`, block
//!   structure for `Bucket`, the zero fraction for `Zero`, evenness for
//!   `Half`) and that no slot is ever silently left zero-filled when
//!   `p ∤ n`.
//! * the machine-invariant auditor itself lives in `ccsort-machine`
//!   (`Machine::audit` and the opt-in per-`section()` audit mode); the
//!   oracle turns it on for every run it makes.
//!
//! The root package's `tests/conformance.rs` runs the oracle and the
//! validator over the conformance grid on every `cargo test`.
//!
//! [`Dist`]: ccsort_algos::Dist

pub mod distcheck;
pub mod oracle;

pub use distcheck::validate_dist;
pub use oracle::{audit_point, audit_simulated, Point};
