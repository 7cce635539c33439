//! # ccsort-bench
//!
//! The reproduction harness for every table and figure in the evaluation
//! section of Shan & Singh (SC 1999), plus the measurement grids for the
//! simulator and the real threaded library (`simbench`, `realbench`).
//!
//! The `repro` binary (`cargo run --release -p ccsort-bench --bin repro`)
//! exposes one subcommand per paper artefact (`table1`–`table3`,
//! `fig1`–`fig10`, `all`, `quick`). Each regenerates the corresponding
//! rows/series from simulation, prints them as aligned text and can dump
//! machine-readable JSON for EXPERIMENTS.md.

pub mod figures;
pub mod hotpath;
pub mod realbench;
pub mod runner;

pub use runner::{Runner, RunnerOpts, SIZE_LABELS};
