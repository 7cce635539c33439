//! # ccsort-benchmark
//!
//! The repo's one benchmark: six long-run workloads over the three stacks
//! (radix engine; service → batcher → engine; repro → skeleton →
//! `Communicator` → `Machine`), each measured from outside by timing calls
//! into public functions. One process runs one workload once and prints
//! every metric by name with its unit; see `README.md` beside this crate for
//! the tables and the timing discipline.

pub mod aa;
pub mod check;
pub mod cli;
pub mod engine;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod procfs;
pub mod runner;
pub mod service;
pub mod sim;
pub mod stats;
pub mod trace;
