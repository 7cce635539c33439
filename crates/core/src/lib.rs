//! # ccsort-algos
//!
//! The sorting programs of Shan & Singh, *Parallel Sorting on
//! Cache-coherent DSM Multiprocessors* (SC 1999), implemented against the
//! simulated Origin 2000 (`ccsort-machine`) through the three programming
//! model runtimes (a private `runtime` module beside the communicators):
//!
//! * `radix` — the parallel radix sort, written once; seven [`Algorithm`]
//!   rows pair it with a communicator.
//! * `sample` — the parallel sample sort, written once; four rows, with
//!   configurable sampling strategies ([`SamplingStrategy`]: the paper's
//!   128 regular samples per process by default) and two local radix sorts.
//! * [`seq`] — the uniprocessor radix sort used as the speedup baseline for
//!   *both* algorithms (Table 1).
//! * [`dist`] — the eight key distributions of Section 3.3.
//! * [`driver`] — [`Algorithm`], the one table of which skeleton runs over
//!   which communicator, and the one-call experiment runner producing
//!   verified, fully deterministic results with per-processor
//!   BUSY/LMEM/RMEM/SYNC breakdowns.
//! * [`predict`] — the closed-form performance-prediction formula the
//!   paper names as future work, checked against the simulator.
//!
//! The MPI and SHMEM radix permutes and every sample sort take their
//! exchange plans — radix pieces, sample positions, splitters, cuts and
//! regions — from `ccsort_parallel::plan`, the threaded programs' own.
//!
//! ```
//! use ccsort_algos::{run_experiment, Algorithm, ExpConfig};
//!
//! let res = run_experiment(&ExpConfig::new(Algorithm::RadixShmem, 4096, 4).scale(64));
//! assert!(res.verified);
//! assert!(res.parallel_ns > 0.0);
//! ```

mod comm;
pub mod common;
pub mod costs;
#[cfg(test)]
mod cross_world;
pub mod dist;
pub mod driver;
pub mod predict;
mod radix;
mod runtime;
mod sample;
pub mod seq;

pub use ccsort_machine::ProtocolMode;
pub use dist::{stagger_window, Dist, KEY_BITS, MAX_KEY};
pub use driver::{
    load_keys, run_experiment, run_experiment_audited, run_sequential_baseline, Algorithm,
    ExpConfig, ExpResult,
};
pub use sample::SamplingStrategy;
