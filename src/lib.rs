//! # ccsort
//!
//! Parallel sorting on cache-coherent DSM multiprocessors — a Rust
//! reproduction of Shan & Singh, *Parallel Sorting on Cache-coherent DSM
//! Multiprocessors* (SC 1999), plus a real threaded sorting library.
//!
//! The workspace has two halves:
//!
//! * **The study** ([`machine`], [`models`], [`algos`]): a deterministic
//!   execution-driven simulator of the paper's 64-processor SGI Origin
//!   2000 (caches, TLB, directory coherence protocol, hypercube
//!   interconnect, controller contention), the three programming-model
//!   runtimes (CC-SAS, MPI staged/direct, SHMEM), and the paper's parallel
//!   radix and sample sorting programs running on top — really sorting,
//!   with per-processor BUSY/LMEM/RMEM/SYNC time breakdowns. The `repro`
//!   binary in `ccsort-bench` regenerates every table and figure.
//! * **The library** ([`parallel`]): thread-parallel radix and sample
//!   sorts for real workloads (data-parallel on scoped threads, plus
//!   in-process message-passing and symmetric-heap runtimes), and
//!   [`service`]: a long-running sorting service that coalesces many small
//!   concurrent requests into shared batches — the paper's
//!   message-coalescing lesson applied at the request level.
//!
//! ## Quick start: sort data on this machine
//!
//! ```
//! use ccsort::parallel::par_radix_sort;
//!
//! let mut keys: Vec<u64> = (0..50_000u64).map(|x| x.wrapping_mul(0x9E3779B97F4A7C15)).collect();
//! par_radix_sort(&mut keys);
//! assert!(keys.windows(2).all(|w| w[0] <= w[1]));
//! ```
//!
//! ## Quick start: run one of the paper's experiments
//!
//! ```
//! use ccsort::algos::{run_experiment, Algorithm, ExpConfig};
//!
//! // Radix sort under SHMEM, 8 simulated processors, 1/64-scale machine.
//! let res = run_experiment(&ExpConfig::new(Algorithm::RadixShmem, 1 << 14, 8).scale(64));
//! assert!(res.verified);
//! println!("parallel time: {:.2} ms", res.parallel_ns / 1e6);
//! println!("mean breakdown: {:?}", res.mean_breakdown());
//! ```

pub use ccsort_algos as algos;
pub use ccsort_machine as machine;
pub use ccsort_models as models;
pub use ccsort_parallel as parallel;
pub use ccsort_service as service;

/// The crate's own sanity check: the simulated study and the real library
/// agree on what "sorted" means.
pub fn verify_sorted<K: Ord>(keys: &[K]) -> bool {
    keys.windows(2).all(|w| w[0] <= w[1])
}
