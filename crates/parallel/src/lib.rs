//! # ccsort-parallel
//!
//! Real threaded parallel sorting for shared-memory machines — the
//! "adoptable library" counterpart of the simulated study in
//! `ccsort-algos`.
//!
//! * **The engine**: [`par_radix_sort`] (and its key+payload form
//!   [`par_radix_sort_pairs_with`]) — the fast path for `&mut [K]`
//!   sorting. It forks one OS thread per worker under
//!   `std::thread::scope` ([`steal::run_workers`];
//!   `std::thread::available_parallelism` of them by default) and hands
//!   inputs at or below [`RadixSortConfig::sequential_cutoff`] to the
//!   single sequential kernel in [`seq`].
//! * **The paper's comparison**: [`spmd`] holds its two SPMD programs,
//!   [`spmd::radix_sort`] and [`spmd::sample_sort`], each written once; the
//!   paper's three programming models are three [`spmd::Transport`]s —
//!   [`spmd::Direct`] (shared address space: the sender copies straight
//!   into the destination array), [`spmd::Message`] (staged messages over a
//!   private in-process mini-MPI) and [`spmd::Symmetric`]
//!   (receiver-initiated `get`s over a private mini-SHMEM with its debug
//!   epoch checker). [`par_sample_sort`] is the sample sort over `Direct`.
//!
//! ```
//! use ccsort_parallel::par_radix_sort;
//!
//! let mut keys: Vec<u32> = (0..10_000u32).rev().map(|x| x.wrapping_mul(2654435761)).collect();
//! par_radix_sort(&mut keys);
//! assert!(keys.windows(2).all(|w| w[0] <= w[1]));
//! ```
//!
//! All sorts work for any [`RadixKey`] (unsigned and signed fixed-width
//! integers) and are validated against `sort_unstable` by the test suite,
//! including property-based tests.

pub mod histogram;
pub mod key;
mod msg;
pub mod pairs;
pub mod plan;
pub mod radix;
pub mod seq;
pub mod shared;
pub mod spmd;
pub mod steal;
mod sym;
pub mod verify;

pub use histogram::{par_digit_histogram, par_multi_digit_histogram, PaddedCounts};
pub use key::RadixKey;
pub use pairs::{par_radix_sort_pairs_with, par_radix_sort_pairs_with_scratch, radix_sort_pairs};
pub use radix::{
    par_radix_sort, par_radix_sort_with, par_radix_sort_with_scratch, RadixSortConfig, Schedule,
    SortScratch,
};
pub use seq::{radix_sort as seq_radix_sort, radix_sort_with_scratch, DEFAULT_RADIX_BITS};
pub use shared::SharedSlice;
pub use plan::SAMPLES_PER_PART;
pub use spmd::par_sample_sort;
pub use steal::{default_workers, par_map, ChunkQueue};
pub use verify::{is_sorted, is_sorted_permutation_of, multiset_fingerprint};
