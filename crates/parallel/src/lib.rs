//! # ccsort-parallel
//!
//! Real threaded parallel sorting for shared-memory machines — the
//! "adoptable library" counterpart of the simulated study in
//! `ccsort-algos`. Three programming styles, mirroring the paper's three
//! models:
//!
//! * **Shared address space** (the CC-SAS analogue): [`par_radix_sort`] and
//!   [`par_sample_sort`] — data-parallel sorts whose permutation phase
//!   writes directly into the shared output through disjoint ranks. Both
//!   fork one OS thread per worker under `std::thread::scope`
//!   ([`steal::run_workers`]; `std::thread::available_parallelism` of
//!   them by default), and the radix engine hands inputs at or below
//!   [`RadixSortConfig::sequential_cutoff`] to the single sequential
//!   kernel in [`seq`]. These are the fast paths for `&mut [K]` sorting.
//! * **Message passing** ([`msg`]): an in-process mini-MPI (per-pair
//!   channels, barriers, allgather, alltoallv) plus [`msg::radix_sort_msg`],
//!   the paper's MPI radix sort over it.
//! * **Symmetric heap** ([`sym`]): an in-process mini-SHMEM (one-sided
//!   `put`/`get` on per-PE segments with barrier epochs) plus
//!   [`sym::radix_sort_shmem`], the paper's receiver-initiated SHMEM radix
//!   sort.
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
pub mod merge;
pub mod msd;
pub mod msg;
pub mod pairs;
pub mod radix;
pub mod sample;
pub mod seq;
pub mod shared;
pub mod steal;
pub mod sym;
pub mod verify;

pub use histogram::{
    counting_sort, exclusive_prefix_sum, par_digit_histogram, par_multi_digit_histogram,
    PaddedCounts,
};
pub use key::RadixKey;
pub use merge::par_merge_sort;
pub use msd::{msd_radix_sort, par_msd_radix_sort};
pub use pairs::{
    par_radix_sort_by_key, par_radix_sort_pairs, par_radix_sort_pairs_with,
    par_radix_sort_pairs_with_scratch, radix_sort_pairs,
};
pub use radix::{
    par_radix_sort, par_radix_sort_with, par_radix_sort_with_scratch, RadixSortConfig, Schedule,
    SortScratch,
};
pub use sample::{par_sample_sort, par_sample_sort_with, SampleSortConfig, SAMPLES_PER_PART};
pub use seq::{radix_sort as seq_radix_sort, radix_sort_with_scratch, DEFAULT_RADIX_BITS};
pub use shared::SharedSlice;
pub use steal::{default_workers, par_map, ChunkQueue};
pub use verify::{is_sorted, is_sorted_permutation_of, multiset_fingerprint};
