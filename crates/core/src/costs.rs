//! Instruction-cost constants (cycles) for the simulated sorting programs.
//!
//! These model the BUSY component of the paper's time breakdown: the
//! per-element instruction work of each inner loop, assuming no memory
//! stalls (stalls are produced by the machine model). They were calibrated
//! so that the simulated sequential radix sort of Gauss keys lands in the
//! regime of the paper's Table 1 (~1.6 s for 1M keys at full scale, i.e.
//! on the order of 400 ns/key/pass including memory time on a 195 MHz
//! R10000 running unoptimised SPLASH-2-style code).
//!
//! The skeletons and the communicators charge them alike: the scan, offset,
//! splitter-sort and copy work inside a model's collectives reads the same
//! constants as the loops the skeletons run.

/// Histogram loop: load key, shift/mask, load count, add, store.
pub const HIST_CYC_PER_KEY: f64 = 14.0;

/// Permutation loop: load key, shift/mask, load offset, increment, store
/// offset, store key (address generation + write-buffer pressure).
pub const PERMUTE_CYC_PER_KEY: f64 = 26.0;

/// Extra work per key for locally buffered permutation (CC-SAS-NEW, MPI and
/// SHMEM all buffer before communicating): one extra load/store pair plus
/// chunk bookkeeping. This is the "increase in local work or BUSY time (for
/// buffering)" that makes CC-SAS-NEW slower than the original for the 1M
/// data set (Section 4.2.1).
pub const BUFFER_EXTRA_CYC_PER_KEY: f64 = 10.0;

/// Straight copy loops (chunk copy-out, staged-receive copies): an
/// unrolled load/store pair per word.
pub const COPY_CYC_PER_KEY: f64 = 1.0;

/// Per-bin work for scanning histograms / computing offsets.
pub const SCAN_CYC_PER_BIN: f64 = 3.0;

/// Per-(process, bin) entry work when every process redundantly combines
/// all p local histograms after an Allgather (the MPI/SHMEM path).
pub const OFFSET_CYC_PER_ENTRY: f64 = 3.0;

/// Comparison-sort cost per element per log2(elements) — used for sorting
/// sample keys in sample sort.
pub const SORT_CYC_PER_CMP: f64 = 12.0;

/// Per-probe cost of a binary-search step when locating splitter
/// boundaries in a sorted partition.
pub const BSEARCH_CYC_PER_STEP: f64 = 8.0;

/// Per-sample selection cost (strided read bookkeeping).
pub const SELECT_CYC_PER_SAMPLE: f64 = 6.0;

