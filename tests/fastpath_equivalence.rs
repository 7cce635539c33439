//! The simulator's streamed-run fast path must be *exact*: for every
//! program, distribution and processor count, a sort run with
//! `MachineConfig::fast_path = false` (the per-line reference walk) must
//! produce bitwise identical timing, per-PE breakdowns, section profiles,
//! event counters and output to the default fast-path run.

mod equivalence;

use ccsort_algos::{Algorithm, Dist};
use equivalence::assert_equivalent;

const ALL_ALGS: [Algorithm; 9] = [
    Algorithm::RadixShmem,
    Algorithm::RadixCcsas,
    Algorithm::RadixCcsasNew,
    Algorithm::RadixMpiStaged,
    Algorithm::RadixMpiDirect,
    Algorithm::RadixMpiCoalesced,
    Algorithm::SampleShmem,
    Algorithm::SampleCcsas,
    Algorithm::SampleMpiDirect,
];

#[test]
fn fast_path_exact_across_programs() {
    for alg in ALL_ALGS {
        assert_equivalent(alg, 1 << 13, 8, 8, Dist::Gauss, false);
    }
}

#[test]
fn fast_path_exact_across_distributions() {
    for dist in Dist::ALL {
        assert_equivalent(Algorithm::RadixShmem, 1 << 13, 8, 8, dist, false);
        assert_equivalent(Algorithm::SampleCcsas, 1 << 13, 8, 11, dist, false);
    }
}

#[test]
fn fast_path_exact_across_processor_counts() {
    for p in [1, 2, 4, 16] {
        assert_equivalent(Algorithm::RadixShmem, 1 << 13, p, 8, Dist::Gauss, false);
        assert_equivalent(Algorithm::RadixMpiDirect, 1 << 13, p, 10, Dist::Gauss, false);
    }
}

#[test]
fn fast_path_exact_on_table2_radix_sizes() {
    // The Table 2 search sweeps radix sizes no other figure touches;
    // cover the full best-of set on the cell that is most sensitive.
    for r in [8, 10, 11, 12] {
        assert_equivalent(Algorithm::RadixShmem, 1 << 13, 8, r, Dist::Gauss, false);
    }
}
