//! Integration tests of the in-process programming-model runtimes, through
//! the SPMD sorts that drive them: programs combining the message runtime's
//! collectives with the library's utilities must agree with their
//! shared-memory equivalents.

use ccsort::parallel::par_radix_sort;
use ccsort::parallel::spmd::{radix_sort, sample_sort, Message};

/// The distributed radix sort — a per-rank digit histogram all-gathered
/// every pass — over the message-passing runtime equals the thread-parallel
/// radix sort.
#[test]
fn distributed_histogram_matches_parallel_histogram() {
    let n = 1 << 16;
    let keys: Vec<u32> = (0..n as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as u32)
        .collect();
    let mut expect = keys.clone();
    par_radix_sort(&mut expect);

    let mut got = keys;
    radix_sort::<Message<u32>, u32>(&mut got, 4, 8);
    assert_eq!(got, expect);
}

/// The runtimes compose: each rank sorts its shard with the library's
/// sequential radix sort, and the ranks exchange splitter-bounded buckets
/// through alltoallv.
#[test]
fn runtimes_compose_with_library_sorts() {
    let n = 1 << 14;
    let keys: Vec<u32> = (0..n as u64)
        .map(|i| (i.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as u32)
        .collect();
    let mut expect = keys.clone();
    expect.sort_unstable();

    let mut got = keys;
    sample_sort::<Message<u32>, u32>(&mut got, 4, 8);
    assert_eq!(got, expect);
}
