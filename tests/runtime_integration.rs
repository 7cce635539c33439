//! Integration tests of the in-process programming-model runtimes: SPMD
//! programs combining collectives, one-sided transfers and the library's
//! utilities must agree with their shared-memory equivalents.

use std::sync::Arc;

use ccsort::parallel::msg::spawn_spmd;
use ccsort::parallel::sym::SymHeap;
use ccsort::parallel::{exclusive_prefix_sum, par_digit_histogram};

/// A distributed histogram over the message-passing runtime equals the
/// thread-parallel histogram.
#[test]
fn distributed_histogram_matches_parallel_histogram() {
    let n = 1 << 16;
    let keys: Vec<u32> = (0..n as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as u32)
        .collect();
    let expect = par_digit_histogram(&keys, 8, 8);

    let ranks = 4;
    let keys = Arc::new(keys);
    let results = spawn_spmd::<Vec<usize>, _, _>(ranks, |comm| {
        let me = comm.rank();
        let slice = &keys[me * n / ranks..(me + 1) * n / ranks];
        let mut local = vec![0usize; 256];
        for k in slice {
            local[((k >> 8) & 255) as usize] += 1;
        }
        comm.allreduce(local, |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect())
    });
    for r in &results {
        assert_eq!(*r, expect);
    }
}

/// A ring pipeline over the symmetric heap: each PE puts a token to its
/// right neighbour for `rounds` epochs; the token accumulates every PE's
/// contribution exactly once per lap.
#[test]
fn symmetric_heap_ring_pipeline() {
    let p = 5;
    let rounds = 2 * p;
    let heap: Arc<SymHeap<u64>> = Arc::new(SymHeap::new(p, 2));
    heap.run(|ctx| {
        // Slot 0 = inbound token, slot 1 = scratch. PE 0 starts the token.
        if ctx.pe() == 0 {
            // SAFETY: own segment, before first barrier.
            unsafe { ctx.local_mut()[0] = 1 };
        }
        ctx.barrier();
        for round in 0..rounds {
            // The PE holding the token this round forwards token + own id.
            let holder = round % ctx.n_pes();
            if ctx.pe() == holder {
                // SAFETY: own slot 0 is stable this epoch; destination slot
                // is written only by us.
                let token = unsafe { ctx.local_mut()[0] };
                let next = (ctx.pe() + 1) % ctx.n_pes();
                unsafe { ctx.put(&[token + ctx.pe() as u64], next, 0) };
            }
            ctx.barrier();
        }
    });
    // After 2 laps the token accumulated 2 * sum(0..p) on top of 1.
    let mut heap = Arc::try_unwrap(heap).unwrap_or_else(|_| panic!("heap still shared"));
    let holder = rounds % p;
    let expect = 1 + 2 * (p as u64 * (p as u64 - 1) / 2);
    assert_eq!(heap.segment_mut(holder)[0], expect);
}

/// Broadcast + prefix sum: the root computes bucket offsets and broadcasts
/// them; every rank sees identical offsets.
#[test]
fn broadcast_distributes_scan_results() {
    let results = spawn_spmd::<Vec<usize>, _, _>(6, |comm| {
        let counts = comm.allgather(vec![comm.rank() + 1]);
        let mut flat: Vec<usize> = counts.into_iter().flatten().collect();
        let offsets = if comm.rank() == 0 {
            let total = exclusive_prefix_sum(&mut flat);
            assert_eq!(total, 21);
            Some(flat)
        } else {
            None
        };
        comm.broadcast(0, offsets)
    });
    for r in &results {
        assert_eq!(*r, vec![0, 1, 3, 6, 10, 15]);
    }
}

/// The runtimes compose: a mini map-reduce where each rank sorts its shard
/// with the shared-memory sort and the ranks merge via alltoallv.
#[test]
fn runtimes_compose_with_library_sorts() {
    let n = 1 << 14;
    let keys: Vec<u32> = (0..n as u64)
        .map(|i| (i.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as u32)
        .collect();
    let mut expect = keys.clone();
    expect.sort_unstable();

    let p = 4;
    let keys = Arc::new(keys);
    let mut shards = spawn_spmd::<Vec<u32>, _, _>(p, |comm| {
        let me = comm.rank();
        let mut mine: Vec<u32> = keys[me * n / p..(me + 1) * n / p].to_vec();
        ccsort::parallel::seq_radix_sort(&mut mine, 8);
        // Range-partition by the top two bits and exchange.
        let outbound: Vec<Vec<u32>> = (0..p)
            .map(|b| {
                let lo = (b as u64 * (1u64 << 31) / p as u64) as u32;
                let hi = ((b as u64 + 1) * (1u64 << 31) / p as u64) as u32;
                mine.iter().copied().filter(|&k| k >= lo && (k < hi || b == p - 1)).collect()
            })
            .collect();
        let inbound = comm.alltoallv(outbound);
        let mut region: Vec<u32> = inbound.into_iter().flatten().collect();
        ccsort::parallel::seq_radix_sort(&mut region, 8);
        region
    });
    let merged: Vec<u32> = shards.drain(..).flatten().collect();
    assert_eq!(merged, expect);
}
