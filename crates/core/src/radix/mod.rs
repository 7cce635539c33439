//! Parallel radix sort under the three programming models (Section 3.1).
//!
//! The algorithm is written **once**, in `sort`: for each `r`-bit digit,
//! (1) every process histograms its assigned keys, (2) local histograms are
//! combined into global ranks, (3) every process permutes its keys into the
//! output array — an all-to-all personalized communication — and the arrays
//! swap roles. Each phase is one call on the crate's private `Communicator`
//! trait, and the permutation is the model's own `permute` body; the seven
//! `Radix*` rows of [`crate::Algorithm`] pair the skeleton with a
//! communicator and its permutation style:
//!
//! | algorithm | communicator | histogram combine | permutation |
//! |---|---|---|---|
//! | `RadixCcsas` | `CcsasComm` | shared binary prefix tree | `DirectScatter`: fine-grained scattered remote writes, up to `2^r` destination segments interleaved — the read-exclusive + invalidation + writeback sequence per line whose controller contention collapses this program at large sizes (Figure 4a) |
//! | `RadixCcsasNew` | `CcsasComm` | shared binary prefix tree | `ContiguousCopy` (§4.2.1): permute into a local buffer, then one contiguous streamed copy per digit chunk — extra BUSY time for far less protocol contention; worse than the original only at the smallest (1M-key) sets |
//! | `RadixMpiStaged`, `RadixMpiDirect` | `MpiComm` (vendor-style bounce buffers / the authors' modified MPICH) | `MPI_Allgather` + redundant local combine (the fine-grained tree would be "very expensive" in MPI) | `ChunkMessages`: one message per contiguously-destined chunk — the variant the authors measured faster on this machine |
//! | `RadixMpiCoalesced` | `MpiComm` | as above | `CoalescedMessages`: one message per destination as in NAS IS, the receiver reorganizes (an extra copy per key) — §3.1's other strategy, rerun by `repro tradeoff` |
//! | `RadixShmem` | `ShmemComm` | `shmem_fcollect` + redundant local combine | `ReceiverGet`: every process has the full histogram, so the *receiver* pulls each chunk with a `get`, which deposits the keys in its cache; no per-pair mailbox to stall on |
//! | `RadixShmemPut` | `ShmemComm` | as above | `SenderPut` (§2's road not taken): the sender scans only its own `2^r` row and `put`s, but the keys land in the owner's *memory*, so the next pass's histogram sweep pays the misses `get` would have prepaid |
//!
//! This module keeps what every permutation shares: [`split_by_owner`] and
//! the blocked scatter loop. Each `permute` body reproduces the
//! machine-call sequence of the hand-written program it replaced, so times,
//! breakdowns and event counts are bit-identical to the pre-refactor
//! variants.

use ccsort_machine::{ArrayId, Machine};

use crate::comm::Communicator;
use crate::common::{digit, local_histogram, n_passes, owner_of, part_range, BLOCK};

/// A contiguous piece of one process's digit chunk, destined for a single
/// owner's partition of the output array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPiece {
    /// Receiving process.
    pub owner: usize,
    /// Global element offset in the output array.
    pub dst_off: usize,
    /// Offset of this piece within the source chunk.
    pub src_delta: usize,
    /// Piece length in elements.
    pub len: usize,
}

/// Split the chunk `[goff, goff+len)` of the output array along partition
/// boundaries. Radix chunks usually land inside one partition, but a chunk
/// straddling a boundary becomes one message per owner (the paper's MPI
/// program sends "each contiguously-destined chunk of keys directly as a
/// separate message").
pub fn split_by_owner(n: usize, p: usize, goff: usize, len: usize) -> Vec<ChunkPiece> {
    let mut out = Vec::new();
    let mut start = goff;
    let end = goff + len;
    while start < end {
        let owner = owner_of(n, p, start);
        let part_end = part_range(n, p, owner).end;
        let piece = end.min(part_end) - start;
        out.push(ChunkPiece { owner, dst_off: start, src_delta: start - goff, len: piece });
        start += piece;
    }
    out
}

/// One blocked pass over `pe`'s partition of `src`: read a block, compute
/// each key's destination (`dest_base + cursors[digit]`, post-incrementing
/// the cursor), and issue the writes as one scattered batch into `target`.
/// This inner loop is shared by every permutation style; they differ in the
/// target array, the cursor origin and the per-key instruction cost.
#[allow(clippy::too_many_arguments)]
pub(crate) fn blocked_permute(
    m: &mut Machine,
    pe: usize,
    src: ArrayId,
    target: ArrayId,
    n: usize,
    p: usize,
    cursors: &mut [u32],
    dest_base: usize,
    cyc_per_key: f64,
    pass: u32,
    r: u32,
) {
    let range = part_range(n, p, pe);
    let mut buf = vec![0u32; BLOCK];
    let mut dests = vec![0usize; BLOCK];
    let mut pos = range.start;
    while pos < range.end {
        let blk = BLOCK.min(range.end - pos);
        m.read_run(pe, src, pos, &mut buf[..blk]);
        m.busy_cycles(pe, cyc_per_key * blk as f64);
        for (i, &k) in buf[..blk].iter().enumerate() {
            let d = digit(k, pass, r);
            dests[i] = dest_base + cursors[d] as usize;
            cursors[d] += 1;
        }
        m.scatter_run(pe, target, &dests[..blk], &buf[..blk]);
        pos += blk;
    }
}

/// The one parallel radix sort, parameterized over the programming model.
///
/// Sorts the keys in `keys[0]` (partitioned over all processors), using
/// `keys[1]` as the toggle array. Returns the array holding the sorted
/// result. The communicator decides how histograms are published and
/// combined and how each pass moves the keys.
pub(crate) fn sort(
    m: &mut Machine,
    comm: &mut dyn Communicator,
    keys: [ArrayId; 2],
    n: usize,
    r: u32,
    key_bits: u32,
) -> ArrayId {
    let p = m.n_procs();
    let bins = 1usize << r;
    let passes = n_passes(key_bits, r);
    comm.setup_radix(m, n, bins);

    let (mut src, mut dst) = (keys[0], keys[1]);
    for pass in 0..passes {
        // Phase 1: per-process histogram of the current digit, published
        // through the model (tree leaves or the symmetric histogram array).
        comm.section(m, "histogram");
        let mut hists: Vec<Vec<u32>> = Vec::with_capacity(p);
        for pe in 0..p {
            let h = local_histogram(m, pe, src, part_range(n, p, pe), pass, r);
            comm.publish_hist(m, pe, &h);
            hists.push(h);
        }
        comm.publish_done(m);

        // Phase 2: combine into global ranks (tree accumulation, Allgather
        // or fcollect — with the model's own synchronization).
        comm.section(m, "combine");
        comm.combine(m);

        // Phase 3 (and 4, where the model has one): move the keys.
        comm.permute(m, [src, dst], n, pass, r, &hists);
        m.barrier();
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Dist, KEY_BITS};
    use crate::driver::{run_experiment, Algorithm, ExpConfig, ExpResult};

    /// One experiment on the 1/64-scale machine the unit tests share.
    fn run(alg: Algorithm, n: usize, p: usize, dist: Dist) -> ExpResult {
        let res = run_experiment(&ExpConfig::new(alg, n, p).dist(dist).seed(55).scale(64));
        assert!(res.verified, "{alg:?} n={n} p={p} {dist:?}");
        res
    }

    #[test]
    fn agrees_with_original_ccsas_output() {
        // Both verify against the same sorted input, so they agree.
        run(Algorithm::RadixCcsasNew, 3072, 8, Dist::Random);
        run(Algorithm::RadixCcsas, 3072, 8, Dist::Random);
    }

    #[test]
    fn staged_slower_than_direct() {
        let time = |alg| run(alg, 8192, 8, Dist::Gauss).parallel_ns;
        assert!(time(Algorithm::RadixMpiStaged) > time(Algorithm::RadixMpiDirect));
    }

    #[test]
    fn coalesced_pays_the_reorganization_copy() {
        // The paper found chunk-per-message faster on the Origin 2000 — in
        // the regime it measured, with a lot of data per processor, where
        // the receiver-side reorganization copy dwarfs the per-message
        // overheads. (With little data per processor the tradeoff genuinely
        // flips: overheads dominate and coalescing wins.)
        let time = |alg| {
            let res = run_experiment(&ExpConfig::new(alg, 1 << 20, 16));
            assert!(res.verified);
            res.parallel_ns
        };
        let t_coalesced = time(Algorithm::RadixMpiCoalesced);
        let t_chunked = time(Algorithm::RadixMpiDirect);
        assert!(
            t_coalesced > t_chunked,
            "coalesced ({t_coalesced}) must lose to chunk-per-message ({t_chunked}) as in the paper"
        );
    }

    #[test]
    fn local_distribution_sends_no_messages() {
        // Only the fcollect messages remain (p-1 per rank per pass, plus
        // nothing from the key exchange).
        let p = 8;
        let passes = n_passes(KEY_BITS, 8) as u64;
        for (pe, e) in run(Algorithm::RadixShmem, 4096, p, Dist::Local).events.iter().enumerate() {
            assert_eq!(
                e.messages,
                (p as u64 - 1) * passes,
                "pe {pe}: local distribution must move no keys between processes"
            );
        }
    }

    #[test]
    fn remote_distribution_moves_everything() {
        let n = 2048;
        let bytes_for = |dist| {
            run(Algorithm::RadixShmem, n, 4, dist).events.iter().map(|e| e.message_bytes).sum::<u64>()
        };
        // Local moves no keys (its messages are the fcollect only); remote
        // moves every key in every pass, so the difference must be at least
        // the full data volume.
        let remote = bytes_for(Dist::Remote);
        let local = bytes_for(Dist::Local);
        assert!(
            remote >= local + (n * 4) as u64,
            "remote ({remote}) must move far more bytes than local ({local})"
        );
    }

    #[test]
    fn put_shifts_remote_time_to_local_misses() {
        // The paper's reason to prefer get (Section 2): a get installs the
        // exchanged keys in the destination cache, a put installs them
        // nowhere. Under put the exchange itself charges less remote time,
        // but the next pass's histogram sweep has to fetch its own
        // partition from memory — time the get variant never pays.
        let phases = |alg| {
            let res = run(alg, 1 << 16, 8, Dist::Gauss);
            let phase = |name: &str| res.sections.iter().find(|(s, _)| s == name).expect(name).1;
            (phase("exchange").rmem, phase("histogram").lmem)
        };
        let (exch_rmem_put, hist_lmem_put) = phases(Algorithm::RadixShmemPut);
        let (exch_rmem_get, hist_lmem_get) = phases(Algorithm::RadixShmem);
        assert!(
            exch_rmem_put < exch_rmem_get,
            "put must charge the exchange less remote time than get \
             (put {exch_rmem_put}, get {exch_rmem_get})"
        );
        assert!(
            hist_lmem_put > hist_lmem_get,
            "put must leave the destination cold, so the next histogram sweep \
             pays local-memory misses (put {hist_lmem_put}, get {hist_lmem_get})"
        );
    }

    #[test]
    fn split_within_one_partition() {
        // n=100, p=4: partitions of 25.
        let pieces = split_by_owner(100, 4, 30, 10);
        assert_eq!(pieces, vec![ChunkPiece { owner: 1, dst_off: 30, src_delta: 0, len: 10 }]);
    }

    #[test]
    fn split_across_boundaries() {
        let pieces = split_by_owner(100, 4, 20, 40);
        assert_eq!(
            pieces,
            vec![
                ChunkPiece { owner: 0, dst_off: 20, src_delta: 0, len: 5 },
                ChunkPiece { owner: 1, dst_off: 25, src_delta: 5, len: 25 },
                ChunkPiece { owner: 2, dst_off: 50, src_delta: 30, len: 10 },
            ]
        );
        // Pieces tile the chunk.
        let total: usize = pieces.iter().map(|c| c.len).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn split_empty_chunk() {
        assert!(split_by_owner(100, 4, 50, 0).is_empty());
    }

    #[test]
    fn split_with_uneven_partitions() {
        // n=10, p=3: partitions [0,3), [3,6), [6,10).
        let pieces = split_by_owner(10, 3, 2, 6);
        let total: usize = pieces.iter().map(|c| c.len).sum();
        assert_eq!(total, 6);
        assert_eq!(pieces[0].owner, 0);
        assert_eq!(pieces.last().unwrap().owner, 2);
    }
}
