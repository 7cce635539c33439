//! The symmetric transport of the SPMD sorts, over an in-process
//! symmetric-heap (SHMEM-style) runtime.
//!
//! SHMEM's defining features, reproduced over threads: every PE owns a
//! same-sized segment of a *symmetric heap*, and the one-sided `get` names
//! remote data by (PE, offset) — no involvement of the PE that owns it.
//! Synchronization is by barrier epochs, exactly as on the SGI library: a
//! PE may `get` a remote region only after the barrier that follows the
//! writes to it, and no PE may write a region another PE reads in the same
//! epoch. [`Symmetric`] runs [`crate::spmd`]'s sorts as the paper's SHMEM
//! programs: keys are staged in the owner's segment, then
//! *receiver-initiated* `get`s pull each piece into place.
//!
//! ## Debug-build epoch-protocol checker
//!
//! The aliasing contract above is exactly what each `unsafe` block's
//! SAFETY comment argues — and comments don't fail tests. In debug builds
//! the heap therefore *checks* the contract: every `local_mut`/`get`
//! records an access claim `(pe, segment, range, read|write)`
//! in a shared log, each new claim is checked for an overlap with another
//! PE's claim on the same segment where either side writes, and
//! [`Pe::barrier`] clears the log (the epoch boundary). A violation —
//! e.g. a `get` from a segment its owner is mutating in the same epoch —
//! panics with both parties named, instead of being silent UB. Release
//! builds compile all of it away. (A model checker exploring thread
//! interleavings would be stronger still, but the bulk-synchronous
//! discipline makes the per-epoch claim-set interleaving-independent:
//! whatever order threads reach the log, the same claims meet the same
//! epoch, so this check is exhaustive for the property it states.)

use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::Arc;

use crate::key::RadixKey;
use crate::plan::{part_range, Piece};
use crate::spmd::{concat_into, Barrier, Board, Transport};
use crate::steal::run_workers;

struct Segment<K> {
    data: UnsafeCell<Vec<K>>,
}

// SAFETY: cross-segment access is coordinated by barrier epochs; the unsafe
// `get`/`local_mut` APIs carry the aliasing contract.
unsafe impl<K: Send> Sync for Segment<K> {}

/// One access claim of the debug-build epoch checker: `pe` accessed
/// `[lo, hi)` of `seg`'s segment this epoch, through `op`.
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Copy)]
struct Claim {
    pe: usize,
    seg: usize,
    lo: usize,
    hi: usize,
    write: bool,
    op: &'static str,
}

/// The symmetric heap: one equally-sized segment per PE.
struct SymHeap<K> {
    segs: Vec<Segment<K>>,
    barrier: Barrier,
    /// Per-epoch access claims (debug builds only; see the module docs).
    #[cfg(debug_assertions)]
    claims: std::sync::Mutex<Vec<Claim>>,
}

impl<K: RadixKey + Default> SymHeap<K> {
    /// Create a heap of `npes` segments of `seg_len` elements each.
    fn new(npes: usize, seg_len: usize) -> Self {
        assert!(npes >= 1);
        SymHeap {
            segs: (0..npes).map(|_| Segment { data: UnsafeCell::new(vec![K::default(); seg_len]) }).collect(),
            barrier: Barrier::new(npes),
            #[cfg(debug_assertions)]
            claims: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Record one epoch claim and panic on a conflict with an existing one
    /// (debug builds; the release build has no checker and no log).
    #[cfg(debug_assertions)]
    fn record_claim(&self, claim: Claim) {
        // A poisoned log means another PE's claim failed the check.
        let mut log = self.claims.lock().unwrap_or_else(|_| crate::steal::abandon());
        for prev in log.iter() {
            if prev.seg == claim.seg
                && prev.pe != claim.pe
                && (prev.write || claim.write)
                && prev.lo < claim.hi
                && claim.lo < prev.hi
            {
                panic!(
                    "symmetric-heap epoch protocol violated on segment {}: \
                     pe {} {} [{}, {}) and pe {} {} [{}, {}) in the same barrier epoch",
                    claim.seg, prev.pe, prev.op, prev.lo, prev.hi, claim.pe, claim.op, claim.lo,
                    claim.hi
                );
            }
        }
        log.push(claim);
    }

    /// Number of PEs.
    fn n_pes(&self) -> usize {
        self.segs.len()
    }

    /// Run `f` as an SPMD program, one thread per PE, and return each PE's
    /// result in PE order. A PE that panics breaks the barrier, so the
    /// others stop rather than wait for it.
    fn run<R: Send>(self: &Arc<Self>, f: impl Fn(Pe<K>) -> R + Sync) -> Vec<R>
    where
        K: Send,
    {
        run_workers(self.n_pes(), |pe| {
            let _break = self.barrier.break_on_unwind();
            f(Pe { pe, heap: Arc::clone(self) })
        })
    }
}

/// A PE's handle onto the symmetric heap.
struct Pe<K: RadixKey + Default> {
    pe: usize,
    heap: Arc<SymHeap<K>>,
}

impl<K: RadixKey + Default> Pe<K> {
    /// This PE's id.
    fn pe(&self) -> usize {
        self.pe
    }

    /// Number of PEs.
    fn n_pes(&self) -> usize {
        self.heap.n_pes()
    }

    /// Barrier across all PEs (the epoch boundary of the aliasing rules).
    fn barrier(&self) {
        #[cfg(debug_assertions)]
        {
            // Two waits so the leader can clear the claim log while every
            // other thread is parked between them: no claim of the new
            // epoch can be recorded before the old ones are gone.
            if self.heap.barrier.wait() {
                self.heap.claims.lock().unwrap_or_else(|_| crate::steal::abandon()).clear();
            }
            self.heap.barrier.wait();
        }
        #[cfg(not(debug_assertions))]
        self.heap.barrier.wait();
    }

    /// Mutable view of this PE's own segment.
    ///
    /// # Safety
    ///
    /// Within the current barrier epoch, no other PE may `get` from any
    /// part of this segment that is accessed through the returned slice.
    /// (Debug builds check the stronger whole-segment claim.)
    #[allow(clippy::mut_from_ref)]
    unsafe fn local_mut(&self) -> &mut [K] {
        let seg = self.heap.segs[self.pe].data.get();
        #[cfg(debug_assertions)]
        self.heap.record_claim(Claim {
            pe: self.pe,
            seg: self.pe,
            lo: 0,
            // SAFETY: only the length is read, and no segment is resized.
            hi: unsafe { (*seg).len() },
            write: true,
            op: "local_mut",
        });
        unsafe { &mut *seg }
    }

    /// One-sided `get`: copy `dst.len()` elements from `(src_pe, src_off)`
    /// into `dst`.
    ///
    /// # Safety
    ///
    /// No PE (including `src_pe` itself) may write
    /// `[src_off, src_off + dst.len())` of `src_pe`'s segment in the
    /// current barrier epoch.
    unsafe fn get(&self, dst: &mut [K], src_pe: usize, src_off: usize) {
        #[cfg(debug_assertions)]
        self.heap.record_claim(Claim {
            pe: self.pe,
            seg: src_pe,
            lo: src_off,
            hi: src_off + dst.len(),
            write: false,
            op: "get",
        });
        let src = unsafe { &*self.heap.segs[src_pe].data.get() };
        dst.copy_from_slice(&src[src_off..src_off + dst.len()]);
    }
}

/// The symmetric-heap transport of [`crate::spmd`]: a PE's staging buffer
/// is its heap segment, and an exchange is the paper's receiver-initiated
/// SHMEM program — seal the staged segments with a barrier, `get` every
/// piece that lands here, and a second barrier before anyone restages.
/// Keys that were not staged (sample sort's) are published into the
/// segment first.
pub struct Symmetric<K: RadixKey + Default> {
    pe: Pe<K>,
    board: Arc<Board>,
    keys: Vec<K>,
}

impl<K: RadixKey + Default> Transport<K> for Symmetric<K> {
    fn rank(&self) -> usize {
        self.pe.pe()
    }

    fn size(&self) -> usize {
        self.pe.n_pes()
    }

    fn allgather(&mut self, mine: &[u64]) -> Vec<Vec<u64>> {
        self.board.allgather(self.pe.pe(), mine, || self.pe.barrier())
    }

    fn local(&mut self) -> (&mut [K], &mut [K]) {
        let len = self.keys.len();
        // SAFETY: other PEs reach this segment only through the `get`s of
        // an exchange, which sit between its two barriers; this borrow ends
        // before the first of them.
        (&mut self.keys, &mut unsafe { self.pe.local_mut() }[..len])
    }

    unsafe fn exchange(&mut self, staged: bool, region: Range<usize>, plan: &dyn Fn(usize) -> Vec<Piece>) {
        if !staged {
            let (keys, stage) = self.local();
            stage.copy_from_slice(keys);
        }
        self.pe.barrier();
        self.keys.clear();
        self.keys.resize(region.len(), K::default());
        let me = self.rank();
        for src in 0..self.size() {
            for piece in plan(src).into_iter().filter(|piece| piece.dst == me) {
                let at = piece.dst_at - region.start;
                // SAFETY: staged segments were sealed by the barrier above
                // and are read-only until the one below.
                unsafe { self.pe.get(&mut self.keys[at..at + piece.len], src, piece.src_off) };
            }
        }
        self.pe.barrier();
    }

    fn launch(keys: &mut [K], p: usize, cap: usize, program: impl Fn(&mut Self) + Sync) {
        let n = keys.len();
        let input = &*keys;
        let heap: Arc<SymHeap<K>> = Arc::new(SymHeap::new(p, cap));
        let board = Arc::new(Board::new(p));
        let regions = heap.run(|pe| {
            let part = part_range(n, p, pe.pe());
            let mut t = Symmetric { pe, board: Arc::clone(&board), keys: input[part].to_vec() };
            program(&mut t);
            t.keys
        });
        concat_into(keys, regions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let heap: Arc<SymHeap<u32>> = Arc::new(SymHeap::new(4, 64));
        heap.run(|ctx| {
            let me = ctx.pe() as u32;
            // Everyone fills its own segment, barrier, then reads the right
            // neighbour's.
            unsafe {
                let local = ctx.local_mut();
                for (i, v) in local.iter_mut().enumerate() {
                    *v = me * 1000 + i as u32;
                }
            }
            ctx.barrier();
            let right = (ctx.pe() + 1) % ctx.n_pes();
            let mut buf = vec![0u32; 8];
            unsafe { ctx.get(&mut buf, right, 8) };
            for (i, &v) in buf.iter().enumerate() {
                assert_eq!(v, right as u32 * 1000 + (8 + i) as u32);
            }
        });
    }

    // The epoch-protocol checker's own acceptance tests: the aliasing
    // contract the unsafe API documents must be enforced, not just argued,
    // in debug builds. (The checker compiles away in release, so these
    // only exist where it exists.)
    #[cfg(debug_assertions)]
    mod checker {
        use super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        #[test]
        fn catches_get_during_remote_mutation() {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let heap: Arc<SymHeap<u32>> = Arc::new(SymHeap::new(2, 64));
                heap.run(|ctx| {
                    // The bug this simulates: PE 1 pulls from PE 0's
                    // segment with no barrier after PE 0's writes.
                    if ctx.pe() == 0 {
                        unsafe { ctx.local_mut()[0] = 1 };
                    } else {
                        let mut buf = [0u32; 4];
                        unsafe { ctx.get(&mut buf, 0, 0) };
                    }
                });
            }));
            assert!(result.is_err(), "missing-barrier get must panic in debug builds");
        }

        #[test]
        fn allows_barrier_separated_reuse_and_concurrent_reads() {
            let heap: Arc<SymHeap<u32>> = Arc::new(SymHeap::new(2, 64));
            heap.run(|ctx| {
                unsafe { ctx.local_mut()[0] = ctx.pe() as u32 };
                ctx.barrier();
                // Everyone reads everyone, its own segment included, in one
                // epoch: all claims are reads.
                for src in 0..2 {
                    let mut buf = [0u32; 1];
                    unsafe { ctx.get(&mut buf, src, 0) };
                    assert_eq!(buf[0], src as u32);
                }
                ctx.barrier();
                // Fresh epoch: owners may mutate again.
                unsafe { ctx.local_mut()[0] = 9 };
            });
        }
    }
}
