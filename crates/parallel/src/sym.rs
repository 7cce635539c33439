//! In-process symmetric-heap (SHMEM-style) runtime and a radix sort written
//! against it.
//!
//! SHMEM's defining features, reproduced over threads: every PE owns a
//! same-sized segment of a *symmetric heap*, and one-sided `put`/`get`
//! operations name remote data by (PE, offset) — no receiver involvement.
//! Synchronization is by barrier epochs, exactly as on the SGI library: a
//! PE may `get` a remote region only after the barrier that follows the
//! writes to it, and no PE may write a region another PE reads in the same
//! epoch. The radix sort here is the paper's SHMEM program: publish
//! histograms, collect them, permute locally into a staged region, then
//! *receiver-initiated* `get`s pull each chunk into place.
//!
//! ## Debug-build epoch-protocol checker
//!
//! The aliasing contract above is exactly what each `unsafe` block's
//! SAFETY comment argues — and comments don't fail tests. In debug builds
//! the heap therefore *checks* the contract: every `local`/`local_mut`/
//! `get`/`put` records an access claim `(pe, segment, range, read|write)`
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
use std::sync::{Arc, Barrier};
#[cfg(debug_assertions)]
use std::sync::Mutex;

use crate::key::RadixKey;
use crate::seq::passes_for;

struct Segment<K> {
    data: UnsafeCell<Vec<K>>,
}

// SAFETY: cross-segment access is coordinated by barrier epochs; the unsafe
// `put`/`get`/`local_mut` APIs carry the aliasing contract.
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
pub struct SymHeap<K> {
    segs: Vec<Segment<K>>,
    seg_len: usize,
    barrier: Barrier,
    /// Per-epoch access claims (debug builds only; see the module docs).
    #[cfg(debug_assertions)]
    claims: Mutex<Vec<Claim>>,
}

impl<K: RadixKey + Default> SymHeap<K> {
    /// Create a heap of `npes` segments of `seg_len` elements each.
    pub fn new(npes: usize, seg_len: usize) -> Self {
        assert!(npes >= 1);
        SymHeap {
            segs: (0..npes).map(|_| Segment { data: UnsafeCell::new(vec![K::default(); seg_len]) }).collect(),
            seg_len,
            barrier: Barrier::new(npes),
            #[cfg(debug_assertions)]
            claims: Mutex::new(Vec::new()),
        }
    }

    /// Record one epoch claim and panic on a conflict with an existing one
    /// (debug builds; the release build has no checker and no log).
    #[cfg(debug_assertions)]
    fn record_claim(&self, claim: Claim) {
        let mut log = self.claims.lock().unwrap();
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
    pub fn n_pes(&self) -> usize {
        self.segs.len()
    }

    /// Segment length (elements).
    pub fn seg_len(&self) -> usize {
        self.seg_len
    }

    /// Run `f` as an SPMD program, one thread per PE.
    pub fn run<F>(self: &Arc<Self>, f: F)
    where
        F: Fn(Pe<K>) + Sync,
        K: Send,
    {
        std::thread::scope(|s| {
            for pe in 0..self.n_pes() {
                let heap = Arc::clone(self);
                let f = &f;
                s.spawn(move || f(Pe { pe, heap }));
            }
        });
    }

    /// Read a segment after all threads have finished (safe: exclusive
    /// access through `&mut self`).
    pub fn segment_mut(&mut self, pe: usize) -> &mut Vec<K> {
        self.segs[pe].data.get_mut()
    }
}

/// A PE's handle onto the symmetric heap.
pub struct Pe<K: RadixKey + Default> {
    pe: usize,
    heap: Arc<SymHeap<K>>,
}

impl<K: RadixKey + Default> Pe<K> {
    /// This PE's id.
    pub fn pe(&self) -> usize {
        self.pe
    }

    /// Number of PEs.
    pub fn n_pes(&self) -> usize {
        self.heap.n_pes()
    }

    /// Barrier across all PEs (the epoch boundary of the aliasing rules).
    pub fn barrier(&self) {
        #[cfg(debug_assertions)]
        {
            // Two waits so the leader can clear the claim log while every
            // other thread is parked between them: no claim of the new
            // epoch can be recorded before the old ones are gone.
            if self.heap.barrier.wait().is_leader() {
                self.heap.claims.lock().unwrap().clear();
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
    /// Within the current barrier epoch, no other PE may `get` from or
    /// `put` into any part of this segment that is accessed through the
    /// returned slice. (Debug builds check the stronger whole-segment
    /// claim: use [`Pe::local`] in epochs that only read.)
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn local_mut(&self) -> &mut [K] {
        #[cfg(debug_assertions)]
        self.heap.record_claim(Claim {
            pe: self.pe,
            seg: self.pe,
            lo: 0,
            hi: self.heap.seg_len,
            write: true,
            op: "local_mut",
        });
        unsafe { &mut *self.heap.segs[self.pe].data.get() }
    }

    /// Shared view of this PE's own segment, for epochs that only read it
    /// (remote PEs may concurrently `get` from it).
    ///
    /// # Safety
    ///
    /// Within the current barrier epoch, no PE may `put` into this
    /// segment, and this PE must not hold a live [`Pe::local_mut`] borrow.
    pub unsafe fn local(&self) -> &[K] {
        #[cfg(debug_assertions)]
        self.heap.record_claim(Claim {
            pe: self.pe,
            seg: self.pe,
            lo: 0,
            hi: self.heap.seg_len,
            write: false,
            op: "local",
        });
        unsafe { &*self.heap.segs[self.pe].data.get() }
    }

    /// One-sided `get`: copy `dst.len()` elements from `(src_pe, src_off)`
    /// into `dst`.
    ///
    /// # Safety
    ///
    /// No PE (including `src_pe` itself) may write
    /// `[src_off, src_off + dst.len())` of `src_pe`'s segment in the
    /// current barrier epoch.
    pub unsafe fn get(&self, dst: &mut [K], src_pe: usize, src_off: usize) {
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

    /// One-sided `put`: copy `src` into `(dst_pe, dst_off)`.
    ///
    /// # Safety
    ///
    /// No PE may read or write `[dst_off, dst_off + src.len())` of
    /// `dst_pe`'s segment in the current barrier epoch, other than through
    /// this call.
    pub unsafe fn put(&self, src: &[K], dst_pe: usize, dst_off: usize) {
        #[cfg(debug_assertions)]
        self.heap.record_claim(Claim {
            pe: self.pe,
            seg: dst_pe,
            lo: dst_off,
            hi: dst_off + src.len(),
            write: true,
            op: "put",
        });
        let dst = unsafe { &mut *self.heap.segs[dst_pe].data.get() };
        dst[dst_off..dst_off + src.len()].copy_from_slice(src);
    }
}

/// Sort `keys` with the paper's SHMEM radix-sort algorithm over `p`
/// in-process PEs (receiver-initiated `get`s for the key exchange).
pub fn radix_sort_shmem<K: RadixKey + Default + Send>(keys: &mut [K], p: usize, radix_bits: u32) {
    let n = keys.len();
    if n == 0 || p <= 1 {
        crate::seq::radix_sort(keys, radix_bits.clamp(1, 16));
        return;
    }
    let p = p.min(n);
    assert!((1..=16).contains(&radix_bits));
    let bins = 1usize << radix_bits;
    let mask = (bins - 1) as u64;
    let passes = passes_for::<K>(radix_bits);
    let part_start = |i: usize| i * n / p;
    let max_part = (0..p).map(|i| part_start(i + 1) - part_start(i)).max().unwrap();

    // Segment layout: [0, max_part) current keys; [max_part, 2*max_part)
    // staged chunks. Histograms travel through a separate symmetric array,
    // here simply a second heap region: [2*max_part, 2*max_part + bins).
    let seg_len = 2 * max_part + bins;
    let heap: Arc<SymHeap<K>> = Arc::new(SymHeap::new(p, seg_len));
    // K may be narrower than the counts need; publish counts via a shared
    // side table instead of squeezing them into K. (A real SHMEM program
    // would use a symmetric integer array; this plays that role.)
    let hist_table: Vec<UnsafeCell<Vec<usize>>> =
        (0..p).map(|_| UnsafeCell::new(vec![0usize; bins])).collect();
    struct Table<'a>(&'a [UnsafeCell<Vec<usize>>]);
    unsafe impl Sync for Table<'_> {}
    let hist_table_ref = Table(&hist_table);

    let input = &*keys;
    heap.run(|ctx: Pe<K>| {
        let me = ctx.pe();
        let base = part_start(me);
        let len = part_start(me + 1) - base;
        // SAFETY: each PE writes only its own segment before the barrier.
        let local = unsafe { ctx.local_mut() };
        local[..len].copy_from_slice(&input[base..base + len]);
        ctx.barrier();

        let table = &hist_table_ref;
        for pass in 0..passes {
            let shift = pass * radix_bits;
            // Phase 1: local histogram, published to the table.
            let mut hist = vec![0usize; bins];
            // SAFETY: reading our own keys region; nobody writes it this epoch.
            let local = unsafe { ctx.local() };
            for k in &local[..len] {
                hist[k.digit(shift, mask)] += 1;
            }
            // SAFETY: slot `me` written only by this PE this epoch.
            unsafe { (*table.0[me].get()).copy_from_slice(&hist) };
            ctx.barrier();

            // Phase 2: collect everyone's histogram; compute ranks.
            // SAFETY: all slots were published before the barrier; this
            // epoch only reads them.
            let all_hists: Vec<Vec<usize>> =
                (0..ctx.n_pes()).map(|j| unsafe { (*table.0[j].get()).clone() }).collect();
            let mut offsets = vec![vec![0usize; bins]; ctx.n_pes()];
            let mut acc = 0usize;
            for d in 0..bins {
                for (j, h) in all_hists.iter().enumerate() {
                    offsets[j][d] = acc;
                    acc += h[d];
                }
            }
            let lscans: Vec<Vec<usize>> = all_hists
                .iter()
                .map(|h| {
                    let mut scan = Vec::with_capacity(bins);
                    let mut a = 0;
                    for &c in h {
                        scan.push(a);
                        a += c;
                    }
                    scan
                })
                .collect();

            // Phase 3: permute own keys into the staged region.
            let mut cursors = lscans[me].clone();
            // SAFETY: writing only our own staged region this epoch.
            let local = unsafe { ctx.local_mut() };
            for i in 0..len {
                let k = local[i];
                let d = k.digit(shift, mask);
                local[max_part + cursors[d]] = k;
                cursors[d] += 1;
            }
            ctx.barrier();

            // Phase 4: receiver-initiated gets — pull every chunk piece
            // that lands in our partition.
            let my_lo = base;
            let my_hi = base + len;
            let mut incoming: Vec<K> = vec![K::default(); len];
            for j in 0..ctx.n_pes() {
                for d in 0..bins {
                    let clen = all_hists[j][d];
                    if clen == 0 {
                        continue;
                    }
                    let goff = offsets[j][d];
                    let s = goff.max(my_lo);
                    let e = (goff + clen).min(my_hi);
                    if s >= e {
                        continue;
                    }
                    let src_off = max_part + lscans[j][d] + (s - goff);
                    // SAFETY: staged regions were sealed by the barrier
                    // above and are read-only this epoch.
                    unsafe { ctx.get(&mut incoming[s - my_lo..e - my_lo], j, src_off) };
                }
            }
            ctx.barrier();
            // SAFETY: writing only our own keys region; the epoch that read
            // the *staged* region is over, and nobody reads keys regions
            // until after the next barrier.
            let local = unsafe { ctx.local_mut() };
            local[..len].copy_from_slice(&incoming);
            ctx.barrier();
        }
    });

    // Collect the sorted partitions.
    let mut heap = Arc::try_unwrap(heap).unwrap_or_else(|_| panic!("heap still shared"));
    for i in 0..p {
        let base = part_start(i);
        let len = part_start(i + 1) - base;
        let seg = heap.segment_mut(i);
        keys[base..base + len].copy_from_slice(&seg[..len]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsort_rng::SplitMix64;

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

    #[test]
    fn put_writes_remote() {
        let heap: Arc<SymHeap<u32>> = Arc::new(SymHeap::new(3, 16));
        heap.run(|ctx| {
            // Each PE puts its id into a distinct slot of PE 0's segment.
            let me = ctx.pe();
            unsafe { ctx.put(&[me as u32 + 100], 0, me) };
            ctx.barrier();
            if me == 0 {
                let mut buf = vec![0u32; 3];
                unsafe { ctx.get(&mut buf, 0, 0) };
                assert_eq!(buf, vec![100, 101, 102]);
            }
        });
    }

    fn check_shmem_sort(n: usize, p: usize, r: u32, seed: u64) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut v: Vec<u32> = (0..n).map(|_| rng.random()).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort_shmem(&mut v, p, r);
        assert_eq!(v, expect, "n={n} p={p} r={r}");
    }

    #[test]
    fn shmem_radix_sorts() {
        check_shmem_sort(50_000, 4, 8, 1);
        check_shmem_sort(10_000, 7, 8, 2);
        check_shmem_sort(10_000, 3, 11, 3);
        check_shmem_sort(64, 8, 8, 4);
    }

    #[test]
    fn shmem_radix_degenerate() {
        let mut empty: Vec<u32> = vec![];
        radix_sort_shmem(&mut empty, 4, 8);
        let mut same = vec![5u32; 3000];
        radix_sort_shmem(&mut same, 4, 8);
        assert!(same.iter().all(|&x| x == 5));
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
        fn catches_overlapping_puts() {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let heap: Arc<SymHeap<u32>> = Arc::new(SymHeap::new(3, 16));
                heap.run(|ctx| {
                    if ctx.pe() > 0 {
                        // Both writers target element 0 of PE 0's segment.
                        unsafe { ctx.put(&[ctx.pe() as u32], 0, 0) };
                    }
                });
            }));
            assert!(result.is_err(), "overlapping same-epoch puts must panic");
        }

        #[test]
        fn allows_barrier_separated_reuse_and_concurrent_reads() {
            let heap: Arc<SymHeap<u32>> = Arc::new(SymHeap::new(2, 64));
            heap.run(|ctx| {
                unsafe { ctx.local_mut()[0] = ctx.pe() as u32 };
                ctx.barrier();
                // Everyone reads everyone (including the owner's own
                // read-only view) in one epoch: all claims are reads.
                let _own = unsafe { ctx.local()[0] };
                let mut buf = [0u32; 1];
                unsafe { ctx.get(&mut buf, 1 - ctx.pe(), 0) };
                assert_eq!(buf[0], (1 - ctx.pe()) as u32);
                ctx.barrier();
                // Fresh epoch: owners may mutate again.
                unsafe { ctx.local_mut()[0] = 9 };
            });
        }
    }

    #[test]
    fn shmem_matches_msg_sort() {
        let mut rng = SplitMix64::seed_from_u64(9);
        let v: Vec<u32> = (0..30_000).map(|_| rng.random()).collect();
        let mut a = v.clone();
        let mut b = v;
        radix_sort_shmem(&mut a, 6, 8);
        crate::msg::radix_sort_msg(&mut b, 6, 8);
        assert_eq!(a, b);
    }
}

/// Sort `keys` with the paper's SHMEM **sample sort** over `p` in-process
/// PEs: local radix sort, samples published to a symmetric region and
/// collected one-sidedly, redundant splitter selection, counts published
/// symmetrically, then each PE `get`s its splitter bucket from every
/// other PE's sorted segment and sorts it locally.
pub fn sample_sort_shmem<K: RadixKey + Default + Send>(keys: &mut [K], p: usize, radix_bits: u32) {
    let n = keys.len();
    if n == 0 || p <= 1 {
        crate::seq::radix_sort(keys, radix_bits.clamp(1, 16));
        return;
    }
    let p = p.min(n);
    let s = 128usize.min(n / p).max(1);
    let part_start = |i: usize| i * n / p;
    let max_part = (0..p).map(|i| part_start(i + 1) - part_start(i)).max().unwrap();

    // Segment layout: [0, max_part) sorted keys; [max_part, max_part + s)
    // samples. Counts travel through a side table (a symmetric integer
    // array in a real SHMEM program).
    let seg_len = max_part + s;
    let heap: Arc<SymHeap<K>> = Arc::new(SymHeap::new(p, seg_len));
    let counts_table: Vec<UnsafeCell<Vec<usize>>> =
        (0..p).map(|_| UnsafeCell::new(vec![0usize; p])).collect();
    struct Table<'a>(&'a [UnsafeCell<Vec<usize>>]);
    unsafe impl Sync for Table<'_> {}
    let table = Table(&counts_table);
    let out = std::sync::Mutex::new(vec![Vec::<K>::new(); p]);

    let input = &*keys;
    heap.run(|ctx: Pe<K>| {
        // Capture the Sync wrapper whole (edition-2021 disjoint capture
        // would otherwise capture the raw `.0` field, which isn't Sync).
        let table = &table;
        let me = ctx.pe();
        let base = part_start(me);
        let len = part_start(me + 1) - base;

        // Phase 1: local sort of own segment.
        // SAFETY: each PE touches only its own segment before the barrier.
        let local = unsafe { ctx.local_mut() };
        local[..len].copy_from_slice(&input[base..base + len]);
        crate::seq::radix_sort(&mut local[..len], radix_bits);
        // Phase 2: publish regular samples.
        for k in 0..s {
            local[max_part + k] = local[k * len / s];
        }
        ctx.barrier();

        // Phase 3: collect all samples one-sidedly; redundant splitters.
        let mut all = vec![K::default(); p * s];
        for j in 0..ctx.n_pes() {
            // SAFETY: sample regions were sealed by the barrier above.
            unsafe { ctx.get(&mut all[j * s..(j + 1) * s], j, max_part) };
        }
        all.sort_unstable();
        let splitters: Vec<K> = (1..p).map(|k| all[k * all.len() / p]).collect();

        // Phase 4: bucket boundaries (ties spread) + publish counts. In
        // this epoch other PEs `get` our sample region, so the read-only
        // view matters: a `local_mut` claim here would (rightly) trip the
        // debug checker.
        // SAFETY: reading only our own sorted keys region.
        let local = unsafe { ctx.local() };
        let sorted = &local[..len];
        let mut bounds = vec![0usize; p + 1];
        bounds[p] = len;
        let mut j = 0usize;
        while j < splitters.len() {
            let v = &splitters[j];
            let mut jl = j;
            while jl + 1 < splitters.len() && splitters[jl + 1] == *v {
                jl += 1;
            }
            if jl == j {
                bounds[j + 1] = sorted.partition_point(|x| x < v);
                j += 1;
                continue;
            }
            let lower = sorted.partition_point(|x| x < v);
            let upper = sorted.partition_point(|x| x <= v);
            let run = upper - lower;
            let slots = jl - j + 2;
            for (k, cut) in (j + 1..=jl + 1).enumerate() {
                bounds[cut] = lower + (k + 1) * run / slots;
            }
            j = jl + 1;
        }
        // SAFETY: slot `me` written only by this PE this epoch.
        unsafe {
            (*table.0[me].get()).copy_from_slice(
                &(0..p).map(|b| bounds[b + 1] - bounds[b]).collect::<Vec<_>>(),
            );
        }
        ctx.barrier();

        // Phase 5: get our bucket from every PE, sort, stash.
        // SAFETY: counts were all published before the barrier.
        let all_counts: Vec<Vec<usize>> =
            (0..p).map(|i| unsafe { (*table.0[i].get()).clone() }).collect();
        let all_bounds: Vec<Vec<usize>> = all_counts
            .iter()
            .map(|c| {
                let mut b = vec![0usize; p + 1];
                for (k, &cnt) in c.iter().enumerate() {
                    b[k + 1] = b[k] + cnt;
                }
                b
            })
            .collect();
        let inbound: usize = (0..p).map(|i| all_counts[i][me]).sum();
        let mut region = vec![K::default(); inbound];
        let mut off = 0;
        for i in 0..p {
            let cnt = all_counts[i][me];
            if cnt > 0 {
                // SAFETY: sorted key regions are read-only this epoch.
                unsafe { ctx.get(&mut region[off..off + cnt], i, all_bounds[i][me]) };
                off += cnt;
            }
        }
        crate::seq::radix_sort(&mut region, radix_bits);
        out.lock().unwrap()[me] = region;
    });

    let regions = out.into_inner().unwrap();
    let mut off = 0;
    for region in regions {
        keys[off..off + region.len()].copy_from_slice(&region);
        off += region.len();
    }
    assert_eq!(off, n);
}

#[cfg(test)]
mod sample_tests {
    use super::*;
    use ccsort_rng::SplitMix64;

    fn check(n: usize, p: usize, seed: u64) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut v: Vec<u32> = (0..n).map(|_| rng.random()).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        sample_sort_shmem(&mut v, p, 11);
        assert_eq!(v, expect, "n={n} p={p}");
    }

    #[test]
    fn sample_sort_shmem_sorts() {
        check(50_000, 4, 1);
        check(10_000, 7, 2);
        check(1000, 3, 3);
    }

    #[test]
    fn sample_sort_shmem_duplicates() {
        let mut rng = SplitMix64::seed_from_u64(4);
        let mut v: Vec<u32> =
            (0..20_000).map(|_| if rng.random_range(0..10u32) < 3 { 7 } else { rng.random() }).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        sample_sort_shmem(&mut v, 6, 8);
        assert_eq!(v, expect);
    }

    #[test]
    fn sample_sort_shmem_matches_msg_version() {
        let mut rng = SplitMix64::seed_from_u64(5);
        let v: Vec<u32> = (0..30_000).map(|_| rng.random()).collect();
        let mut a = v.clone();
        let mut b = v;
        sample_sort_shmem(&mut a, 5, 8);
        crate::msg::sample_sort_msg(&mut b, 5, 8);
        assert_eq!(a, b);
    }
}
