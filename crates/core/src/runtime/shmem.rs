//! SHMEM runtime: one-sided `put`/`get` over a symmetric address space.
//!
//! SHMEM (Section 1 of the paper) differs from MPI in two ways that matter
//! here: communication involves only one side (no rendezvous, no per-pair
//! mailbox, tiny software overhead), and the segmented symmetric address
//! space lets a process name remote data with a local offset plus a PE
//! number — which in this codebase is simply an offset into a partitioned
//! simulated array.
//!
//! Following the paper's observation, `get` installs the transferred lines
//! in the *initiating* processor's cache ("get has the advantage that data
//! are brought into the cache, while put doesn't deposit them in the
//! destination cache"), so data fetched with `get` is warm for the next
//! local phase.

use ccsort_machine::{ArrayId, Bucket, Machine};



/// The SHMEM runtime. Stateless beyond its tuning knobs: one-sided
/// communication needs no mailboxes.
pub struct Shmem {
    p: usize,
    /// Fraction of wire time a `put` stalls the initiator: the CPU drives
    /// the copy but its writes pipeline behind the network interface.
    put_stall_frac: f64,
}

impl Shmem {
    pub fn new(m: &Machine) -> Self {
        Shmem { p: m.n_procs(), put_stall_frac: 0.7 }
    }

    /// Blocking one-sided `get`, initiated by `pe`: fetch `len` elements
    /// from `src_arr[src_off..]` (typically a remote partition) into
    /// `dst_arr[dst_off..]` (typically `pe`'s own partition). The initiator
    /// stalls for the full transfer; the lines land in its cache.
    #[allow(clippy::too_many_arguments)]
    pub fn get(
        &self,
        m: &mut Machine,
        pe: usize,
        dst_arr: ArrayId,
        dst_off: usize,
        src_arr: ArrayId,
        src_off: usize,
        len: usize,
    ) {
        if len == 0 {
            return;
        }
        m.charge(pe, m.cfg().shmem_overhead_ns, Bucket::Rmem);
        let t = m.dma_copy(pe, src_arr, src_off, dst_arr, dst_off, len, true);
        m.charge(pe, t, Bucket::Rmem);
        m.count_message(pe, len * 4);
    }

    /// Same-PE `get`: the block-transfer engine doing a local memcpy.
    /// Charged to LMEM (no interconnect involved).
    #[allow(clippy::too_many_arguments)]
    pub fn get_local(
        &self,
        m: &mut Machine,
        pe: usize,
        dst_arr: ArrayId,
        dst_off: usize,
        src_arr: ArrayId,
        src_off: usize,
        len: usize,
    ) {
        if len == 0 {
            return;
        }
        m.charge(pe, m.cfg().shmem_overhead_ns, Bucket::Lmem);
        let t = m.dma_copy(pe, src_arr, src_off, dst_arr, dst_off, len, true);
        m.charge(pe, t, Bucket::Lmem);
    }

    /// One-sided `put`, initiated by `pe`: store `len` elements from
    /// `src_arr[src_off..]` into `dst_arr[dst_off..]` (typically a remote
    /// partition). Mostly pipelined; does not install in any cache.
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &self,
        m: &mut Machine,
        pe: usize,
        src_arr: ArrayId,
        src_off: usize,
        dst_arr: ArrayId,
        dst_off: usize,
        len: usize,
    ) {
        if len == 0 {
            return;
        }
        m.charge(pe, m.cfg().shmem_overhead_ns, Bucket::Rmem);
        let t = m.dma_copy(pe, src_arr, src_off, dst_arr, dst_off, len, false);
        m.charge(pe, self.put_stall_frac * t, Bucket::Rmem);
        m.count_message(pe, len * 4);
    }

    /// `shmem_fcollect`, executed by `pe`: gather `len` elements from every
    /// PE's `(array, offset)` contribution into `pe`'s local replica `dst`
    /// (PE `j`'s block at `dst[j*len..]`). Implemented as the natural
    /// receiver-initiated loop of `get`s — one-sided, so far cheaper per
    /// step than the MPI Allgather, but still a fixed cost the CC-SAS
    /// prefix tree avoids entirely.
    pub fn fcollect(
        &self,
        m: &mut Machine,
        pe: usize,
        contribs: &[(ArrayId, usize)],
        len: usize,
        dst: ArrayId,
    ) {
        assert_eq!(contribs.len(), self.p);
        for j in 0..self.p {
            let (src_arr, src_off) = contribs[j];
            if j == pe {
                super::cpu_copy_fixed(m, pe, src_arr, src_off, dst, j * len, len, 1.0);
            } else {
                // Histograms/samples are fixed-size structures: time a
                // representative prefix, move the rest untimed.
                let k = m.fixed_prefix(len);
                self.get(m, pe, dst, j * len, src_arr, src_off, k);
                if len > k {
                    #[expect(clippy::disallowed_methods, reason = "the get() above charges the \
                        scaled cost of this fixed-size transfer; the remainder moves untimed by \
                        the fixed-structure discipline")]
                    m.copy_untimed(pe, src_arr, src_off + k, dst, j * len + k, len - k);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsort_machine::{MachineConfig, Placement};

    fn machine(p: usize) -> Machine {
        Machine::new(MachineConfig::origin2000(p).scaled_down(16))
    }

    #[test]
    fn get_fetches_and_warms_cache() {
        let mut m = machine(4);
        let a = m.alloc(4096, Placement::Partitioned { parts: 4 }, "sym");
        let b = m.alloc(4096, Placement::Partitioned { parts: 4 }, "sym2");
        for i in 0..4096 {
            m.raw_mut(a)[i] = i as u32;
        }
        let sh = Shmem::new(&m);
        // PE 0 gets 256 elements from PE 3's partition into its own.
        sh.get(&mut m, 0, b, 0, a, 3072, 256);
        assert_eq!(m.raw(b)[0], 3072);
        assert_eq!(m.raw(b)[255], 3327);
        // The fetched region is in PE 0's cache: reads hit.
        let misses = m.events(0).misses();
        let mut out = vec![0u32; 256];
        m.read_run(0, b, 0, &mut out);
        assert_eq!(m.events(0).misses(), misses, "get must warm the initiator's cache");
        assert!(m.breakdown(0).rmem > 0.0);
    }

    #[test]
    fn put_does_not_warm_destination() {
        let mut m = machine(4);
        let a = m.alloc(4096, Placement::Partitioned { parts: 4 }, "sym");
        let b = m.alloc(4096, Placement::Partitioned { parts: 4 }, "sym2");
        m.raw_mut(a)[0] = 42;
        let sh = Shmem::new(&m);
        sh.put(&mut m, 0, a, 0, b, 3072, 64);
        assert_eq!(m.raw(b)[3072], 42);
        // PE 3 reading its own partition must miss (data only in memory).
        let misses = m.events(3).misses();
        let mut out = vec![0u32; 64];
        m.read_run(3, b, 3072, &mut out);
        assert!(m.events(3).misses() > misses);
    }

    #[test]
    fn get_blocks_longer_than_put() {
        let mut m = machine(4);
        let a = m.alloc(8192, Placement::Partitioned { parts: 4 }, "sym");
        let b = m.alloc(8192, Placement::Partitioned { parts: 4 }, "sym2");
        let sh = Shmem::new(&m);
        sh.get(&mut m, 0, b, 0, a, 6144, 1024);
        let t_get = m.now(0);
        sh.put(&mut m, 1, a, 2048, b, 6144, 1024);
        let t_put = m.now(1);
        assert!(t_get > t_put, "blocking get ({t_get}) vs pipelined put ({t_put})");
    }

    #[test]
    fn fcollect_replicates_everything() {
        let p = 8;
        let mut m = machine(p);
        let src = m.alloc(p * 16, Placement::Partitioned { parts: p }, "hists");
        for pe in 0..p {
            for i in 0..16 {
                m.raw_mut(src)[pe * 16 + i] = (pe * 1000 + i) as u32;
            }
        }
        let dsts: Vec<_> = (0..p)
            .map(|pe| m.alloc(p * 16, Placement::Node(m.node_of(pe)), "replica"))
            .collect();
        let sh = Shmem::new(&m);
        let contribs: Vec<(ccsort_machine::ArrayId, usize)> = (0..p).map(|j| (src, j * 16)).collect();
        for pe in 0..p {
            sh.fcollect(&mut m, pe, &contribs, 16, dsts[pe]);
        }
        for pe in 0..p {
            for j in 0..p {
                for i in 0..16 {
                    assert_eq!(m.raw(dsts[pe])[j * 16 + i], (j * 1000 + i) as u32);
                }
            }
        }
        assert_eq!(m.events(0).messages, (p - 1) as u64);
    }

    #[test]
    fn shmem_collective_cheaper_than_mpi() {
        use crate::runtime::{Mpi, MpiMode};
        let p = 8;
        let len = 256;
        let shmem_time = {
            let mut m = machine(p);
            let src = m.alloc(p * len, Placement::Partitioned { parts: p }, "c");
            let dsts: Vec<_> = (0..p)
                .map(|pe| m.alloc(p * len, Placement::Node(m.node_of(pe)), "r"))
                .collect();
            let sh = Shmem::new(&m);
            let contribs: Vec<_> = (0..p).map(|j| (src, j * len)).collect();
            for pe in 0..p {
                sh.fcollect(&mut m, pe, &contribs, len, dsts[pe]);
            }
            m.parallel_time()
        };
        let mpi_time = {
            let mut m = machine(p);
            let src = m.alloc(p * len, Placement::Partitioned { parts: p }, "c");
            let dsts: Vec<_> = (0..p)
                .map(|pe| m.alloc(p * len, Placement::Node(m.node_of(pe)), "r"))
                .collect();
            let mpi = Mpi::new(&mut m, MpiMode::Direct, 0);
            let contribs: Vec<_> = (0..p).map(|j| (src, j * len)).collect();
            for pe in 0..p {
                mpi.allgather(&mut m, pe, &contribs, len, dsts[pe]);
            }
            m.parallel_time()
        };
        assert!(
            shmem_time < mpi_time,
            "SHMEM fcollect ({shmem_time}) must beat MPI allgather ({mpi_time})"
        );
    }
}

#[cfg(test)]
mod get_local_tests {
    use super::*;
    use ccsort_machine::{MachineConfig, Placement};

    #[test]
    fn get_local_charges_lmem_not_rmem() {
        let mut m = Machine::new(MachineConfig::origin2000(4).scaled_down(16));
        let a = m.alloc(4096, Placement::Partitioned { parts: 4 }, "a");
        let b = m.alloc(4096, Placement::Partitioned { parts: 4 }, "b");
        m.raw_mut(a)[0] = 5;
        let sh = Shmem::new(&m);
        sh.get_local(&mut m, 0, b, 0, a, 0, 256);
        assert_eq!(m.raw(b)[0], 5);
        let brk = m.breakdown(0);
        assert!(brk.lmem > 0.0, "local block transfer charges LMEM");
        assert_eq!(brk.rmem, 0.0, "no remote time for a same-node transfer");
    }
}
