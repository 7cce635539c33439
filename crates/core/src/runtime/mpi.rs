//! Message-passing runtime over the simulated shared address space.
//!
//! Two implementations, mirroring Section 1 and 4.1 of the paper:
//!
//! * [`MpiMode::Staged`] — the "pure" vendor-style library. A message is
//!   copied into an internal bounce buffer in the shared address space and
//!   copied again by the receiver into its final destination. The staging
//!   copy lets the library return early (asynchrony) but roughly doubles
//!   per-message cost — the reason the SGI MPI loses badly in Figures 1–2.
//! * [`MpiMode::Direct`] — the authors' "impure" MPICH: the sender transfers
//!   straight into the receiver's address space, which is only possible
//!   because the application's communicated data structures live in the
//!   underlying shared address space.
//!
//! Both modes use a **1-deep mailbox per (sender, receiver) pair** (the
//! lock-free queue described in the paper): a sender issuing back-to-back
//! messages to the same receiver must wait until the receiver has consumed
//! the previous one. Radix sort sends up to `2^r / p` chunks to each
//! destination per pass, so this stall is exactly MPI's extra SYNC time in
//! Figure 4(c); sample sort sends one message per pair and never stalls.

use ccsort_machine::{ArrayId, Bucket, Machine, MsgToken, Placement};

use super::cpu_copy;

/// Which MPI implementation to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiMode {
    /// Vendor-style library with staging copies ("SGI" in the figures).
    Staged,
    /// Direct-transfer MPICH variant ("NEW" in the figures).
    Direct,
}

#[derive(Debug)]
struct Pending {
    arrival: f64,
    seq: u64,
    len: usize,
    /// For staged mode: offset of the payload in the receiver's bounce
    /// buffer. `None` means the data is already in place (direct mode).
    bounce_off: Option<usize>,
    dst_arr: ArrayId,
    dst_off: usize,
    /// Happens-before edge from the sender: released once the payload is in
    /// place, acquired by the receiver's drain. Empty unless the machine's
    /// race detector is on.
    token: MsgToken,
}

/// The message-passing runtime. One instance serves all ranks.
pub struct Mpi {
    mode: MpiMode,
    p: usize,
    /// `mailbox_ready[dst * p + src]`: earliest time `src` may inject the
    /// next message for `dst` (1-deep per-pair buffer).
    mailbox_ready: Vec<f64>,
    /// Earliest time each receiver can consume its next inbound message:
    /// a receiver that is busy in its own permutation loop services the
    /// incoming-message queues of *all* its senders at a bounded rate, so
    /// back-to-back chunks from many senders queue up behind each other.
    consume_free: Vec<f64>,
    pending: Vec<Vec<Pending>>,
    bounce: Vec<ArrayId>,
    bounce_used: Vec<usize>,
    seq: u64,
    /// Fraction of the wire time a send stalls the sender. In both modes
    /// the sending CPU itself performs the copy (directly into the
    /// destination, or into the bounce buffer), so the transfer is fully
    /// exposed — the model's MPI/SHMEM difference comes from software
    /// overheads and the mailbox, not from magic overlap.
    send_stall_frac: f64,
    /// Cycles per element for the receiver-side staging copy.
    staged_copy_cyc: f64,
    /// Effective per-message consumption service time, as a multiple of the
    /// receive overhead: a receiver deep in its own compute loop polls the
    /// library only occasionally, so freeing a 1-deep mailbox takes several
    /// times the bare receive cost. This is the mechanism behind MPI's
    /// higher SYNC time in Figure 4(c).
    consume_service_mult: f64,
}

impl Mpi {
    /// Create the runtime. `bounce_capacity` (elements) bounds the data any
    /// single rank can have in flight towards one receiver between drains;
    /// only used in staged mode.
    pub fn new(m: &mut Machine, mode: MpiMode, bounce_capacity: usize) -> Self {
        let p = m.n_procs();
        let bounce = (0..p)
            .map(|pe| {
                let home = m.node_of(pe);
                m.alloc(
                    if mode == MpiMode::Staged { bounce_capacity } else { 1 },
                    Placement::Node(home),
                    "mpi-bounce",
                )
            })
            .collect();
        Mpi {
            mode,
            p,
            mailbox_ready: vec![0.0; p * p],
            consume_free: vec![0.0; p],
            pending: (0..p).map(|_| Vec::new()).collect(),
            bounce,
            bounce_used: vec![0; p],
            seq: 0,
            send_stall_frac: 1.0,
            staged_copy_cyc: 3.0,
            consume_service_mult: if mode == MpiMode::Staged { 6.0 } else { 3.0 },
        }
    }

    /// Send `len` elements from `src_arr[src_off..]` (owned by rank
    /// `src_pe`) to position `dst_off` of `dst_arr` at rank `dst_pe`. The
    /// receiver must call [`Mpi::drain`] before reading the data.
    #[allow(clippy::too_many_arguments)]
    pub fn send(
        &mut self,
        m: &mut Machine,
        src_pe: usize,
        src_arr: ArrayId,
        src_off: usize,
        dst_pe: usize,
        dst_arr: ArrayId,
        dst_off: usize,
        len: usize,
    ) {
        if len == 0 {
            return;
        }
        if src_pe == dst_pe {
            // Self-messages degenerate to a local copy (as the real
            // programs do).
            cpu_copy(m, src_pe, src_arr, src_off, dst_arr, dst_off, len, 1.0);
            return;
        }
        let cfg = m.cfg();
        let send_ov = cfg.mpi_send_overhead_ns
            + if self.mode == MpiMode::Staged { cfg.mpi_staged_extra_ns } else { 0.0 };
        let recv_ov = cfg.mpi_recv_overhead_ns;

        // 1-deep mailbox: wait for the previous message in this pair's
        // buffer to be consumed.
        m.wait_until(src_pe, self.mailbox_ready[dst_pe * self.p + src_pe]);
        m.charge(src_pe, send_ov, Bucket::Rmem);

        let (t, bounce_off) = match self.mode {
            MpiMode::Direct => {
                let t = m.dma_copy(src_pe, src_arr, src_off, dst_arr, dst_off, len, false);
                (t, None)
            }
            MpiMode::Staged => {
                let off = self.bounce_used[dst_pe];
                assert!(
                    off + len <= m.len(self.bounce[dst_pe]),
                    "MPI bounce buffer overflow at rank {dst_pe}: capacity too small"
                );
                let t = m.dma_copy(src_pe, src_arr, src_off, self.bounce[dst_pe], off, len, false);
                self.bounce_used[dst_pe] = off + len;
                (t, Some(off))
            }
        };

        m.charge(src_pe, self.send_stall_frac * t, Bucket::Rmem);
        let arrival = m.now(src_pe) + (1.0 - self.send_stall_frac) * t;
        // The receiver consumes inbound messages (from all senders) one at
        // a time; this message's slot frees this pair's mailbox.
        let service = recv_ov * self.consume_service_mult;
        let consume = self.consume_free[dst_pe].max(arrival) + service;
        self.consume_free[dst_pe] = consume;
        self.mailbox_ready[dst_pe * self.p + src_pe] = consume;
        m.count_message(src_pe, len * 4);

        self.seq += 1;
        self.pending[dst_pe].push(Pending {
            arrival,
            seq: self.seq,
            len,
            bounce_off,
            dst_arr,
            dst_off,
            // The payload (direct destination or bounce buffer) is in place:
            // everything the sender did up to here happens-before whatever
            // the receiver does after completing this message in `drain`.
            token: m.hb_release(src_pe),
        });
    }

    /// Complete every message destined to `pe`: wait for arrival, pay the
    /// receive overhead and (in staged mode) perform the copy out of the
    /// bounce buffer into the real destination.
    pub fn drain(&mut self, m: &mut Machine, pe: usize) {
        let mut msgs = std::mem::take(&mut self.pending[pe]);
        msgs.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).unwrap().then(a.seq.cmp(&b.seq)));
        let recv_ov = m.cfg().mpi_recv_overhead_ns;
        for msg in msgs {
            m.wait_until(pe, msg.arrival);
            m.hb_acquire(pe, &msg.token);
            m.charge(pe, recv_ov, Bucket::Rmem);
            if let Some(off) = msg.bounce_off {
                cpu_copy(m, pe, self.bounce[pe], off, msg.dst_arr, msg.dst_off, msg.len, self.staged_copy_cyc);
            }
        }
        self.bounce_used[pe] = 0;
    }

    /// Number of messages currently queued for `pe`.
    #[cfg(test)]
    pub fn pending_for(&self, pe: usize) -> usize {
        self.pending[pe].len()
    }

    /// `MPI_Allgather`, executed by rank `pe`: gather `len` elements from
    /// every rank's `(array, offset)` contribution into `pe`'s local
    /// replica `dst` (layout: rank `j`'s block at `dst[j*len..]`).
    ///
    /// Modelled as the ring algorithm's cost: `p-1` receive+send steps, each
    /// paying both software overheads plus the (mostly exposed) wire time.
    /// This is the "expensive collective ... fixed cost that does not change
    /// with the data set size" the paper blames for MPI's poor small-set
    /// performance.
    pub fn allgather(
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
                let cfg = m.cfg();
                let ov = cfg.mpi_send_overhead_ns
                    + cfg.mpi_recv_overhead_ns
                    + if self.mode == MpiMode::Staged { cfg.mpi_staged_extra_ns } else { 0.0 };
                m.charge(pe, ov, Bucket::Rmem);
                // Histograms/samples are fixed-size structures: time a
                // representative prefix, move the rest untimed.
                let k = m.fixed_prefix(len);
                let t = m.dma_copy(pe, src_arr, src_off, dst, j * len, k, true);
                m.charge(pe, t, Bucket::Rmem);
                if len > k {
                    #[expect(clippy::disallowed_methods, reason = "the dma_copy above charges the \
                        scaled cost of this fixed-size transfer; the remainder moves untimed by \
                        the fixed-structure discipline")]
                    m.copy_untimed(pe, src_arr, src_off + k, dst, j * len + k, len - k);
                }
                m.count_message(pe, len * 4);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsort_machine::MachineConfig;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineConfig::origin2000(p).scaled_down(16))
    }

    fn partitioned_pair(m: &mut Machine, n: usize, p: usize) -> (ArrayId, ArrayId) {
        let a = m.alloc(n, Placement::Partitioned { parts: p }, "src");
        let b = m.alloc(n, Placement::Partitioned { parts: p }, "dst");
        (a, b)
    }

    #[test]
    fn direct_send_places_data_immediately() {
        let mut m = machine(4);
        let (a, b) = partitioned_pair(&mut m, 4096, 4);
        for i in 0..1024 {
            m.raw_mut(a)[i] = i as u32;
        }
        let mut mpi = Mpi::new(&mut m, MpiMode::Direct, 0);
        mpi.send(&mut m, 0, a, 0, 1, b, 1024, 256);
        assert_eq!(m.raw(b)[1024], 0);
        assert_eq!(m.raw(b)[1279], 255);
        assert_eq!(mpi.pending_for(1), 1);
        mpi.drain(&mut m, 1);
        assert_eq!(mpi.pending_for(1), 0);
        assert_eq!(m.events(0).messages, 1);
        assert_eq!(m.events(0).message_bytes, 1024);
    }

    #[test]
    fn staged_send_lands_only_after_drain() {
        let mut m = machine(4);
        let (a, b) = partitioned_pair(&mut m, 4096, 4);
        for i in 0..256 {
            m.raw_mut(a)[i] = 7 + i as u32;
        }
        let mut mpi = Mpi::new(&mut m, MpiMode::Staged, 2048);
        mpi.send(&mut m, 0, a, 0, 2, b, 2048, 256);
        assert_eq!(m.raw(b)[2048], 0, "staged data must sit in the bounce buffer");
        mpi.drain(&mut m, 2);
        assert_eq!(m.raw(b)[2048], 7);
        assert_eq!(m.raw(b)[2303], 262);
    }

    #[test]
    fn staged_costs_more_than_direct() {
        // Compare the exposed communication (RMEM) cost: staging pays an
        // extra per-message overhead at the sender and a full copy at the
        // receiver. Spread destinations so mailbox pacing doesn't dominate.
        let rmem_for = |mode| {
            let mut m = machine(4);
            let (a, b) = partitioned_pair(&mut m, 8192, 4);
            let mut mpi = Mpi::new(&mut m, mode, 4096);
            for k in 0..9 {
                mpi.send(&mut m, 0, a, k * 128, 1 + k % 3, b, 2048 + k * 128, 128);
            }
            for pe in 1..4 {
                mpi.drain(&mut m, pe);
            }
            (0..4).map(|pe| m.breakdown(pe).rmem).sum::<f64>()
        };
        assert!(
            rmem_for(MpiMode::Staged) > 1.2 * rmem_for(MpiMode::Direct),
            "staging copies must make messages substantially more expensive"
        );
    }

    #[test]
    fn one_deep_mailbox_stalls_back_to_back_sends() {
        let mut m = machine(4);
        let (a, b) = partitioned_pair(&mut m, 8192, 4);
        let mut mpi = Mpi::new(&mut m, MpiMode::Direct, 0);
        let sync_before = m.breakdown(0).sync;
        // Ten consecutive chunks to the same receiver.
        for k in 0..10 {
            mpi.send(&mut m, 0, a, k * 64, 1, b, 2048 + k * 64, 64);
        }
        assert!(
            m.breakdown(0).sync > sync_before,
            "sender must stall on the 1-deep per-pair buffer"
        );
        // Alternating destinations: far less stall per message.
        let mut m2 = machine(4);
        let (a2, b2) = partitioned_pair(&mut m2, 8192, 4);
        let mut mpi2 = Mpi::new(&mut m2, MpiMode::Direct, 0);
        for k in 0..10 {
            mpi2.send(&mut m2, 0, a2, k * 64, 1 + (k % 3), b2, 2048 + k * 64, 64);
        }
        assert!(m2.breakdown(0).sync < m.breakdown(0).sync);
    }

    #[test]
    fn self_send_is_a_local_copy() {
        let mut m = machine(2);
        let (a, b) = partitioned_pair(&mut m, 1024, 2);
        m.raw_mut(a)[3] = 99;
        let mut mpi = Mpi::new(&mut m, MpiMode::Direct, 0);
        mpi.send(&mut m, 0, a, 0, 0, b, 0, 16);
        assert_eq!(m.raw(b)[3], 99);
        assert_eq!(m.events(0).messages, 0, "self-sends are not network messages");
    }

    #[test]
    fn allgather_replicates_all_contributions() {
        let p = 4;
        let mut m = machine(p);
        let src = m.alloc(p * 8, Placement::Partitioned { parts: p }, "contrib");
        for pe in 0..p {
            for i in 0..8 {
                m.raw_mut(src)[pe * 8 + i] = (pe * 100 + i) as u32;
            }
        }
        let dsts: Vec<ArrayId> = (0..p)
            .map(|pe| m.alloc(p * 8, Placement::Node(m.node_of(pe)), "replica"))
            .collect();
        let mpi = Mpi::new(&mut m, MpiMode::Direct, 0);
        let contribs: Vec<(ArrayId, usize)> = (0..p).map(|j| (src, j * 8)).collect();
        for pe in 0..p {
            mpi.allgather(&mut m, pe, &contribs, 8, dsts[pe]);
        }
        m.barrier();
        for pe in 0..p {
            for j in 0..p {
                for i in 0..8 {
                    assert_eq!(m.raw(dsts[pe])[j * 8 + i], (j * 100 + i) as u32);
                }
            }
        }
        // Each rank paid for p-1 messages.
        assert_eq!(m.events(0).messages, (p - 1) as u64);
    }

    #[test]
    #[should_panic(expected = "bounce buffer overflow")]
    fn staged_bounce_overflow_is_detected() {
        let mut m = machine(2);
        let (a, b) = partitioned_pair(&mut m, 1024, 2);
        let mut mpi = Mpi::new(&mut m, MpiMode::Staged, 64);
        mpi.send(&mut m, 0, a, 0, 1, b, 512, 64);
        mpi.send(&mut m, 0, a, 64, 1, b, 576, 64); // second message overflows
    }
}

#[cfg(test)]
mod pacing_tests {
    use super::*;
    use ccsort_machine::MachineConfig;

    #[test]
    fn drain_completes_in_arrival_order_across_senders() {
        let mut m = Machine::new(MachineConfig::origin2000(4).scaled_down(16));
        let a = m.alloc(4096, Placement::Partitioned { parts: 4 }, "a");
        let b = m.alloc(4096, Placement::Partitioned { parts: 4 }, "b");
        let mut mpi = Mpi::new(&mut m, MpiMode::Direct, 0);
        // Senders 0..3 each send one message to rank 3 from different
        // starting times.
        for src in 0..3 {
            m.charge(src, 1000.0 * (3 - src) as f64, ccsort_machine::Bucket::Busy);
            mpi.send(&mut m, src, a, src * 64, 3, b, 3072 + src * 64, 64);
        }
        let before = m.now(3);
        mpi.drain(&mut m, 3);
        assert!(m.now(3) > before, "receiver must pay receive overheads");
        assert_eq!(mpi.pending_for(3), 0);
    }

    #[test]
    fn staged_mode_paces_slower_than_direct() {
        let run = |mode| {
            let mut m = Machine::new(MachineConfig::origin2000(4).scaled_down(16));
            let a = m.alloc(8192, Placement::Partitioned { parts: 4 }, "a");
            let b = m.alloc(8192, Placement::Partitioned { parts: 4 }, "b");
            let mut mpi = Mpi::new(&mut m, mode, 4096);
            for k in 0..16 {
                mpi.send(&mut m, 0, a, k * 64, 1, b, 2048 + k * 64, 64);
            }
            m.now(0)
        };
        assert!(run(MpiMode::Staged) > run(MpiMode::Direct));
    }

    #[test]
    fn messages_to_distinct_receivers_interleave_freely() {
        let mut m = Machine::new(MachineConfig::origin2000(8).scaled_down(16));
        let a = m.alloc(8192, Placement::Partitioned { parts: 8 }, "a");
        let b = m.alloc(8192, Placement::Partitioned { parts: 8 }, "b");
        let mut mpi = Mpi::new(&mut m, MpiMode::Direct, 0);
        // Round-robin over 7 receivers: each pair sees gaps, so the 1-deep
        // mailbox rarely blocks.
        let sync0 = m.breakdown(0).sync;
        for k in 0..21 {
            mpi.send(&mut m, 0, a, k * 32, 1 + k % 7, b, 1024 + k * 32, 32);
        }
        let spread_sync = m.breakdown(0).sync - sync0;

        let mut m2 = Machine::new(MachineConfig::origin2000(8).scaled_down(16));
        let a2 = m2.alloc(8192, Placement::Partitioned { parts: 8 }, "a");
        let b2 = m2.alloc(8192, Placement::Partitioned { parts: 8 }, "b");
        let mut mpi2 = Mpi::new(&mut m2, MpiMode::Direct, 0);
        for k in 0..21 {
            mpi2.send(&mut m2, 0, a2, k * 32, 1, b2, 1024 + k * 32, 32);
        }
        let focused_sync = m2.breakdown(0).sync;
        assert!(
            focused_sync > spread_sync,
            "hammering one receiver ({focused_sync}) must stall more than spreading ({spread_sync})"
        );
    }
}
