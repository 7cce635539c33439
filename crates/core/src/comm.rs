//! The [`Communicator`] trait: everything the three programming models do
//! differently inside the two sorting skeletons, `radix::sort` and
//! `sample::sort_with_comm`.
//!
//! The paper's whole argument is that the *same* radix/sample algorithm
//! behaves differently under CC-SAS, MPI, and SHMEM. This module factors
//! that comparison the way BSP sorting studies do (Gerbessiotis &
//! Siniolakis): each skeleton is written once, and each superstep whose
//! data movement differs by model is one method, owned whole by the model —
//! histogram publication and combination (prefix tree vs `MPI_Allgather` vs
//! `shmem_fcollect`), the radix permutation of each pass, and the
//! sample-sort splitter, count and key exchanges. The runtimes underneath
//! ([`Mpi`], [`Shmem`], [`PrefixTree`]) live in [`crate::runtime`], private
//! to this crate like the communicators.
//!
//! Three implementations cover the paper's models, each with two radix
//! permutation styles ([`Permute`]):
//!
//! * [`CcsasComm`] — load/store shared memory with the SPLASH-2 binary
//!   [`PrefixTree`]; permutes with [`Permute::DirectScatter`] (the original
//!   program) or [`Permute::ContiguousCopy`] ("CC-SAS-NEW").
//! * [`MpiComm`] — two-sided messages ([`Mpi`], staged or direct mode);
//!   permutes with [`Permute::ChunkMessages`] (one message per
//!   contiguously-destined chunk) or [`Permute::CoalescedMessages`]
//!   (IS-style, one message per destination).
//! * [`ShmemComm`] — one-sided [`Shmem`]; permutes with
//!   [`Permute::ReceiverGet`] (the paper's choice: `get` installs lines in
//!   the destination cache) or [`Permute::SenderPut`] (the alternative the
//!   paper argues against — `put` deposits in no cache, so the destination
//!   pays the misses in the next pass).
//!
//! Every method reproduces, call for call, the `Machine` access sequence of
//! the hand-written variant it replaced — allocation order, timed reads,
//! busy charges, barriers — so phase sections, BUSY/LMEM/RMEM/SYNC
//! breakdowns, event counters and race-detector verdicts are bit-identical
//! to the pre-trait programs.

use ccsort_machine::{ArrayId, Machine, Placement};

use crate::common::{exclusive_scan, part_range};
use crate::costs;
use crate::radix::{blocked_permute, split_by_owner, ChunkPiece};
use crate::runtime::{cpu_copy, read_fixed, write_fixed, Mpi, MpiMode, PrefixTree, Shmem};

/// Processes per sample-collection group in the CC-SAS sample sort.
const GROUP: usize = 32;

/// The six data-movement styles of the radix-sort permutation phase, two
/// per model; the constructors take theirs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Permute {
    /// Fine-grained scattered writes straight into the (mostly remote)
    /// output array — the original CC-SAS program.
    DirectScatter,
    /// Permute into a local staging buffer, then copy each digit chunk to
    /// its destination as one contiguous streamed write — "CC-SAS-NEW".
    ContiguousCopy,
    /// Stage locally, then send each contiguously-destined chunk as a
    /// separate message — the paper's winning MPI strategy.
    ChunkMessages,
    /// Stage locally, then send one coalesced message per destination
    /// (NAS-IS style); the receiver reorganizes, paying an extra copy.
    CoalescedMessages,
    /// Stage locally; the *receiver* pulls every chunk landing in its
    /// partition with a one-sided `get` — the paper's SHMEM program.
    ReceiverGet,
    /// Stage locally; the *sender* pushes each chunk with a one-sided
    /// `put`, leaving the keys uncached at the destination.
    SenderPut,
}

/// Global destination offsets for every (process, digit) chunk, given all
/// local histograms: `offsets[pe][d]` is where process `pe`'s keys with
/// digit `d` start in the output array. The replicating models compute it
/// redundantly on every rank; CC-SAS reads it from the shared tree.
fn global_offsets(hists: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let p = hists.len();
    let bins = hists[0].len();
    let mut totals = vec![0u32; bins];
    for h in hists {
        for (t, &c) in totals.iter_mut().zip(h) {
            *t += c;
        }
    }
    let scan = exclusive_scan(&totals);
    let mut out = vec![vec![0u32; bins]; p];
    let mut running = scan;
    for pe in 0..p {
        out[pe].copy_from_slice(&running);
        for (r, &c) in running.iter_mut().zip(&hists[pe]) {
            *r += c;
        }
    }
    out
}

/// The all-to-all layout of the sample-sort key exchange, precomputed by
/// the skeleton (host math; the binary-search work is charged separately):
/// process `i` sends `counts[i][j]` keys from `src_off[i][j]` to
/// `dst_off[i][j]` in the receive array.
pub(crate) struct ExchangePlan {
    pub counts: Vec<Vec<u32>>,
    pub src_off: Vec<Vec<usize>>,
    pub dst_off: Vec<Vec<usize>>,
    /// Largest single receive region (sizes the MPI bounce buffers).
    pub max_region: usize,
}

/// One programming model's supersteps, as the radix- and sample-sort
/// skeletons call them. Each method is a whole superstep of one model, and
/// every model writes all nine: there are no default bodies.
pub(crate) trait Communicator {
    /// Open a program phase: a machine section boundary, except under the
    /// coalesced-MPI program, which historically kept no sections (the
    /// tradeoff harness depends on that).
    fn section(&self, m: &mut Machine, name: &'static str);

    /// Allocate whatever the model needs for a radix sort of `n` keys with
    /// `bins`-way histograms, in the model's historical allocation order
    /// (allocation order decides page layout and therefore timing).
    fn setup_radix(&mut self, m: &mut Machine, n: usize, bins: usize);

    /// Publish `pe`'s local histogram (tree leaves under CC-SAS, the
    /// symmetric histogram array under MPI/SHMEM).
    fn publish_hist(&mut self, m: &mut Machine, pe: usize, hist: &[u32]);

    /// Close the publication phase. MPI/SHMEM barrier here; the CC-SAS tree
    /// does not (its accumulation opens with a barrier of its own, charged
    /// to the combine section exactly as the original program did).
    fn publish_done(&mut self, m: &mut Machine);

    /// Combine the published histograms so every process can obtain global
    /// ranks: tree accumulation, `MPI_Allgather`, or `shmem_fcollect`.
    fn combine(&mut self, m: &mut Machine);

    /// Radix phase 3 (and 4, where the style has one) of digit `pass`: move
    /// every key of `src` to its rank in `dst`, given every process's local
    /// histogram. The skeleton supplies the closing barrier.
    fn permute(
        &mut self,
        m: &mut Machine,
        keys: [ArrayId; 2],
        n: usize,
        pass: u32,
        r: u32,
        hists: &[Vec<u32>],
    );

    /// Sample-sort phase 3: combine the `p * s` published samples and
    /// return the `p - 1` splitters (every model computes the same values;
    /// they differ in who sorts what and what travels).
    fn select_splitters(&mut self, m: &mut Machine, samples: ArrayId, s: usize) -> Vec<u32>;

    /// Sample-sort count exchange: replicate the published `p × p` count
    /// matrix on every rank (shared reads, allgather, or fcollect).
    fn replicate_counts(&mut self, m: &mut Machine, flat_counts: ArrayId);

    /// Sample-sort phase 4: move every bucket to its destination per the
    /// plan. Contiguous remote reads under CC-SAS, send/recv under MPI,
    /// `get` under SHMEM. The skeleton supplies the closing barrier.
    fn exchange_keys(&mut self, m: &mut Machine, sorted: ArrayId, recv: ArrayId, plan: &ExchangePlan);
}

// ---------------------------------------------------------------------------
// CC-SAS
// ---------------------------------------------------------------------------

/// Load/store shared memory: histogram combination through the shared
/// binary [`PrefixTree`], splitters through delegated group collectors.
pub(crate) struct CcsasComm {
    style: Permute,
    bins: usize,
    tree: Option<PrefixTree>,
    stage: Option<ArrayId>,
}

impl CcsasComm {
    /// `style` must be [`Permute::DirectScatter`] (the original program) or
    /// [`Permute::ContiguousCopy`] (CC-SAS-NEW).
    pub(crate) fn new(style: Permute) -> Self {
        assert!(
            matches!(style, Permute::DirectScatter | Permute::ContiguousCopy),
            "CC-SAS permutes by direct scatter or buffered contiguous copy, not {style:?}"
        );
        CcsasComm { style, bins: 0, tree: None, stage: None }
    }

    fn tree(&self) -> &PrefixTree {
        self.tree.as_ref().expect("setup_radix not called")
    }

    /// `pe`'s timed read of the accumulated tree and its scan: `ranks[d]` is
    /// where `pe`'s digit-`d` keys start in the output.
    fn read_ranks(&self, m: &mut Machine, pe: usize) -> Vec<u32> {
        let bins = self.bins;
        let mut pref = vec![0u32; bins];
        let mut tot = vec![0u32; bins];
        let tree = self.tree();
        tree.read_prefix(m, pe, &mut pref);
        tree.read_totals(m, pe, &mut tot);
        m.busy_cycles_fixed(pe, costs::SCAN_CYC_PER_BIN * bins as f64);
        let scan = exclusive_scan(&tot);
        (0..bins).map(|d| scan[d] + pref[d]).collect()
    }
}

impl Communicator for CcsasComm {
    fn section(&self, m: &mut Machine, name: &'static str) {
        m.section(name);
    }

    fn setup_radix(&mut self, m: &mut Machine, n: usize, bins: usize) {
        let p = m.n_procs();
        self.bins = bins;
        self.tree = Some(PrefixTree::new(m, p, bins));
        if self.style == Permute::ContiguousCopy {
            // The per-process staging buffer: each process owns its
            // partition and lays its keys out grouped by digit.
            self.stage = Some(m.alloc(n, Placement::Partitioned { parts: p }, "stage"));
        }
    }

    fn publish_hist(&mut self, m: &mut Machine, pe: usize, hist: &[u32]) {
        self.tree().set_local(m, pe, hist);
    }

    fn publish_done(&mut self, _m: &mut Machine) {
        // The tree accumulation opens with its own barrier.
    }

    fn combine(&mut self, m: &mut Machine) {
        self.tree().accumulate(m);
    }

    fn permute(
        &mut self,
        m: &mut Machine,
        [src, dst]: [ArrayId; 2],
        n: usize,
        pass: u32,
        r: u32,
        hists: &[Vec<u32>],
    ) {
        let p = m.n_procs();
        let bins = 1usize << r;
        if self.style == Permute::DirectScatter {
            self.section(m, "permute");
            for pe in 0..p {
                let mut cursors = self.read_ranks(m, pe);
                // The defining access of the original CC-SAS program:
                // fine-grained writes straight into other processes'
                // partitions.
                blocked_permute(
                    m,
                    pe,
                    src,
                    dst,
                    n,
                    p,
                    &mut cursors,
                    0,
                    costs::PERMUTE_CYC_PER_KEY,
                    pass,
                    r,
                );
            }
            return;
        }

        // Permute into the local staging buffer (scattered but *local*:
        // cheap misses, no remote protocol storm)...
        self.section(m, "permute");
        let stage = self.stage.expect("setup_radix not called");
        for pe in 0..p {
            let base = part_range(n, p, pe).start;
            let mut cursors = exclusive_scan(&hists[pe]);
            blocked_permute(
                m,
                pe,
                src,
                stage,
                n,
                p,
                &mut cursors,
                base,
                costs::PERMUTE_CYC_PER_KEY + costs::BUFFER_EXTRA_CYC_PER_KEY,
                pass,
                r,
            );
        }
        m.barrier();
        // ...then copy each digit chunk to its (remote) destination as one
        // contiguous streamed transfer.
        self.section(m, "exchange");
        for pe in 0..p {
            let ranks = self.read_ranks(m, pe);
            let base = part_range(n, p, pe).start;
            let lscan = exclusive_scan(&hists[pe]);
            for d in 0..bins {
                let len = hists[pe][d] as usize;
                if len == 0 {
                    continue;
                }
                cpu_copy(
                    m,
                    pe,
                    stage,
                    base + lscan[d] as usize,
                    dst,
                    ranks[d] as usize,
                    len,
                    costs::COPY_CYC_PER_KEY,
                );
            }
        }
    }

    fn select_splitters(&mut self, m: &mut Machine, samples: ArrayId, s: usize) -> Vec<u32> {
        let p = m.n_procs();
        let total = p * s;
        // Groups of up to GROUP processes; the group's first member
        // collects and sorts the group's samples into a shared array.
        let collected = m.alloc(total, Placement::Node(0), "collected-samples");
        let n_groups = p.div_ceil(GROUP);
        for g in 0..n_groups {
            let leader = g * GROUP;
            let gsize = GROUP.min(p - leader);
            let cnt = gsize * s;
            let mut buf = vec![0u32; cnt];
            read_fixed(m, leader, samples, leader * s, &mut buf);
            m.busy_cycles_fixed(
                leader,
                costs::SORT_CYC_PER_CMP * cnt as f64 * (cnt.max(2) as f64).log2(),
            );
            buf.sort_unstable();
            write_fixed(m, leader, collected, leader * s, &buf);
        }
        m.barrier();
        // The first leader merges the (sorted) group blocks and publishes
        // the splitters.
        let splitter_arr = m.alloc((p - 1).max(1), Placement::Node(0), "splitters");
        let all = {
            let mut buf = vec![0u32; total];
            read_fixed(m, 0, collected, 0, &mut buf);
            m.busy_cycles_fixed(
                0,
                costs::SORT_CYC_PER_CMP * total as f64 * (n_groups.max(2) as f64).log2(),
            );
            buf.sort_unstable();
            let spl: Vec<u32> = (1..p).map(|k| buf[k * total / p]).collect();
            if !spl.is_empty() {
                write_fixed(m, 0, splitter_arr, 0, &spl);
            }
            buf
        };
        m.barrier();
        // Everyone reads the shared splitters (fine-grained shared read).
        let mut spl = vec![0u32; (p - 1).max(1)];
        for pe in 0..p {
            if p > 1 {
                read_fixed(m, pe, splitter_arr, 0, &mut spl);
            }
        }
        m.barrier();
        (1..p).map(|k| all[k * total / p]).collect()
    }

    fn replicate_counts(&mut self, m: &mut Machine, flat_counts: ArrayId) {
        let p = m.n_procs();
        // Everyone reads the shared count matrix directly.
        for pe in 0..p {
            let mut buf = vec![0u32; p * p];
            read_fixed(m, pe, flat_counts, 0, &mut buf);
            m.busy_cycles_fixed(pe, costs::OFFSET_CYC_PER_ENTRY * (p * p) as f64);
        }
    }

    fn exchange_keys(&mut self, m: &mut Machine, sorted: ArrayId, recv: ArrayId, plan: &ExchangePlan) {
        let p = m.n_procs();
        // Receiver-side remote reads: one contiguous copy per source.
        for j in 0..p {
            for i in 0..p {
                let len = plan.counts[i][j] as usize;
                if len > 0 {
                    cpu_copy(
                        m,
                        j,
                        sorted,
                        plan.src_off[i][j],
                        recv,
                        plan.dst_off[i][j],
                        len,
                        costs::COPY_CYC_PER_KEY,
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The replicating models' shared half (MPI, SHMEM)
// ---------------------------------------------------------------------------

/// `Mpi::allgather` or `Shmem::fcollect`: rank `pe` gathers `len` elements
/// from every rank's `(array, offset)` contribution into its own replica.
type Collective<R> = fn(&R, &mut Machine, usize, &[(ArrayId, usize)], usize, ArrayId);

/// What MPI and SHMEM do alike but for the collective's name: histograms go
/// into one symmetric array, the collective copies all `p` into every rank's
/// replica, every rank combines redundantly. Samples and counts likewise.
struct Replicated {
    bins: usize,
    hist_arr: ArrayId,
    replicas: Vec<ArrayId>,
}

/// One `len`-element replica per rank, each on its rank's node.
fn alloc_replicas(m: &mut Machine, len: usize, name: &'static str) -> Vec<ArrayId> {
    (0..m.n_procs()).map(|pe| m.alloc(len, Placement::Node(m.node_of(pe)), name)).collect()
}

impl Replicated {
    /// Allocate the symmetric histogram array, then every rank's replica.
    fn new(m: &mut Machine, bins: usize) -> Self {
        let p = m.n_procs();
        let hist_arr = m.alloc(p * bins, Placement::Partitioned { parts: p }, "hists");
        let replicas = alloc_replicas(m, p * bins, "hist-replica");
        Replicated { bins, hist_arr, replicas }
    }

    fn publish_hist(&self, m: &mut Machine, pe: usize, hist: &[u32]) {
        m.busy_cycles_fixed(pe, self.bins as f64);
        write_fixed(m, pe, self.hist_arr, pe * self.bins, hist);
    }

    fn combine<R>(&self, m: &mut Machine, runtime: &R, gather: Collective<R>) {
        let p = m.n_procs();
        let contribs: Vec<(ArrayId, usize)> = (0..p).map(|j| (self.hist_arr, j * self.bins)).collect();
        for pe in 0..p {
            gather(runtime, m, pe, &contribs, self.bins, self.replicas[pe]);
        }
        m.barrier();
    }

    /// Redundant local combine of all `p` histograms; the ranks themselves
    /// are the precomputed `offsets[pe]`.
    fn read_ranks(&self, m: &mut Machine, pe: usize, offsets: &[Vec<u32>]) -> Vec<u32> {
        let entries = m.n_procs() * self.bins;
        let mut replica = vec![0u32; entries];
        read_fixed(m, pe, self.replicas[pe], 0, &mut replica);
        m.busy_cycles_fixed(pe, costs::OFFSET_CYC_PER_ENTRY * entries as f64);
        offsets[pe].clone()
    }
}

/// Every rank gathers all `p * s` samples, sorts them redundantly and picks
/// the same splitters. `runtime` is built after the replicas are allocated
/// (MPI's bounce buffers follow them in memory).
fn replicated_splitters<R>(
    m: &mut Machine,
    samples: ArrayId,
    s: usize,
    runtime: impl FnOnce(&mut Machine) -> R,
    gather: Collective<R>,
) -> Vec<u32> {
    let p = m.n_procs();
    let total = p * s;
    let mut all = vec![0u32; total];
    let mut other = vec![0u32; total];
    let replicas = alloc_replicas(m, total, "sample-replica");
    let contribs: Vec<(ArrayId, usize)> = (0..p).map(|j| (samples, j * s)).collect();
    let runtime = runtime(m);
    for pe in 0..p {
        gather(&runtime, m, pe, &contribs, s, replicas[pe]);
        // Every rank's replica holds the same samples: only rank 0's copy
        // is sorted on the host; every rank is charged for its own sort.
        read_fixed(m, pe, replicas[pe], 0, if pe == 0 { &mut all } else { &mut other });
        m.busy_cycles_fixed(pe, costs::SORT_CYC_PER_CMP * total as f64 * (total.max(2) as f64).log2());
    }
    all.sort_unstable();
    m.barrier();
    (1..p).map(|k| all[k * total / p]).collect()
}

/// Every rank gathers the whole `p × p` count matrix into a fresh replica;
/// `runtime` is built first.
fn replicated_counts<R>(
    m: &mut Machine,
    flat_counts: ArrayId,
    runtime: impl FnOnce(&mut Machine) -> R,
    gather: Collective<R>,
) {
    let p = m.n_procs();
    let runtime = runtime(m);
    let contribs: Vec<(ArrayId, usize)> = (0..p).map(|j| (flat_counts, j * p)).collect();
    for pe in 0..p {
        let replica = m.alloc(p * p, Placement::Node(m.node_of(pe)), "count-replica");
        gather(&runtime, m, pe, &contribs, p, replica);
        m.busy_cycles_fixed(pe, costs::OFFSET_CYC_PER_ENTRY * (p * p) as f64);
    }
}

// ---------------------------------------------------------------------------
// MPI
// ---------------------------------------------------------------------------

/// Everything a radix pass needs under MPI, allocated once in the
/// historical order of the hand-written programs.
struct MpiRadixState {
    stage: ArrayId,
    recv_buf: Option<ArrayId>,
    hists: Replicated,
    mpi: Mpi,
}

/// Two-sided message passing: allgathered histogram replicas, redundant
/// local combines, and per-chunk or coalesced messages.
pub(crate) struct MpiComm {
    mode: MpiMode,
    style: Permute,
    state: Option<MpiRadixState>,
}

impl MpiComm {
    const COLLECTIVE: Collective<Mpi> = Mpi::allgather;

    /// `style` must be [`Permute::ChunkMessages`] or
    /// [`Permute::CoalescedMessages`].
    pub(crate) fn new(mode: MpiMode, style: Permute) -> Self {
        assert!(
            matches!(style, Permute::ChunkMessages | Permute::CoalescedMessages),
            "MPI permutes by per-chunk or coalesced messages, not {style:?}"
        );
        MpiComm { mode, style, state: None }
    }

    fn state(&mut self) -> &mut MpiRadixState {
        self.state.as_mut().expect("setup_radix not called")
    }
}

impl Communicator for MpiComm {
    fn section(&self, m: &mut Machine, name: &'static str) {
        if self.style != Permute::CoalescedMessages {
            m.section(name);
        }
    }

    fn setup_radix(&mut self, m: &mut Machine, n: usize, bins: usize) {
        let p = m.n_procs();
        // Per-rank staging buffer for the local permutation.
        let stage = m.alloc(n, Placement::Partitioned { parts: p }, "stage");
        // Receive buffer: coalesced messages land here before the receiver
        // reorganizes them into the output array.
        let recv_buf = if self.style == Permute::CoalescedMessages {
            Some(m.alloc(n, Placement::Partitioned { parts: p }, "recv-buf"))
        } else {
            None
        };
        let hists = Replicated::new(m, bins);
        // Worst-case inbound data per rank per pass: its own partition plus
        // chunk-boundary slack.
        let bounce_cap = n.div_ceil(p) + 2 * bins + 64;
        let mpi = Mpi::new(m, self.mode, bounce_cap);
        self.state = Some(MpiRadixState { stage, recv_buf, hists, mpi });
    }

    fn publish_hist(&mut self, m: &mut Machine, pe: usize, hist: &[u32]) {
        self.state().hists.publish_hist(m, pe, hist);
    }

    fn publish_done(&mut self, m: &mut Machine) {
        m.barrier();
    }

    fn combine(&mut self, m: &mut Machine) {
        let st = self.state();
        st.hists.combine(m, &st.mpi, Self::COLLECTIVE);
    }

    fn permute(
        &mut self,
        m: &mut Machine,
        [src, dst]: [ArrayId; 2],
        n: usize,
        pass: u32,
        r: u32,
        hists: &[Vec<u32>],
    ) {
        let p = m.n_procs();
        let bins = 1usize << r;
        let offsets = global_offsets(hists);
        let coalesced = self.style == Permute::CoalescedMessages;
        let st = self.state();
        let stage = st.stage;
        if !coalesced {
            m.section("permute");
            for pe in 0..p {
                st.hists.read_ranks(m, pe, &offsets);
                let base = part_range(n, p, pe).start;
                let lscan = exclusive_scan(&hists[pe]);
                let mut cursors = lscan.clone();
                blocked_permute(
                    m,
                    pe,
                    src,
                    stage,
                    n,
                    p,
                    &mut cursors,
                    base,
                    costs::PERMUTE_CYC_PER_KEY + costs::BUFFER_EXTRA_CYC_PER_KEY,
                    pass,
                    r,
                );
                // Send each contiguously-destined chunk piece.
                for d in 0..bins {
                    let len = hists[pe][d] as usize;
                    if len == 0 {
                        continue;
                    }
                    let goff = offsets[pe][d] as usize;
                    for piece in split_by_owner(n, p, goff, len) {
                        st.mpi.send(
                            m,
                            pe,
                            stage,
                            base + lscan[d] as usize + piece.src_delta,
                            piece.owner,
                            dst,
                            piece.dst_off,
                            piece.len,
                        );
                    }
                }
            }
            // Receivers complete all inbound messages.
            m.section("exchange");
            for pe in 0..p {
                st.mpi.drain(m, pe);
            }
            return;
        }

        // Local permutation (as per chunk), but record every piece instead
        // of sending it: all_pieces[src_pe][dst_pe] = pieces bound for dst_pe.
        let recv_buf = st.recv_buf.expect("setup_radix not called");
        let mut all_pieces: Vec<Vec<Vec<ChunkPiece>>> = vec![vec![Vec::new(); p]; p];
        for pe in 0..p {
            st.hists.read_ranks(m, pe, &offsets);
            let base = part_range(n, p, pe).start;
            let lscan = exclusive_scan(&hists[pe]);
            let mut cursors = lscan.clone();
            blocked_permute(
                m,
                pe,
                src,
                stage,
                n,
                p,
                &mut cursors,
                base,
                costs::PERMUTE_CYC_PER_KEY + costs::BUFFER_EXTRA_CYC_PER_KEY,
                pass,
                r,
            );
            for d in 0..bins {
                let len = hists[pe][d] as usize;
                if len == 0 {
                    continue;
                }
                let goff = offsets[pe][d] as usize;
                for mut piece in split_by_owner(n, p, goff, len) {
                    // Remember where in the stage this piece starts.
                    piece.src_delta += base + lscan[d] as usize;
                    all_pieces[pe][piece.owner].push(piece);
                }
            }
        }

        // One coalesced message per (src, dst) pair. Because the global
        // offsets grow monotonically with the digit, a sender's chunks for a
        // given destination sit *contiguously* in its digit-ordered stage,
        // so the whole bundle ships as a single transfer — exactly the
        // IS-style scheme.
        let mut recv_cursor: Vec<usize> = (0..p).map(|j| part_range(n, p, j).start).collect();
        let mut landing: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); p]; // (buf_off, dst_off, len)
        for pe in 0..p {
            for j in 0..p {
                let pieces = &all_pieces[pe][j];
                let total: usize = pieces.iter().map(|c| c.len).sum();
                if total == 0 {
                    continue;
                }
                let stage_start = pieces[0].src_delta;
                debug_assert!(
                    pieces.windows(2).all(|w| w[0].src_delta + w[0].len <= w[1].src_delta),
                    "pieces must be in increasing stage order"
                );
                st.mpi.send(m, pe, stage, stage_start, j, recv_buf, recv_cursor[j], total);
                // Record where each chunk landed so the receiver can place it.
                let mut buf_off = recv_cursor[j];
                for piece in pieces {
                    // Account for any gap between pieces in the stage (keys
                    // of interleaved digits destined elsewhere) — the send
                    // shipped a contiguous run, so re-place per piece from
                    // its true stage position.
                    #[expect(clippy::disallowed_methods, reason = "the st.mpi.send() above shipped and \
                        charged the whole contiguous run; this re-places pieces of already-paid-for \
                        data at their true receiver offsets")]
                    m.copy_untimed(pe, stage, piece.src_delta, recv_buf, buf_off, piece.len);
                    landing[j].push((buf_off, piece.dst_off, piece.len));
                    buf_off += piece.len;
                }
                recv_cursor[j] = buf_off;
            }
        }
        for pe in 0..p {
            st.mpi.drain(m, pe);
        }
        m.barrier();

        // The cost of coalescing: the receiver reorganizes the chunks from
        // its recv buffer into their true positions.
        for pe in 0..p {
            for &(buf_off, dst_off, len) in &landing[pe] {
                cpu_copy(m, pe, recv_buf, buf_off, dst, dst_off, len, costs::COPY_CYC_PER_KEY);
            }
        }
    }

    fn select_splitters(&mut self, m: &mut Machine, samples: ArrayId, s: usize) -> Vec<u32> {
        replicated_splitters(m, samples, s, |m| Mpi::new(m, self.mode, 1), Self::COLLECTIVE)
    }

    fn replicate_counts(&mut self, m: &mut Machine, flat_counts: ArrayId) {
        replicated_counts(m, flat_counts, |m| Mpi::new(m, self.mode, 1), Self::COLLECTIVE);
    }

    fn exchange_keys(&mut self, m: &mut Machine, sorted: ArrayId, recv: ArrayId, plan: &ExchangePlan) {
        let p = m.n_procs();
        let mut mpi = Mpi::new(m, self.mode, plan.max_region + 64);
        for i in 0..p {
            for j in 0..p {
                let len = plan.counts[i][j] as usize;
                if len > 0 {
                    mpi.send(m, i, sorted, plan.src_off[i][j], j, recv, plan.dst_off[i][j], len);
                }
            }
        }
        for pe in 0..p {
            mpi.drain(m, pe);
        }
    }
}

// ---------------------------------------------------------------------------
// SHMEM
// ---------------------------------------------------------------------------

/// Everything a radix pass needs under SHMEM.
struct ShmemRadixState {
    stage: ArrayId,
    hists: Replicated,
    shmem: Shmem,
}

/// One-sided communication on a symmetric address space: fcollected
/// histogram replicas and `get`/`put` block transfers.
pub(crate) struct ShmemComm {
    style: Permute,
    state: Option<ShmemRadixState>,
}

impl ShmemComm {
    const COLLECTIVE: Collective<Shmem> = Shmem::fcollect;

    /// `style` must be [`Permute::ReceiverGet`] (the paper's program) or
    /// [`Permute::SenderPut`].
    pub(crate) fn new(style: Permute) -> Self {
        assert!(
            matches!(style, Permute::ReceiverGet | Permute::SenderPut),
            "SHMEM permutes by one-sided get or put, not {style:?}"
        );
        ShmemComm { style, state: None }
    }

    fn state(&self) -> &ShmemRadixState {
        self.state.as_ref().expect("setup_radix not called")
    }
}

impl Communicator for ShmemComm {
    fn section(&self, m: &mut Machine, name: &'static str) {
        m.section(name);
    }

    fn setup_radix(&mut self, m: &mut Machine, n: usize, bins: usize) {
        let p = m.n_procs();
        let stage = m.alloc(n, Placement::Partitioned { parts: p }, "stage");
        let hists = Replicated::new(m, bins);
        self.state = Some(ShmemRadixState { stage, hists, shmem: Shmem::new(m) });
    }

    fn publish_hist(&mut self, m: &mut Machine, pe: usize, hist: &[u32]) {
        self.state().hists.publish_hist(m, pe, hist);
    }

    fn publish_done(&mut self, m: &mut Machine) {
        m.barrier();
    }

    fn combine(&mut self, m: &mut Machine) {
        let st = self.state();
        st.hists.combine(m, &st.shmem, Self::COLLECTIVE);
    }

    fn permute(
        &mut self,
        m: &mut Machine,
        [src, dst]: [ArrayId; 2],
        n: usize,
        pass: u32,
        r: u32,
        hists: &[Vec<u32>],
    ) {
        let p = m.n_procs();
        let bins = 1usize << r;
        let offsets = global_offsets(hists);
        let st = self.state();
        let stage = st.stage;
        let lscans: Vec<Vec<u32>> = hists.iter().map(|h| exclusive_scan(h)).collect();
        // Local permutation into contiguous staged chunks.
        self.section(m, "permute");
        for pe in 0..p {
            st.hists.read_ranks(m, pe, &offsets);
            let base = part_range(n, p, pe).start;
            let mut cursors = lscans[pe].clone();
            blocked_permute(
                m,
                pe,
                src,
                stage,
                n,
                p,
                &mut cursors,
                base,
                costs::PERMUTE_CYC_PER_KEY + costs::BUFFER_EXTRA_CYC_PER_KEY,
                pass,
                r,
            );
        }
        m.barrier();
        self.section(m, "exchange");
        if self.style == Permute::ReceiverGet {
            // Receiver-initiated: each process walks the (replicated)
            // histogram table and `get`s every chunk piece that lands in its
            // own partition of the output.
            for pe in 0..p {
                let my = part_range(n, p, pe);
                // Scanning the p*2^r table is real (cheap) work.
                m.busy_cycles_fixed(pe, 0.5 * (p * bins) as f64);
                for j in 0..p {
                    let src_base = part_range(n, p, j).start;
                    for d in 0..bins {
                        let len = hists[j][d] as usize;
                        if len == 0 {
                            continue;
                        }
                        let goff = offsets[j][d] as usize;
                        let s = goff.max(my.start);
                        let e = (goff + len).min(my.end);
                        if s >= e {
                            continue;
                        }
                        let src_off = src_base + lscans[j][d] as usize + (s - goff);
                        if j == pe {
                            // Self-chunks move with a local block transfer.
                            st.shmem.get_local(m, pe, dst, s, stage, src_off, e - s);
                        } else {
                            st.shmem.get(m, pe, dst, s, stage, src_off, e - s);
                        }
                    }
                }
            }
        } else {
            // Sender-initiated: each process walks only its own histogram
            // row and `put`s each chunk piece into the owner's partition.
            // Half the table scan of the get version — but `put` installs
            // the keys in *no* cache, so the owner pays the misses in the
            // next pass.
            for pe in 0..p {
                m.busy_cycles_fixed(pe, 0.5 * bins as f64);
                let base = part_range(n, p, pe).start;
                for d in 0..bins {
                    let len = hists[pe][d] as usize;
                    if len == 0 {
                        continue;
                    }
                    let goff = offsets[pe][d] as usize;
                    for piece in split_by_owner(n, p, goff, len) {
                        let src_off = base + lscans[pe][d] as usize + piece.src_delta;
                        if piece.owner == pe {
                            st.shmem.get_local(m, pe, dst, piece.dst_off, stage, src_off, piece.len);
                        } else {
                            st.shmem.put(m, pe, stage, src_off, dst, piece.dst_off, piece.len);
                        }
                    }
                }
            }
        }
    }

    fn select_splitters(&mut self, m: &mut Machine, samples: ArrayId, s: usize) -> Vec<u32> {
        replicated_splitters(m, samples, s, |m| Shmem::new(m), Self::COLLECTIVE)
    }

    fn replicate_counts(&mut self, m: &mut Machine, flat_counts: ArrayId) {
        replicated_counts(m, flat_counts, |m| Shmem::new(m), Self::COLLECTIVE);
    }

    fn exchange_keys(&mut self, m: &mut Machine, sorted: ArrayId, recv: ArrayId, plan: &ExchangePlan) {
        let p = m.n_procs();
        let shmem = Shmem::new(m);
        for j in 0..p {
            for i in 0..p {
                let len = plan.counts[i][j] as usize;
                if len == 0 {
                    continue;
                }
                if i == j {
                    cpu_copy(
                        m,
                        j,
                        sorted,
                        plan.src_off[i][j],
                        recv,
                        plan.dst_off[i][j],
                        len,
                        costs::COPY_CYC_PER_KEY,
                    );
                } else {
                    shmem.get(m, j, recv, plan.dst_off[i][j], sorted, plan.src_off[i][j], len);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_offsets_rank_by_digit_then_process() {
        let hists = vec![vec![2, 0, 1, 3], vec![1, 2, 0, 1]];
        let off = global_offsets(&hists);
        assert_eq!(off[0], vec![0, 3, 5, 6]);
        assert_eq!(off[1], vec![2, 3, 6, 9]);
    }

    #[test]
    #[should_panic(expected = "CC-SAS permutes by")]
    fn ccsas_rejects_message_styles() {
        let _ = CcsasComm::new(Permute::ChunkMessages);
    }
}
