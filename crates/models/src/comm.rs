//! The [`Communicator`] transport layer: one trait per programming model,
//! one sorting skeleton per algorithm.
//!
//! The paper's whole argument is that the *same* radix/sample algorithm
//! behaves differently under CC-SAS, MPI, and SHMEM. This module factors
//! that comparison the way BSP sorting studies do (Gerbessiotis &
//! Siniolakis): the algorithm skeleton is written once in `ccsort-algos`,
//! and everything the models do differently — histogram publication and
//! combination (prefix tree vs `MPI_Allgather` vs `shmem_fcollect`),
//! exclusive-scan-to-offsets, the key-exchange transport ([`Permute`]) and
//! the sample-sort collectives — sits behind [`Communicator`].
//!
//! Three implementations cover the paper's models:
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
//! busy charges, barriers — so the refactor is observable-preserving: phase
//! sections, BUSY/LMEM/RMEM/SYNC breakdowns, event counters and
//! race-detector verdicts are bit-identical to the pre-trait programs.

use ccsort_machine::{ArrayId, Machine, Placement};

use crate::mpi::{Mpi, MpiMode};
use crate::prefix::PrefixTree;
use crate::shmem::Shmem;
use crate::{cpu_copy, read_fixed, write_fixed};

/// Processes per sample-collection group in the CC-SAS sample sort.
pub const GROUP: usize = 32;

/// The four data-movement styles of the radix-sort permutation phase, plus
/// the two one-sided directions. Which style a [`Communicator`] reports
/// decides which permutation skeleton arm runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Permute {
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

/// Instruction-cost knobs the communicators charge for the work embedded in
/// their collectives (scans, redundant combines, splitter sorts, copies).
/// The algorithm crate owns the calibrated constants and passes them in, so
/// this crate needs no dependency on it.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cycles per histogram bin for a sequential exclusive scan.
    pub scan_cyc_per_bin: f64,
    /// Cycles per entry to turn replicated histograms into offsets.
    pub offset_cyc_per_entry: f64,
    /// Cycles per element·log2(element) for a comparison sort.
    pub sort_cyc_per_cmp: f64,
    /// Extra cycles per key for a tight copy loop.
    pub copy_cyc_per_key: f64,
}

/// Exclusive prefix sum (the scan every model runs over its histograms).
pub fn exclusive_scan(v: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; v.len()];
    let mut acc = 0u32;
    for (o, &x) in out.iter_mut().zip(v) {
        *o = acc;
        acc += x;
    }
    out
}

/// Global destination offsets for every (process, digit) chunk, given all
/// local histograms: `offsets[pe][d]` is where process `pe`'s keys with
/// digit `d` start in the output array. This is the scan-to-offsets step
/// every model performs — redundantly per rank under MPI/SHMEM, through the
/// shared tree under CC-SAS.
pub fn global_offsets(hists: &[Vec<u32>]) -> Vec<Vec<u32>> {
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
pub struct ExchangePlan {
    pub counts: Vec<Vec<u32>>,
    pub src_off: Vec<Vec<usize>>,
    pub dst_off: Vec<Vec<usize>>,
    /// Largest single receive region (sizes the MPI bounce buffers).
    pub max_region: usize,
}

/// One programming model's transport operations, as used by the radix- and
/// sample-sort skeletons in `ccsort-algos`. Methods a model does not
/// support (two-sided sends on CC-SAS, one-sided gets on MPI, ...) keep
/// their panicking defaults; the skeleton only calls the operations that
/// belong to the communicator's [`Permute`] style.
pub trait Communicator {
    /// Which permutation skeleton arm this communicator drives.
    fn style(&self) -> Permute;

    /// Human name, for panics and reports.
    fn name(&self) -> &'static str;

    /// Open a program phase. Default: a machine section boundary. The
    /// coalesced-MPI instantiation overrides this to a no-op (the historical
    /// program kept no sections and the tradeoff harness depends on that).
    fn section(&self, m: &mut Machine, name: &'static str) {
        m.section(name);
    }

    /// Allocate whatever the model needs for a radix sort of `n` keys with
    /// `bins`-way histograms, in the model's historical allocation order
    /// (allocation order decides page layout and therefore timing).
    fn setup_radix(&mut self, m: &mut Machine, n: usize, bins: usize);

    /// The local staging buffer (every style except [`Permute::DirectScatter`]).
    fn stage(&self) -> ArrayId {
        panic!("{}: no staging buffer in this permute style", self.name());
    }

    /// The coalesced-message landing buffer ([`Permute::CoalescedMessages`] only).
    fn recv_buf(&self) -> ArrayId {
        panic!("{}: no receive buffer in this permute style", self.name());
    }

    /// Publish `pe`'s local histogram (tree leaves under CC-SAS, the
    /// symmetric histogram array under MPI/SHMEM).
    fn publish_hist(&mut self, m: &mut Machine, pe: usize, hist: &[u32]);

    /// Close the publication phase. MPI/SHMEM barrier here; the CC-SAS tree
    /// does not (its accumulation opens with a barrier of its own, charged
    /// to the combine section exactly as the original program did).
    fn publish_done(&mut self, m: &mut Machine);

    /// Combine the published histograms so every process can obtain global
    /// ranks: tree accumulation, `MPI_Allgather`, or `shmem_fcollect`.
    fn combine(&mut self, m: &mut Machine, hists: &[Vec<u32>]);

    /// Perform `pe`'s timed read of the combined histogram data and return
    /// its global rank row (`ranks[d]` = where `pe`'s digit-`d` keys start
    /// in the output). Under CC-SAS this reads the tree and scans; under
    /// MPI/SHMEM it reads the local replica and charges the redundant
    /// combine, returning the precomputed `offsets[pe]`.
    fn read_ranks(
        &mut self,
        m: &mut Machine,
        pe: usize,
        hists: &[Vec<u32>],
        offsets: &[Vec<u32>],
    ) -> Vec<u32>;

    /// Two-sided send (message-passing models).
    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        _m: &mut Machine,
        _src_pe: usize,
        _src_arr: ArrayId,
        _src_off: usize,
        _dst_pe: usize,
        _dst_arr: ArrayId,
        _dst_off: usize,
        _len: usize,
    ) {
        panic!("{}: two-sided messages are not part of this model", self.name());
    }

    /// Complete all inbound messages at `pe` (message-passing models).
    fn drain(&mut self, _m: &mut Machine, _pe: usize) {
        panic!("{}: two-sided messages are not part of this model", self.name());
    }

    /// One-sided `get` into `pe`'s partition (SHMEM).
    #[allow(clippy::too_many_arguments)]
    fn get(
        &mut self,
        _m: &mut Machine,
        _pe: usize,
        _dst_arr: ArrayId,
        _dst_off: usize,
        _src_arr: ArrayId,
        _src_off: usize,
        _len: usize,
    ) {
        panic!("{}: one-sided transfers are not part of this model", self.name());
    }

    /// Same-PE block transfer (SHMEM).
    #[allow(clippy::too_many_arguments)]
    fn get_local(
        &mut self,
        _m: &mut Machine,
        _pe: usize,
        _dst_arr: ArrayId,
        _dst_off: usize,
        _src_arr: ArrayId,
        _src_off: usize,
        _len: usize,
    ) {
        panic!("{}: one-sided transfers are not part of this model", self.name());
    }

    /// One-sided `put` from `pe`'s staging area into a remote partition
    /// (SHMEM; installs in no cache).
    #[allow(clippy::too_many_arguments)]
    fn put(
        &mut self,
        _m: &mut Machine,
        _pe: usize,
        _src_arr: ArrayId,
        _src_off: usize,
        _dst_arr: ArrayId,
        _dst_off: usize,
        _len: usize,
    ) {
        panic!("{}: one-sided transfers are not part of this model", self.name());
    }

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
pub struct CcsasComm {
    style: Permute,
    costs: CostModel,
    bins: usize,
    tree: Option<PrefixTree>,
    stage: Option<ArrayId>,
}

impl CcsasComm {
    /// `style` must be [`Permute::DirectScatter`] (the original program) or
    /// [`Permute::ContiguousCopy`] (CC-SAS-NEW).
    pub fn new(style: Permute, costs: CostModel) -> Self {
        assert!(
            matches!(style, Permute::DirectScatter | Permute::ContiguousCopy),
            "CC-SAS permutes by direct scatter or buffered contiguous copy, not {style:?}"
        );
        CcsasComm { style, costs, bins: 0, tree: None, stage: None }
    }

    fn tree(&self) -> &PrefixTree {
        self.tree.as_ref().expect("setup_radix not called")
    }
}

impl Communicator for CcsasComm {
    fn style(&self) -> Permute {
        self.style
    }

    fn name(&self) -> &'static str {
        "CC-SAS"
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

    fn stage(&self) -> ArrayId {
        self.stage.expect("DirectScatter CC-SAS has no staging buffer")
    }

    fn publish_hist(&mut self, m: &mut Machine, pe: usize, hist: &[u32]) {
        self.tree().set_local(m, pe, hist);
    }

    fn publish_done(&mut self, _m: &mut Machine) {
        // The tree accumulation opens with its own barrier.
    }

    fn combine(&mut self, m: &mut Machine, _hists: &[Vec<u32>]) {
        self.tree().accumulate(m);
    }

    fn read_ranks(
        &mut self,
        m: &mut Machine,
        pe: usize,
        _hists: &[Vec<u32>],
        _offsets: &[Vec<u32>],
    ) -> Vec<u32> {
        let bins = self.bins;
        let mut pref = vec![0u32; bins];
        let mut tot = vec![0u32; bins];
        let tree = self.tree.as_ref().expect("setup_radix not called");
        tree.read_prefix(m, pe, &mut pref);
        tree.read_totals(m, pe, &mut tot);
        m.busy_cycles_fixed(pe, self.costs.scan_cyc_per_bin * bins as f64);
        let scan = exclusive_scan(&tot);
        (0..bins).map(|d| scan[d] + pref[d]).collect()
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
                self.costs.sort_cyc_per_cmp * cnt as f64 * (cnt.max(2) as f64).log2(),
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
                self.costs.sort_cyc_per_cmp * total as f64 * (n_groups.max(2) as f64).log2(),
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
            m.busy_cycles_fixed(pe, self.costs.offset_cyc_per_entry * (p * p) as f64);
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
                        self.costs.copy_cyc_per_key,
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
    costs: CostModel,
    bins: usize,
    hist_arr: ArrayId,
    replicas: Vec<ArrayId>,
}

/// One `len`-element replica per rank, each on its rank's node.
fn alloc_replicas(m: &mut Machine, len: usize, name: &'static str) -> Vec<ArrayId> {
    (0..m.n_procs()).map(|pe| m.alloc(len, Placement::Node(m.topo().node_of(pe)), name)).collect()
}

impl Replicated {
    /// Allocate the symmetric histogram array, then every rank's replica.
    fn new(m: &mut Machine, bins: usize, costs: CostModel) -> Self {
        let p = m.n_procs();
        let hist_arr = m.alloc(p * bins, Placement::Partitioned { parts: p }, "hists");
        let replicas = alloc_replicas(m, p * bins, "hist-replica");
        Replicated { costs, bins, hist_arr, replicas }
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
        m.busy_cycles_fixed(pe, self.costs.offset_cyc_per_entry * entries as f64);
        offsets[pe].clone()
    }
}

/// Every rank gathers all `p * s` samples, sorts them redundantly and picks
/// the same splitters. `runtime` is built after the replicas are allocated
/// (MPI's bounce buffers follow them in memory).
fn replicated_splitters<R>(
    m: &mut Machine,
    costs: &CostModel,
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
        m.busy_cycles_fixed(pe, costs.sort_cyc_per_cmp * total as f64 * (total.max(2) as f64).log2());
    }
    all.sort_unstable();
    m.barrier();
    (1..p).map(|k| all[k * total / p]).collect()
}

/// Every rank gathers the whole `p × p` count matrix into a fresh replica;
/// `runtime` is built first.
fn replicated_counts<R>(
    m: &mut Machine,
    costs: &CostModel,
    flat_counts: ArrayId,
    runtime: impl FnOnce(&mut Machine) -> R,
    gather: Collective<R>,
) {
    let p = m.n_procs();
    let runtime = runtime(m);
    let contribs: Vec<(ArrayId, usize)> = (0..p).map(|j| (flat_counts, j * p)).collect();
    for pe in 0..p {
        let replica = m.alloc(p * p, Placement::Node(m.topo().node_of(pe)), "count-replica");
        gather(&runtime, m, pe, &contribs, p, replica);
        m.busy_cycles_fixed(pe, costs.offset_cyc_per_entry * (p * p) as f64);
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
pub struct MpiComm {
    mode: MpiMode,
    style: Permute,
    costs: CostModel,
    state: Option<MpiRadixState>,
}

impl MpiComm {
    const COLLECTIVE: Collective<Mpi> = Mpi::allgather;

    /// `style` must be [`Permute::ChunkMessages`] or
    /// [`Permute::CoalescedMessages`].
    pub fn new(mode: MpiMode, style: Permute, costs: CostModel) -> Self {
        assert!(
            matches!(style, Permute::ChunkMessages | Permute::CoalescedMessages),
            "MPI permutes by per-chunk or coalesced messages, not {style:?}"
        );
        MpiComm { mode, style, costs, state: None }
    }

    fn state(&mut self) -> &mut MpiRadixState {
        self.state.as_mut().expect("setup_radix not called")
    }
}

impl Communicator for MpiComm {
    fn style(&self) -> Permute {
        self.style
    }

    fn name(&self) -> &'static str {
        match self.mode {
            MpiMode::Staged => "MPI (staged)",
            MpiMode::Direct => "MPI (direct)",
        }
    }

    fn section(&self, m: &mut Machine, name: &'static str) {
        // The coalesced program historically kept no sections (the §3.1
        // tradeoff harness reads whole-run times only).
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
        let hists = Replicated::new(m, bins, self.costs);
        // Worst-case inbound data per rank per pass: its own partition plus
        // chunk-boundary slack.
        let bounce_cap = n.div_ceil(p) + 2 * bins + 64;
        let mpi = Mpi::new(m, self.mode, bounce_cap);
        self.state = Some(MpiRadixState { stage, recv_buf, hists, mpi });
    }

    fn stage(&self) -> ArrayId {
        self.state.as_ref().expect("setup_radix not called").stage
    }

    fn recv_buf(&self) -> ArrayId {
        self.state
            .as_ref()
            .expect("setup_radix not called")
            .recv_buf
            .expect("per-chunk MPI has no coalescing receive buffer")
    }

    fn publish_hist(&mut self, m: &mut Machine, pe: usize, hist: &[u32]) {
        self.state().hists.publish_hist(m, pe, hist);
    }

    fn publish_done(&mut self, m: &mut Machine) {
        m.barrier();
    }

    fn combine(&mut self, m: &mut Machine, _hists: &[Vec<u32>]) {
        let st = self.state();
        st.hists.combine(m, &st.mpi, Self::COLLECTIVE);
    }

    fn read_ranks(
        &mut self,
        m: &mut Machine,
        pe: usize,
        _hists: &[Vec<u32>],
        offsets: &[Vec<u32>],
    ) -> Vec<u32> {
        self.state().hists.read_ranks(m, pe, offsets)
    }

    #[allow(clippy::too_many_arguments)]
    fn send(
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
        self.state().mpi.send(m, src_pe, src_arr, src_off, dst_pe, dst_arr, dst_off, len);
    }

    fn drain(&mut self, m: &mut Machine, pe: usize) {
        self.state().mpi.drain(m, pe);
    }

    fn select_splitters(&mut self, m: &mut Machine, samples: ArrayId, s: usize) -> Vec<u32> {
        replicated_splitters(m, &self.costs, samples, s, |m| Mpi::new(m, self.mode, 1), Self::COLLECTIVE)
    }

    fn replicate_counts(&mut self, m: &mut Machine, flat_counts: ArrayId) {
        replicated_counts(m, &self.costs, flat_counts, |m| Mpi::new(m, self.mode, 1), Self::COLLECTIVE);
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
pub struct ShmemComm {
    style: Permute,
    costs: CostModel,
    state: Option<ShmemRadixState>,
}

impl ShmemComm {
    const COLLECTIVE: Collective<Shmem> = Shmem::fcollect;

    /// `style` must be [`Permute::ReceiverGet`] (the paper's program) or
    /// [`Permute::SenderPut`].
    pub fn new(style: Permute, costs: CostModel) -> Self {
        assert!(
            matches!(style, Permute::ReceiverGet | Permute::SenderPut),
            "SHMEM permutes by one-sided get or put, not {style:?}"
        );
        ShmemComm { style, costs, state: None }
    }

    fn state(&self) -> &ShmemRadixState {
        self.state.as_ref().expect("setup_radix not called")
    }
}

impl Communicator for ShmemComm {
    fn style(&self) -> Permute {
        self.style
    }

    fn name(&self) -> &'static str {
        "SHMEM"
    }

    fn setup_radix(&mut self, m: &mut Machine, n: usize, bins: usize) {
        let p = m.n_procs();
        let stage = m.alloc(n, Placement::Partitioned { parts: p }, "stage");
        let hists = Replicated::new(m, bins, self.costs);
        self.state = Some(ShmemRadixState { stage, hists, shmem: Shmem::new(m) });
    }

    fn stage(&self) -> ArrayId {
        self.state().stage
    }

    fn publish_hist(&mut self, m: &mut Machine, pe: usize, hist: &[u32]) {
        self.state().hists.publish_hist(m, pe, hist);
    }

    fn publish_done(&mut self, m: &mut Machine) {
        m.barrier();
    }

    fn combine(&mut self, m: &mut Machine, _hists: &[Vec<u32>]) {
        let st = self.state();
        st.hists.combine(m, &st.shmem, Self::COLLECTIVE);
    }

    fn read_ranks(
        &mut self,
        m: &mut Machine,
        pe: usize,
        _hists: &[Vec<u32>],
        offsets: &[Vec<u32>],
    ) -> Vec<u32> {
        self.state().hists.read_ranks(m, pe, offsets)
    }

    #[allow(clippy::too_many_arguments)]
    fn get(
        &mut self,
        m: &mut Machine,
        pe: usize,
        dst_arr: ArrayId,
        dst_off: usize,
        src_arr: ArrayId,
        src_off: usize,
        len: usize,
    ) {
        self.state().shmem.get(m, pe, dst_arr, dst_off, src_arr, src_off, len);
    }

    #[allow(clippy::too_many_arguments)]
    fn get_local(
        &mut self,
        m: &mut Machine,
        pe: usize,
        dst_arr: ArrayId,
        dst_off: usize,
        src_arr: ArrayId,
        src_off: usize,
        len: usize,
    ) {
        self.state().shmem.get_local(m, pe, dst_arr, dst_off, src_arr, src_off, len);
    }

    #[allow(clippy::too_many_arguments)]
    fn put(
        &mut self,
        m: &mut Machine,
        pe: usize,
        src_arr: ArrayId,
        src_off: usize,
        dst_arr: ArrayId,
        dst_off: usize,
        len: usize,
    ) {
        self.state().shmem.put(m, pe, src_arr, src_off, dst_arr, dst_off, len);
    }

    fn select_splitters(&mut self, m: &mut Machine, samples: ArrayId, s: usize) -> Vec<u32> {
        replicated_splitters(m, &self.costs, samples, s, |m| Shmem::new(m), Self::COLLECTIVE)
    }

    fn replicate_counts(&mut self, m: &mut Machine, flat_counts: ArrayId) {
        replicated_counts(m, &self.costs, flat_counts, |m| Shmem::new(m), Self::COLLECTIVE);
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
                        self.costs.copy_cyc_per_key,
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

    fn costs() -> CostModel {
        CostModel {
            scan_cyc_per_bin: 3.0,
            offset_cyc_per_entry: 3.0,
            sort_cyc_per_cmp: 12.0,
            copy_cyc_per_key: 1.0,
        }
    }

    #[test]
    fn exclusive_scan_shifts_by_one() {
        assert_eq!(exclusive_scan(&[3, 1, 4, 1]), vec![0, 3, 4, 8]);
        assert_eq!(exclusive_scan(&[3, 0, 2, 5]), vec![0, 3, 3, 5]);
        assert!(exclusive_scan(&[]).is_empty());
    }

    #[test]
    fn global_offsets_rank_by_digit_then_process() {
        let hists = vec![vec![2, 0, 1, 3], vec![1, 2, 0, 1]];
        let off = global_offsets(&hists);
        assert_eq!(off[0], vec![0, 3, 5, 6]);
        assert_eq!(off[1], vec![2, 3, 6, 9]);
    }

    #[test]
    fn communicators_report_their_style() {
        assert_eq!(CcsasComm::new(Permute::DirectScatter, costs()).style(), Permute::DirectScatter);
        assert_eq!(
            MpiComm::new(MpiMode::Direct, Permute::CoalescedMessages, costs()).style(),
            Permute::CoalescedMessages
        );
        assert_eq!(ShmemComm::new(Permute::SenderPut, costs()).style(), Permute::SenderPut);
    }

    #[test]
    #[should_panic(expected = "CC-SAS permutes by")]
    fn ccsas_rejects_message_styles() {
        let _ = CcsasComm::new(Permute::ChunkMessages, costs());
    }

    #[test]
    #[should_panic(expected = "not part of this model")]
    fn ccsas_has_no_two_sided_send() {
        use ccsort_machine::{MachineConfig, Placement};
        let mut m = Machine::new(MachineConfig::origin2000(2).scaled_down(16));
        let a = m.alloc(16, Placement::Node(0), "a");
        let mut c = CcsasComm::new(Permute::DirectScatter, costs());
        c.send(&mut m, 0, a, 0, 1, a, 8, 4);
    }
}
