//! The simulated machine: processors with caches and TLBs, a directory
//! protocol over a shared address space, and per-processor virtual time.
//!
//! The machine is driven by the programming-model runtimes (the private
//! `runtime` module of `ccsort-algos`): they translate loads/stores/messages
//! into line touches, DMA transfers and explicit time charges. Execution is
//! bulk-synchronous — processors run one at a time between barriers, which
//! is semantically equivalent to parallel execution for the sorting programs
//! because all their intra-phase writes target disjoint locations — and
//! completely deterministic.

use crate::cache::{Cache, LineState, Probe};
use crate::config::{MachineConfig, ProtocolMode};
use crate::contention::{Delay, PhaseTraffic};
use crate::directory::{Directory, DirState};
use crate::memory::{AddressSpace, ArrayId, Placement};
use crate::race::{MsgToken, RaceDetector, RaceReport};
use crate::stats::{Bucket, EventCounters, TimeBreakdown};
use crate::tlb::Tlb;
use crate::topology::Topology;

/// Spatial/temporal character of an access stream; selects how much of a
/// miss round-trip stalls the processor (see `MachineConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pattern {
    /// Contiguous sweep: hardware prefetching and the write buffer pipeline
    /// back-to-back line misses.
    Streamed,
    /// Fine-grained scattered accesses: every miss is exposed.
    Scattered,
}

#[derive(Debug, Clone)]
pub(crate) struct PeState {
    pub(crate) l1: Cache,
    pub(crate) cache: Cache,
    pub(crate) tlb: Tlb,
    pub(crate) time: f64,
    pub(crate) brk: TimeBreakdown,
    pub(crate) ev: EventCounters,
    /// The line this PE touched most recently (`u64::MAX` = none). While
    /// the hint stands, the line is the MRU entry of its L1 set and its page
    /// is the TLB's `last` page, so a repeat touch can skip the whole walk
    /// (see `Machine::walk`). Cleared whenever an action outside this PE's
    /// own touches changes the line's cache state.
    pub(crate) hint_line: u64,
    /// Whether the hinted line was last touched by a *write* (L1 and L2 both
    /// Modified and MRU). Required for a repeat write to take the hint; a
    /// read-established hint must send the next write through the probes
    /// (its move of the line to the front of its L2 set and its L2 state
    /// update are observable).
    pub(crate) hint_write: bool,
}

impl PeState {
    /// Invalidate a line at every level; returns whether the L2 copy was
    /// dirty.
    pub(crate) fn invalidate_all(&mut self, line: u64) -> bool {
        if line == self.hint_line {
            self.hint_line = u64::MAX;
        }
        self.l1.invalidate(line);
        self.cache.invalidate(line)
    }

    /// Downgrade a line to Shared at every level; returns whether the L2
    /// copy was dirty.
    pub(crate) fn downgrade_all(&mut self, line: u64) -> bool {
        if line == self.hint_line {
            // Reads may still fast-path a Shared line; writes no longer can.
            self.hint_write = false;
        }
        self.l1.downgrade(line);
        self.cache.downgrade(line)
    }
}

/// The simulated CC-NUMA multiprocessor.
#[derive(Debug, Clone)]
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) topo: Topology,
    pub(crate) mem: AddressSpace,
    pub(crate) dir: Directory,
    pub(crate) pes: Vec<PeState>,
    pub(crate) traffic: PhaseTraffic,
    phase_start: Vec<f64>,
    pub(crate) node_of: Vec<usize>,
    line_shift: u32,
    page_shift: u32,
    /// Program-declared sections for per-phase profiling: every time charge
    /// is also attributed to the current section (the paper's
    /// "program/library instrumentation").
    sections: Vec<(&'static str, Vec<TimeBreakdown>)>,
    cur_section: usize,
    /// When set, [`Machine::audit`] runs at every [`Machine::section`]
    /// boundary and panics on the first violation (opt-in; see
    /// [`Machine::set_section_audit`]).
    section_audit: bool,
    /// Happens-before race detector; `None` keeps every access path free of
    /// detector work (see [`Machine::set_race_detector`]).
    race: Option<RaceDetector>,
    /// Scratch buffers reused by `resolve_phase`, so phase resolution does
    /// not allocate on the hot path (one pair for the machine's lifetime).
    resolve_elapsed: Vec<f64>,
    resolve_delays: Vec<Delay>,
}

impl Machine {
    /// Build a machine, panicking on an invalid configuration (the message
    /// names the offending field). Fallible callers — config-file loaders,
    /// CLI replay — use [`Machine::try_new`] instead.
    pub fn new(cfg: MachineConfig) -> Self {
        Machine::try_new(cfg).unwrap_or_else(|e| panic!("invalid MachineConfig: {e}"))
    }

    /// Build a machine, returning the validation error instead of panicking.
    pub fn try_new(cfg: MachineConfig) -> Result<Self, String> {
        cfg.validate()?;
        let topo = Topology::new(&cfg);
        let mem = AddressSpace::new(&cfg);
        let sets = cfg.l2.sets();
        let l1_sets = cfg.l1.sets();
        let lines_per_page = cfg.page_size / cfg.l2.line;
        let pes: Vec<PeState> = (0..cfg.n_procs)
            .map(|_pe| PeState {
                l1: if cfg.physical_cache_indexing {
                    Cache::physically_indexed(l1_sets, cfg.l1.assoc, lines_per_page)
                } else {
                    Cache::new(l1_sets, cfg.l1.assoc)
                },
                cache: if cfg.physical_cache_indexing {
                    Cache::physically_indexed(sets, cfg.l2.assoc, lines_per_page)
                } else {
                    Cache::new(sets, cfg.l2.assoc)
                },
                tlb: Tlb::new(cfg.tlb_entries),
                time: 0.0,
                brk: TimeBreakdown::default(),
                ev: EventCounters::default(),
                hint_line: u64::MAX,
                hint_write: false,
            })
            .collect();
        let node_of = (0..cfg.n_procs).map(|pe| topo.node_of(pe)).collect();
        let n_nodes = cfg.n_nodes();
        let n_procs = cfg.n_procs;
        Ok(Machine {
            line_shift: cfg.line_shift(),
            page_shift: cfg.page_shift(),
            traffic: PhaseTraffic::new(n_procs, n_nodes),
            phase_start: vec![0.0; n_procs],
            dir: Directory::new(n_procs, 0),
            sections: vec![("(untagged)", vec![TimeBreakdown::default(); n_procs])],
            cur_section: 0,
            section_audit: false,
            race: None,
            resolve_elapsed: Vec::new(),
            resolve_delays: Vec::new(),
            cfg,
            topo,
            mem,
            pes,
            node_of,
        })
    }

    /// The machine's configuration.
    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Node hosting processor `pe`.
    #[inline]
    pub fn node_of(&self, pe: usize) -> usize {
        self.node_of[pe]
    }

    /// Number of processors.
    pub fn n_procs(&self) -> usize {
        self.cfg.n_procs
    }

    // ------------------------------------------------------------------
    // Allocation and raw data access
    // ------------------------------------------------------------------

    /// Allocate a simulated array of `len` u32 elements.
    pub fn alloc(&mut self, len: usize, placement: Placement, name: &'static str) -> ArrayId {
        let id = self.mem.alloc(len, placement, name, &self.topo);
        self.dir.ensure(self.mem.total_lines());
        id
    }

    /// Element count of an array.
    pub fn len(&self, arr: ArrayId) -> usize {
        self.mem.len(arr)
    }

    /// Raw (un-timed) view of an array's contents — for verification and
    /// host-side staging only; simulated code must use the timed accessors.
    pub fn raw(&self, arr: ArrayId) -> &[u32] {
        self.mem.slice(arr, 0..self.mem.len(arr))
    }

    /// Raw (un-timed) mutable view — for initialising inputs.
    pub fn raw_mut(&mut self, arr: ArrayId) -> &mut [u32] {
        let n = self.mem.len(arr);
        self.mem.slice_mut(arr, 0..n)
    }

    /// Un-timed data copy between arrays, initiated by `pe`. For runtime
    /// internals that charge the time of the copy separately (e.g. a staged
    /// MPI receive charges `touch_run` + busy cycles and then moves the
    /// bytes with this) and for the un-timed tails of fixed-cost-scaled
    /// structure traversals (`*_fixed` in `ccsort-algos`'s `runtime`).
    ///
    /// Although no time is charged, the copy does mutate the backing store,
    /// so any *other* processor's cached copy of a destination line becomes
    /// stale — a later timed read there would be accounted as a hit while
    /// returning data the modelled hardware could never have delivered to
    /// that cache. To keep the coherence state honest this invalidates every
    /// destination-line copy cached by a processor other than `pe` (the
    /// initiator's own copy stays: `pe` performed the writes, so its cache
    /// holding the line in Modified state is exactly right). No traffic or
    /// latency is charged — at the runtime call sites the same ranges are
    /// covered by timed protocol operations (`touch_run`/`dma_copy`) and no
    /// foreign copies exist; this is a safety net for the scaled-model tails
    /// where boundary lines can linger in other caches from earlier phases.
    ///
    /// The race detector deliberately does *not* treat this as an access:
    /// like `raw`/`raw_mut` it is simulator staging, and the program-level
    /// access it stands in for is always covered by a timed operation on the
    /// same range (or, for `*_fixed` tails, by the timed prefix that
    /// represents the whole traversal under fixed-cost scaling).
    pub fn copy_untimed(
        &mut self,
        pe: usize,
        src: ArrayId,
        src_off: usize,
        dst: ArrayId,
        dst_off: usize,
        len: usize,
    ) {
        if len == 0 {
            return;
        }
        self.mem.copy(src, src_off, dst, dst_off, len);
        let d_first = self.mem.addr_of(dst, dst_off) >> self.line_shift;
        let d_last = self.mem.addr_of(dst, dst_off + len - 1) >> self.line_shift;
        for line in d_first..=d_last {
            let (dir, pes) = (&self.dir, &mut self.pes);
            dir.for_each_target(line, Some(pe), |other| {
                pes[other].invalidate_all(line);
            });
            self.dir.retain_only(line, pe);
        }
        #[cfg(debug_assertions)]
        for q in 0..self.cfg.n_procs {
            self.debug_assert_hint(q, "copy_untimed exit");
        }
    }

    // ------------------------------------------------------------------
    // Time accounting
    // ------------------------------------------------------------------

    /// Current virtual time of `pe` in ns.
    pub fn now(&self, pe: usize) -> f64 {
        self.pes[pe].time
    }

    /// Per-bucket time breakdown of `pe`.
    pub fn breakdown(&self, pe: usize) -> TimeBreakdown {
        self.pes[pe].brk
    }

    /// Event counters of `pe`.
    pub fn events(&self, pe: usize) -> EventCounters {
        self.pes[pe].ev
    }

    /// Advance `pe`'s clock by `ns`, attributing it to `bucket` (and to the
    /// current profiling section).
    #[inline]
    pub fn charge(&mut self, pe: usize, ns: f64, bucket: Bucket) {
        let s = &mut self.pes[pe];
        s.time += ns;
        s.brk.charge(bucket, ns);
        self.sections[self.cur_section].1[pe].charge(bucket, ns);
    }

    /// Declare the current program section for per-phase profiling; charges
    /// accumulate under the most recent `section` call. Re-using a name
    /// resumes its accumulator (so per-pass phases aggregate naturally).
    pub fn section(&mut self, name: &'static str) {
        if self.section_audit {
            let errs = self.audit();
            assert!(
                errs.is_empty(),
                "machine audit failed leaving section {:?} (entering {name:?}):\n  {}",
                self.sections[self.cur_section].0,
                errs.join("\n  ")
            );
        }
        if let Some(i) = self.sections.iter().position(|(n, _)| *n == name) {
            self.cur_section = i;
        } else {
            self.sections.push((name, vec![TimeBreakdown::default(); self.cfg.n_procs]));
            self.cur_section = self.sections.len() - 1;
        }
    }

    /// Per-section mean per-processor breakdowns, in first-use order.
    pub fn section_profile(&self) -> Vec<(&'static str, TimeBreakdown)> {
        let k = self.cfg.n_procs as f64;
        self.sections
            .iter()
            .map(|(name, per_pe)| {
                let mut t = TimeBreakdown::default();
                for b in per_pe {
                    t.add(b);
                }
                t.busy /= k;
                t.lmem /= k;
                t.rmem /= k;
                t.sync /= k;
                (*name, t)
            })
            .collect()
    }

    /// Charge `cycles` of instruction execution.
    #[inline]
    pub fn busy_cycles(&mut self, pe: usize, cycles: f64) {
        self.charge(pe, cycles * self.cfg.cycle_ns, Bucket::Busy);
    }

    /// Charge instruction work on a *fixed-size* (n-independent) structure:
    /// divided by the machine's `fixed_cost_div` so its weight relative to
    /// Θ(n) work matches the full-scale machine (see `MachineConfig`).
    #[inline]
    pub fn busy_cycles_fixed(&mut self, pe: usize, cycles: f64) {
        self.charge(pe, cycles * self.cfg.cycle_ns / self.cfg.fixed_cost_div, Bucket::Busy);
    }

    /// Number of elements of a fixed-size structure to run through the
    /// *timed* path so that the charged cost is `1/fixed_cost_div` of the
    /// full traversal (at least 1).
    #[inline]
    pub fn fixed_prefix(&self, len: usize) -> usize {
        ((len as f64 / self.cfg.fixed_cost_div).ceil() as usize).clamp(1, len.max(1))
    }

    /// Record an explicit message (MPI / SHMEM) for the counters.
    pub fn count_message(&mut self, pe: usize, bytes: usize) {
        let s = &mut self.pes[pe];
        s.ev.messages += 1;
        s.ev.message_bytes += bytes as u64;
    }

    // ------------------------------------------------------------------
    // Coherent loads and stores
    // ------------------------------------------------------------------

    /// Feed a timed range access to the race detector (no-op when off).
    #[inline]
    fn race_access(&mut self, pe: usize, arr: ArrayId, off: usize, n: usize, write: bool) {
        if let Some(det) = self.race.as_mut() {
            let section = self.sections[self.cur_section].0;
            det.range_access(pe, arr.0, self.mem.len(arr), self.mem.name(arr), off, n, write, section);
        }
    }

    /// Feed a timed scattered index batch to the race detector (no-op when
    /// off): one array/length/section resolution for the whole slice.
    #[inline]
    fn race_access_indices(&mut self, pe: usize, arr: ArrayId, idxs: &[usize], write: bool) {
        if let Some(det) = self.race.as_mut() {
            let section = self.sections[self.cur_section].0;
            det.scatter_access(pe, arr.0, self.mem.len(arr), self.mem.name(arr), idxs, write, section);
        }
    }

    /// Debug invariant behind the walk's hint repeat: whenever a hint is
    /// set, the hinted line is resident in the PE's L1 (and Modified there
    /// if `hint_write`). Checked at the boundaries of every operation that
    /// can move lines, so a violation is pinned to the operation that
    /// introduced it rather than to the much later touch that trips on it.
    #[cfg(debug_assertions)]
    fn debug_assert_hint(&self, pe: usize, site: &str) {
        let s = &self.pes[pe];
        if s.hint_line != u64::MAX {
            let st = s.l1.state(s.hint_line);
            assert!(
                st.is_some(),
                "hint invariant broken at {site}: pe {pe} hint line {} not in L1",
                s.hint_line
            );
            if s.hint_write {
                assert!(
                    matches!(st, Some(LineState::Modified)),
                    "hint invariant broken at {site}: pe {pe} line {} hint_write but L1 {st:?}",
                    s.hint_line
                );
            }
        }
    }

    /// Timed scattered read of one element.
    #[inline]
    pub fn read_at(&mut self, pe: usize, arr: ArrayId, idx: usize) -> u32 {
        self.race_access(pe, arr, idx, 1, false);
        let line = self.mem.addr_of(arr, idx) >> self.line_shift;
        self.walk::<false>(pe, Pattern::Scattered, std::iter::once(line));
        self.mem.get(arr, idx)
    }

    /// Timed scattered write of one element.
    #[inline]
    pub fn write_at(&mut self, pe: usize, arr: ArrayId, idx: usize, v: u32) {
        self.race_access(pe, arr, idx, 1, true);
        let line = self.mem.addr_of(arr, idx) >> self.line_shift;
        self.walk::<true>(pe, Pattern::Scattered, std::iter::once(line));
        self.mem.set(arr, idx, v);
    }

    /// Timed sequential read of `out.len()` elements starting at `off` into
    /// `out`. Each line is touched once with the streamed pattern; per-
    /// element CPU work is the caller's to charge via `busy_cycles`.
    pub fn read_run(&mut self, pe: usize, arr: ArrayId, off: usize, out: &mut [u32]) {
        if out.is_empty() {
            return;
        }
        self.touch_run(pe, arr, off, out.len(), false);
        out.copy_from_slice(self.mem.slice(arr, off..off + out.len()));
    }

    /// Timed sequential write of `src` into the array starting at `off`.
    pub fn write_run(&mut self, pe: usize, arr: ArrayId, off: usize, src: &[u32]) {
        if src.is_empty() {
            return;
        }
        self.touch_run(pe, arr, off, src.len(), true);
        self.mem.slice_mut(arr, off..off + src.len()).copy_from_slice(src);
    }

    /// Touch every line of `[off, off+len)` once, in address order, with
    /// the streamed pattern, without moving data (used when the data is
    /// staged separately); see `Machine::walk`.
    pub fn touch_run(&mut self, pe: usize, arr: ArrayId, off: usize, len: usize, write: bool) {
        if len == 0 {
            return;
        }
        self.race_access(pe, arr, off, len, write);
        // Element addresses are linear (`base + 4*idx`), so one `addr_of`
        // resolution pins the whole run.
        let first_addr = self.mem.addr_of(arr, off);
        let first = first_addr >> self.line_shift;
        let last = (first_addr + 4 * (len as u64 - 1)) >> self.line_shift;
        debug_assert_eq!(last, self.mem.addr_of(arr, off + len - 1) >> self.line_shift);
        if write {
            self.walk::<true>(pe, Pattern::Streamed, first..last + 1);
        } else {
            self.walk::<false>(pe, Pattern::Streamed, first..last + 1);
        }
    }

    /// Timed scattered gather: read the elements `arr[idxs[k]]` in
    /// submission order into `out`. Observationally identical to one
    /// [`Machine::read_at`] per index, but batched end-to-end: one `addr_of`
    /// base resolution and one race-detector array/section lookup for the
    /// whole slice, and the index slice is traversed once — the data move
    /// rides in the line iterator handed to `Machine::walk`.
    pub fn gather_run(&mut self, pe: usize, arr: ArrayId, idxs: &[usize], out: &mut [u32]) {
        assert_eq!(idxs.len(), out.len(), "gather_run: index/output length mismatch");
        if idxs.is_empty() {
            return;
        }
        let len = self.mem.len(arr);
        assert!(idxs.iter().all(|&idx| idx < len), "gather_run: index out of bounds");
        // Detector state is disjoint from timing state, so feeding the whole
        // batch first is observationally identical to interleaving.
        self.race_access_indices(pe, arr, idxs, false);
        // Element addresses are linear (`base + 4*idx`), so one `addr_of`
        // resolution pins the whole batch.
        let (base, line_shift) = (self.mem.addr_of(arr, 0), self.line_shift);
        // The walk never touches backing stores, so reading the array data
        // from inside it is sound; a raw pointer sidesteps the borrow of
        // `self` the walk holds.
        let data = self.mem.slice(arr, 0..len).as_ptr();
        let lines = idxs.iter().zip(out).map(|(&idx, v)| {
            // SAFETY: `idx < len` was asserted for the whole batch above,
            // and the walk does not mutate the backing store `data` points
            // into.
            *v = unsafe { *data.add(idx) };
            (base + 4 * idx as u64) >> line_shift
        });
        self.walk::<false>(pe, Pattern::Scattered, lines);
    }

    /// Timed scattered scatter: write `vals[k]` to `arr[idxs[k]]` in
    /// submission order (duplicate indices keep last-write-wins semantics).
    /// Observationally identical to one [`Machine::write_at`] per index;
    /// see [`Machine::gather_run`] for what the batching amortizes.
    pub fn scatter_run(&mut self, pe: usize, arr: ArrayId, idxs: &[usize], vals: &[u32]) {
        assert_eq!(idxs.len(), vals.len(), "scatter_run: index/value length mismatch");
        if idxs.is_empty() {
            return;
        }
        let len = self.mem.len(arr);
        assert!(idxs.iter().all(|&idx| idx < len), "scatter_run: index out of bounds");
        self.race_access_indices(pe, arr, idxs, true);
        let (base, line_shift) = (self.mem.addr_of(arr, 0), self.line_shift);
        // Data move fused into the walk's line iterator; see `gather_run`.
        let data = self.mem.slice_mut(arr, 0..len).as_mut_ptr();
        let lines = idxs.iter().zip(vals).map(|(&idx, &v)| {
            // SAFETY: `idx < len` was asserted for the whole batch above;
            // the walk neither reads nor writes the backing store `data`
            // points into, so the store cannot alias any state it holds
            // borrowed.
            unsafe { *data.add(idx) = v };
            (base + 4 * idx as u64) >> line_shift
        });
        self.walk::<true>(pe, Pattern::Scattered, lines);
    }

    /// The one coherence walk: touch `lines` in iteration order with
    /// pattern `pat`, one touch per line under the machine rules of
    /// DESIGN.md §10. Every timed access ends here; a new access shape is a
    /// new line iterator, not a new loop. An iterator may move data as it
    /// is pulled (it is pulled exactly once per line, in order) but must
    /// not touch simulator state.
    ///
    /// One loop serves every cache geometry. A repeat of the hinted line
    /// skips the touch; a line on the page of its predecessor skips the
    /// TLB access (it would hit the TLB's `last` page); every page change
    /// is one O(1) [`Tlb::access`] and one page-frame computation that
    /// both levels' probes share. Each line performs exactly one L1 and at
    /// most one L2 tag probe, with the L1-hit and L2-refill arms inlined;
    /// only upgrades and misses take the directory path, entered in place.
    fn walk<const WRITE: bool>(
        &mut self,
        pe: usize,
        pat: Pattern,
        mut lines: impl Iterator<Item = u64>,
    ) {
        #[cfg(debug_assertions)]
        self.debug_assert_hint(pe, "walk entry");
        let page_lines_shift = self.page_shift - self.line_shift;
        let l2_hit_ns = self.cfg.l2_hit_ns;
        let tlb_miss_ns = self.cfg.tlb_miss_ns;
        let cur_section = self.cur_section;
        // Last page this walk ran a TLB access for: a repeat would hit the
        // TLB's pure `last`-page check, so skipping it is exact. (Hint
        // repeats skip the TLB too, so they don't update it.)
        let mut prev_page = u64::MAX;
        // Set-index frame of `prev_page` (see `Cache::frame`); initialized
        // on the first line, which always misses `prev_page`.
        let mut frame = 0u64;
        loop {
            // Tight loop over the remaining lines with the borrows hoisted;
            // falls out only for the heavyweight upgrade/miss protocol path.
            let mut slow: Option<(u64, Probe)> = None;
            {
                let s = &mut self.pes[pe];
                let sec = &mut self.sections[cur_section].1[pe];
                // Hoist every loop-carried scalar into a stack local and
                // write it back once per tight loop: the line iterator may
                // carry raw pointers, so state living behind `s` would
                // otherwise be spilled and reloaded every line. The
                // operation *sequence* on each value is unchanged (the f64
                // accumulations in particular run in the same order on the
                // same values), so this is bit-exact; only the residency
                // changes.
                let mut hint_line = s.hint_line;
                let mut hint_write = s.hint_write;
                let mut l1_hits = s.ev.l1_hits;
                let mut tlb_misses = s.ev.tlb_misses;
                let mut cache_hits = s.ev.cache_hits;
                let mut time = s.time;
                let mut brk_lmem = s.brk.lmem;
                let mut sec_lmem = sec.lmem;
                for line in lines.by_ref() {
                    // Repeat of the hinted line: the whole touch is a no-op
                    // apart from the counter (see `PeState::hint_line`).
                    if hint_line == line && (!WRITE || hint_write) {
                        l1_hits += 1;
                        continue;
                    }
                    let page = line >> page_lines_shift;
                    if page != prev_page {
                        prev_page = page;
                        // L1 and L2 share the page geometry and indexing,
                        // so one frame serves both probes for every line
                        // on this page.
                        frame = s.l1.frame(line);
                        if !s.tlb.access(page) {
                            tlb_misses += 1;
                            // Inlined `charge`: same f64 accumulation
                            // order (all walk charges are Lmem).
                            time += tlb_miss_ns;
                            brk_lmem += tlb_miss_ns;
                            sec_lmem += tlb_miss_ns;
                        }
                    }
                    // L1 filter: a hit is free (folded into BUSY); a write
                    // hit keeps the L2 state in step with the promoted L1.
                    if let Probe::Hit(_) = s.l1.probe(line, frame, WRITE) {
                        if WRITE {
                            s.cache.probe(line, frame, true);
                        }
                        l1_hits += 1;
                        hint_line = line;
                        hint_write = WRITE;
                        continue;
                    }
                    // One L2 tag probe; a hit refills L1 (its victim is
                    // dropped silently: L2 still holds it) for `l2_hit_ns`.
                    match s.cache.probe(line, frame, WRITE) {
                        Probe::Hit(state) => {
                            cache_hits += 1;
                            s.l1.install(line, frame, state);
                            time += l2_hit_ns;
                            brk_lmem += l2_hit_ns;
                            sec_lmem += l2_hit_ns;
                            hint_line = line;
                            hint_write = WRITE;
                        }
                        probe => {
                            slow = Some((line, probe));
                            break;
                        }
                    }
                }
                // Write the localized state back before the protocol path,
                // which reads and updates all of it.
                s.hint_line = hint_line;
                s.hint_write = hint_write;
                s.ev.l1_hits = l1_hits;
                s.ev.tlb_misses = tlb_misses;
                s.ev.cache_hits = cache_hits;
                s.time = time;
                s.brk.lmem = brk_lmem;
                sec.lmem = sec_lmem;
            }
            match slow {
                Some((line, probe)) => self.touch_line_post_l2(pe, line, WRITE, pat, probe),
                None => break,
            }
        }
        #[cfg(debug_assertions)]
        self.debug_assert_hint(pe, "walk exit");
    }

    /// The touch below the L2 tag probe, for an upgrade or a miss:
    /// protocol action, traffic, stall charge, refill and hint update for
    /// the already-performed `probe` (`walk` serves L2 hits itself), so
    /// every line still gets exactly one L2 tag walk.
    ///
    /// The transitions themselves live in [`crate::protocol`]: this is the
    /// coherence-protocol seam, dispatched on `MachineConfig::protocol`.
    /// The invalidate arm is the verbatim pre-seam body, so the default
    /// configuration executes the identical instruction stream.
    fn touch_line_post_l2(&mut self, pe: usize, line: u64, write: bool, pat: Pattern, probe: Probe) {
        match self.cfg.protocol {
            ProtocolMode::Invalidate => self.post_l2_invalidate(pe, line, write, pat, probe),
            ProtocolMode::DragonUpdate => self.post_l2_dragon(pe, line, write, pat, probe),
        }
    }

    #[inline]
    pub(crate) fn read_frac(&self, pat: Pattern) -> f64 {
        match pat {
            Pattern::Streamed => self.cfg.read_stall_streamed,
            Pattern::Scattered => self.cfg.read_stall_scattered,
        }
    }

    #[inline]
    pub(crate) fn write_frac(&self, pat: Pattern) -> f64 {
        match pat {
            Pattern::Streamed => self.cfg.write_stall_streamed,
            Pattern::Scattered => self.cfg.write_stall_scattered,
        }
    }

    // ------------------------------------------------------------------
    // Bulk (message) transfers
    // ------------------------------------------------------------------

    /// Move `len` elements from `src` to `dst` as one explicit transfer
    /// (the data path of an MPI message or a SHMEM put/get), initiated by
    /// `pe`. Returns the estimated transfer time in ns; the *caller* decides
    /// how much of it stalls the processor and charges it, because that
    /// depends on the programming model (a blocking `get` waits for all of
    /// it, a pipelined `put`/send hides most of it).
    ///
    /// Coherence side effects: modified source lines are flushed to memory
    /// (downgraded to Shared), all cached copies of destination lines are
    /// invalidated, and — if `install_dst` — the destination lines land in
    /// `pe`'s own cache in Modified state, modelling the paper's observation
    /// that "get has the advantage that data are brought into the cache,
    /// while put doesn't deposit them in the destination cache".
    #[allow(clippy::too_many_arguments)]
    pub fn dma_copy(
        &mut self,
        pe: usize,
        src: ArrayId,
        src_off: usize,
        dst: ArrayId,
        dst_off: usize,
        len: usize,
        install_dst: bool,
    ) -> f64 {
        if len == 0 {
            return 0.0;
        }
        #[cfg(debug_assertions)]
        self.debug_assert_hint(pe, "dma_copy entry");
        // The installs below reshuffle the initiator's L2 sets behind the
        // hint's back; drop it rather than reason about overlap.
        self.pes[pe].hint_line = u64::MAX;
        self.race_access(pe, src, src_off, len, false);
        self.race_access(pe, dst, dst_off, len, true);
        self.mem.copy(src, src_off, dst, dst_off, len);
        let bytes = (len * 4) as f64;

        // Source side: flush dirty lines out of whichever cache owns them.
        let s_first = self.mem.addr_of(src, src_off) >> self.line_shift;
        let s_last = self.mem.addr_of(src, src_off + len - 1) >> self.line_shift;
        let src_home = self.mem.home_of_line(s_first);
        let mut flush_txns: u64 = 0;
        for line in s_first..=s_last {
            if let DirState::Exclusive(owner) = self.dir.state(line) {
                self.pes[owner as usize].downgrade_all(line);
                self.dir.add_sharer(line, owner as usize);
                flush_txns += 1;
            }
        }
        let n_src_lines = (s_last - s_first + 1) as f64;
        self.traffic.add(
            pe,
            src_home,
            n_src_lines * self.cfg.data_occ_ns + flush_txns as f64 * self.cfg.ctrl_occ_ns,
            (s_last - s_first + 1) + flush_txns,
            0,
        );

        // Destination side: invalidate stale copies, optionally install.
        let d_first = self.mem.addr_of(dst, dst_off) >> self.line_shift;
        let d_last = self.mem.addr_of(dst, dst_off + len - 1) >> self.line_shift;
        let dst_home = self.mem.home_of_line(d_first);
        let mut inv_txns: u64 = 0;
        for line in d_first..=d_last {
            let (dir, pes) = (&self.dir, &mut self.pes);
            inv_txns += dir.for_each_target(line, None, |other| {
                pes[other].invalidate_all(line);
            });
            if install_dst {
                self.dir.set_exclusive(line, pe);
                let frame = self.pes[pe].cache.frame(line);
                if let Some(v) = self.pes[pe].cache.install(line, frame, LineState::Modified) {
                    self.pes[pe].l1.invalidate(v.line);
                    self.dir.remove_sharer(v.line, pe);
                    if v.dirty {
                        let vhome = self.mem.home_of_line(v.line);
                        self.pes[pe].ev.writebacks += 1;
                        self.traffic.add(pe, vhome, self.cfg.ctrl_occ_ns + self.cfg.data_occ_ns, 1, 0);
                    }
                }
            } else {
                self.dir.set_unowned(line);
            }
        }
        self.pes[pe].ev.invalidations += inv_txns;
        let n_dst_lines = (d_last - d_first + 1) as f64;
        self.traffic.add(
            pe,
            dst_home,
            n_dst_lines * self.cfg.data_occ_ns + inv_txns as f64 * self.cfg.ctrl_occ_ns,
            (d_last - d_first + 1) + inv_txns,
            0,
        );

        // Transfer time: wire latency plus serialized bandwidth. The
        // per-message latency is a *fixed* cost — explicit-message counts
        // are n-independent (p * 2^r per radix pass) — so like the other
        // per-message costs it is divided by the machine scale to keep its
        // weight relative to the Θ(n) work (see `MachineConfig`).
        let lat = self.topo.node_latency(src_home, dst_home);
        #[cfg(debug_assertions)]
        for q in 0..self.cfg.n_procs {
            self.debug_assert_hint(q, "dma_copy exit");
        }
        lat / self.cfg.fixed_cost_div + bytes / self.cfg.link_bw_bytes_per_ns
    }

    // ------------------------------------------------------------------
    // Phases and barriers
    // ------------------------------------------------------------------

    /// Resolve accumulated contention for the current phase and charge the
    /// resulting stall time. Called by `barrier`; exposed for runtimes that
    /// need a resolution point without a barrier.
    pub fn resolve_phase(&mut self) {
        if self.traffic.is_empty() {
            return;
        }
        // Scratch buffers are moved out for the duration (charge below needs
        // `&mut self`) and put back; no per-phase allocation.
        let mut elapsed = std::mem::take(&mut self.resolve_elapsed);
        elapsed.clear();
        elapsed.extend((0..self.cfg.n_procs).map(|pe| self.pes[pe].time - self.phase_start[pe]));
        let mut delays = std::mem::take(&mut self.resolve_delays);
        self.traffic.resolve_into(&elapsed, &self.node_of, self.cfg.rho_cap, &mut delays);
        for (pe, d) in delays.iter().enumerate() {
            if d.lmem > 0.0 {
                self.charge(pe, d.lmem, Bucket::Lmem);
            }
            if d.rmem > 0.0 {
                self.charge(pe, d.rmem, Bucket::Rmem);
            }
        }
        self.resolve_elapsed = elapsed;
        self.resolve_delays = delays;
        self.traffic.reset();
        for pe in 0..self.cfg.n_procs {
            self.phase_start[pe] = self.pes[pe].time;
        }
    }

    /// Global barrier: resolve the phase's contention, align all clocks to
    /// the maximum and charge the waiting time (plus the barrier's own cost)
    /// as SYNC.
    pub fn barrier(&mut self) {
        if let Some(det) = self.race.as_mut() {
            det.barrier();
        }
        self.resolve_phase();
        let t_max = (0..self.cfg.n_procs).map(|pe| self.pes[pe].time).fold(0.0_f64, f64::max);
        let levels = (self.cfg.n_procs.max(2) as f64).log2().ceil();
        let cost = self.cfg.barrier_base_ns + 2.0 * levels * self.cfg.barrier_level_ns;
        for pe in 0..self.cfg.n_procs {
            let wait = t_max - self.pes[pe].time;
            self.charge(pe, wait + cost, Bucket::Sync);
            self.phase_start[pe] = self.pes[pe].time;
        }
    }

    /// Make `pe` wait until at least time `t` (message arrival, rendezvous);
    /// waiting time is SYNC.
    ///
    /// Deliberately *not* a happens-before edge: waiting for a virtual
    /// timestamp orders clocks, not memory. The memory edge a completed
    /// message provides is modelled explicitly — the producer calls
    /// [`Machine::hb_release`] when the data is in place and the consumer
    /// joins the token with [`Machine::hb_acquire`].
    pub fn wait_until(&mut self, pe: usize, t: f64) {
        let now = self.pes[pe].time;
        if t > now {
            self.charge(pe, t - now, Bucket::Sync);
        }
    }

    /// Release half of a message edge: snapshot `pe`'s happens-before state
    /// into a token the consumer can [`Machine::hb_acquire`]. Free (and the
    /// token empty) when the race detector is off.
    pub fn hb_release(&mut self, pe: usize) -> MsgToken {
        MsgToken(self.race.as_mut().map(|det| det.release(pe)))
    }

    /// Acquire half of a message edge: order everything the producer did
    /// before its [`Machine::hb_release`] before `pe`'s subsequent accesses.
    pub fn hb_acquire(&mut self, pe: usize, token: &MsgToken) {
        if let (Some(det), Some(clock)) = (self.race.as_mut(), token.0.as_deref()) {
            det.acquire(pe, clock);
        }
    }

    /// Longest per-processor total time — the parallel execution time.
    pub fn parallel_time(&self) -> f64 {
        (0..self.cfg.n_procs).map(|pe| self.pes[pe].time).fold(0.0_f64, f64::max)
    }

    /// Check the machine's coherence invariants; returns a list of
    /// violations (empty = consistent). Used by the property-based tests —
    /// any sequence of operations must leave caches and directory agreeing:
    ///
    /// 1. a line cached Modified/Exclusive anywhere is Exclusive-owned by
    ///    exactly that processor in the directory;
    /// 2. a line cached Shared is in the directory's sharer set;
    /// 3. a directory-Exclusive line is cached by its owner and nobody else;
    /// 4. no line is Modified in two caches.
    pub fn check_coherence(&self) -> Vec<String> {
        use crate::cache::LineState;
        use crate::directory::DirState;
        let mut errs = Vec::new();
        let total_lines = self.mem.total_lines();
        for line in 0..total_lines {
            let mut modified_in: Vec<usize> = Vec::new();
            for pe in 0..self.cfg.n_procs {
                match self.pes[pe].cache.state(line) {
                    Some(LineState::Modified) | Some(LineState::Exclusive) => {
                        modified_in.push(pe);
                        if self.dir.state(line) != DirState::Exclusive(pe as u8) {
                            errs.push(format!(
                                "line {line}: cached exclusively by pe {pe} but directory says {:?}",
                                self.dir.state(line)
                            ));
                        }
                    }
                    // `is_sharer` is the conservative (may-hold) membership
                    // test: a real copy outside the set the directory would
                    // invalidate is a protocol bug.
                    Some(LineState::Shared) if !self.dir.is_sharer(line, pe) => {
                        errs.push(format!(
                            "line {line}: cached Shared by pe {pe} but absent from sharer set"
                        ));
                    }
                    _ => {}
                }
            }
            if modified_in.len() > 1 {
                errs.push(format!("line {line}: owned exclusively by multiple PEs {modified_in:?}"));
            }
            if let DirState::Exclusive(owner) = self.dir.state(line) {
                let owner = owner as usize;
                if self.pes[owner].cache.state(line).is_none() {
                    errs.push(format!(
                        "line {line}: directory-exclusive at pe {owner} but not in its cache"
                    ));
                }
            }
            // L1 inclusion: anything in L1 must also be in L2, and an L1
            // copy must not claim more rights than the L2 copy.
            for pe in 0..self.cfg.n_procs {
                if let Some(l1s) = self.pes[pe].l1.state(line) {
                    match self.pes[pe].cache.state(line) {
                        None => errs.push(format!("line {line}: in pe {pe}'s L1 but not L2")),
                        Some(LineState::Shared)
                            if matches!(l1s, LineState::Modified | LineState::Exclusive) =>
                        {
                            errs.push(format!("line {line}: L1 exclusive but L2 shared at pe {pe}"))
                        }
                        _ => {}
                    }
                }
            }
        }
        errs
    }

    /// Full machine-invariant audit: every [`Machine::check_coherence`]
    /// invariant plus time-accounting and capacity invariants. Returns a
    /// list of violations (empty = healthy):
    ///
    /// * no time bucket (BUSY/LMEM/RMEM/SYNC) is negative, NaN or infinite,
    ///   and no processor clock is;
    /// * each processor's bucket total is at most the parallel time (the
    ///   slowest clock) and agrees with its own clock;
    /// * L1, L2 and TLB occupancy never exceed their configured capacity;
    /// * the directory never records sharers beyond the processor count.
    pub fn audit(&self) -> Vec<String> {
        let mut errs = self.check_coherence();
        let par = self.parallel_time();
        let tol = 1e-9 * par.abs().max(1.0);
        let l1_cap = self.cfg.l1.sets() * self.cfg.l1.assoc;
        let l2_cap = self.cfg.l2.sets() * self.cfg.l2.assoc;
        for pe in 0..self.cfg.n_procs {
            let s = &self.pes[pe];
            let b = &s.brk;
            for (name, v) in
                [("busy", b.busy), ("lmem", b.lmem), ("rmem", b.rmem), ("sync", b.sync)]
            {
                if !v.is_finite() || v < 0.0 {
                    errs.push(format!("pe {pe}: {name} bucket is {v}"));
                }
            }
            if !s.time.is_finite() || s.time < 0.0 {
                errs.push(format!("pe {pe}: clock is {}", s.time));
            }
            if b.total() > par + tol {
                errs.push(format!(
                    "pe {pe}: bucket total {} exceeds parallel time {par}",
                    b.total()
                ));
            }
            if (b.total() - s.time).abs() > tol {
                errs.push(format!(
                    "pe {pe}: bucket total {} drifted from clock {}",
                    b.total(),
                    s.time
                ));
            }
            if s.l1.resident() > l1_cap {
                errs.push(format!("pe {pe}: L1 holds {} lines, capacity {l1_cap}", s.l1.resident()));
            }
            if s.cache.resident() > l2_cap {
                errs.push(format!("pe {pe}: L2 holds {} lines, capacity {l2_cap}", s.cache.resident()));
            }
            if s.tlb.mapped() > self.cfg.tlb_entries {
                errs.push(format!(
                    "pe {pe}: TLB maps {} pages, capacity {}",
                    s.tlb.mapped(),
                    self.cfg.tlb_entries
                ));
            }
        }
        // Directory entry invariants (ghost bits beyond the processor
        // count, owner membership), checked by the directory itself.
        for line in 0..self.mem.total_lines() {
            if let Some(err) = self.dir.audit_entry(line) {
                errs.push(err);
            }
        }
        errs
    }

    /// Opt in to (or out of) auditing at every [`Machine::section`]
    /// boundary: each phase transition runs [`Machine::audit`] and panics on
    /// the first violation, naming the section being left. Off by default —
    /// the audit walks the whole directory, so per-phase auditing is meant
    /// for tests and debugging, not timing runs.
    pub fn set_section_audit(&mut self, on: bool) {
        self.section_audit = on;
    }

    /// Deliberately corrupt coherence state: install the line holding
    /// `arr[idx]` as a Shared copy in `pe`'s L2 *without* telling the
    /// directory — exactly the stale copy a protocol bug that skips an
    /// invalidation (or drops a sharer-set update) would leave behind.
    /// Exists so tests can prove [`Machine::audit`] catches real protocol
    /// bugs; the simulator itself never calls it.
    pub fn inject_stale_sharer(&mut self, pe: usize, arr: ArrayId, idx: usize) {
        let line = self.mem.addr_of(arr, idx) >> self.line_shift;
        let s = &mut self.pes[pe];
        s.hint_line = u64::MAX;
        s.cache.install(line, s.cache.frame(line), LineState::Shared);
        #[cfg(debug_assertions)]
        self.debug_assert_hint(pe, "inject_stale_sharer exit");
    }

    /// Turn the happens-before race detector on or off mid-run. Turning it
    /// on starts from an empty happens-before history (all prior accesses
    /// are forgotten); turning it off discards any collected reports.
    pub fn set_race_detector(&mut self, on: bool) {
        if on {
            if self.race.is_none() {
                self.race = Some(RaceDetector::new(self.cfg.n_procs));
            }
        } else {
            self.race = None;
        }
    }

    /// Races detected so far (empty when the detector is off). One report is
    /// recorded per (kind, PE pair, array) class; see
    /// [`Machine::race_suppressed`] for the overflow count.
    pub fn race_reports(&self) -> &[RaceReport] {
        self.race.as_ref().map(|det| det.reports()).unwrap_or(&[])
    }

    /// Racy accesses beyond the recorded reports.
    pub fn race_suppressed(&self) -> u64 {
        self.race.as_ref().map(|det| det.suppressed()).unwrap_or(0)
    }

    /// Deliberately skip the happens-before edge of the `nth` subsequent
    /// global barrier (1-based) — the *timing* side of that barrier is
    /// untouched, so the run's measurements and output are identical; only
    /// the detector sees the missing edge. Mirrors
    /// [`Machine::inject_stale_sharer`]: exists so tests can prove the race
    /// detector fires on a planted missing-barrier bug. Panics if the
    /// detector is off.
    pub fn inject_missing_barrier(&mut self, nth: usize) {
        self.race
            .as_mut()
            .expect("inject_missing_barrier requires the race detector to be on")
            .inject_missing_barrier(nth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_machine(n_procs: usize) -> Machine {
        let mut cfg = MachineConfig::origin2000(n_procs);
        cfg.l2 = crate::config::CacheGeom { size: 16 * 1024, assoc: 2, line: 128 };
        cfg.page_size = 4096;
        cfg.tlb_entries = 16;
        Machine::new(cfg)
    }

    #[test]
    fn validate_rejects_zero_tlb_entries() {
        for entries in [0, u16::MAX as usize] {
            let mut cfg = MachineConfig::origin2000(2);
            cfg.tlb_entries = entries;
            let err = Machine::try_new(cfg).expect_err("try_new must reject the config");
            assert!(err.contains("tlb_entries"), "error must name the field: {err}");
        }
    }

    #[test]
    fn read_write_roundtrip_charges_time() {
        let mut m = small_machine(2);
        let a = m.alloc(1024, Placement::Node(0), "a", );
        m.write_at(0, a, 5, 42);
        assert_eq!(m.read_at(0, a, 5), 42);
        assert!(m.now(0) > 0.0);
        assert_eq!(m.events(0).misses_local, 1); // write missed; read hit L1
        assert_eq!(m.events(0).l1_hits, 1);
        assert_eq!(m.now(1), 0.0);
    }

    #[test]
    fn remote_access_costs_more_and_buckets_rmem() {
        let mut m = small_machine(4);
        let local = m.alloc(64, Placement::Node(0), "l");
        let remote = m.alloc(64, Placement::Node(1), "r");
        m.read_at(0, local, 0);
        let t_local = m.now(0);
        m.read_at(0, remote, 0);
        let t_remote = m.now(0) - t_local;
        assert!(t_remote > t_local, "remote read ({t_remote}) should exceed local ({t_local})");
        let b = m.breakdown(0);
        assert!(b.lmem > 0.0 && b.rmem > 0.0);
        assert_eq!(m.events(0).misses_remote, 1);
    }

    #[test]
    fn write_invalidates_readers() {
        let mut m = small_machine(4);
        let a = m.alloc(64, Placement::Node(0), "a");
        // Three PEs read the same line; then PE 3 writes it.
        m.read_at(0, a, 0);
        m.read_at(1, a, 0);
        m.read_at(2, a, 0);
        m.write_at(3, a, 0, 7);
        assert!(m.events(3).invalidations >= 2, "writer must invalidate the sharers");
        // A subsequent read by PE 0 misses again (its copy is gone at every
        // level) and requires an intervention because PE 3 has it Modified.
        let hits_before = m.events(0).cache_hits + m.events(0).l1_hits;
        m.read_at(0, a, 0);
        assert_eq!(m.events(0).cache_hits + m.events(0).l1_hits, hits_before);
        assert_eq!(m.events(0).interventions, 1);
        assert_eq!(m.read_at(0, a, 0), 7);
    }

    #[test]
    fn first_read_installs_exclusive_second_reader_intervenes() {
        let mut m = small_machine(2);
        let a = m.alloc(64, Placement::Node(0), "a");
        m.read_at(0, a, 0);
        m.read_at(1, a, 0);
        assert_eq!(m.events(1).interventions, 1);
        // Both now Shared: a third read by either hits (in L1).
        let h0 = m.events(0).l1_hits;
        m.read_at(0, a, 0);
        assert_eq!(m.events(0).l1_hits, h0 + 1);
    }

    #[test]
    fn upgrade_on_shared_write_hit() {
        let mut m = small_machine(2);
        let a = m.alloc(64, Placement::Node(0), "a");
        m.read_at(0, a, 0);
        m.read_at(1, a, 0); // both Shared now
        m.write_at(0, a, 0, 1); // hit, but Shared -> upgrade
        assert_eq!(m.events(0).upgrades, 1);
        assert!(m.events(0).invalidations >= 1);
    }

    #[test]
    fn capacity_eviction_writes_back() {
        let mut m = small_machine(1);
        // Cache is 16 KB = 128 lines; write 256 distinct lines.
        let a = m.alloc(256 * 32, Placement::Node(0), "a");
        for i in 0..256 {
            m.write_at(0, a, i * 32, i as u32);
        }
        assert!(m.events(0).writebacks > 0, "dirty victims must write back");
        // Data survives eviction (memory holds it).
        for i in 0..256 {
            assert_eq!(m.raw(a)[i * 32], i as u32);
        }
    }

    #[test]
    fn run_ops_touch_once_per_line() {
        let mut m = small_machine(1);
        let a = m.alloc(1024, Placement::Node(0), "a");
        let src: Vec<u32> = (0..320).collect();
        m.write_run(0, a, 0, &src);
        // 320 elements * 4 B = 1280 B = 10 lines.
        assert_eq!(m.events(0).misses(), 10);
        let mut out = vec![0; 320];
        m.read_run(0, a, 0, &mut out);
        assert_eq!(out, src);
        assert_eq!(m.events(0).l1_hits, 10);
    }

    #[test]
    fn dma_copy_moves_data_and_invalidates() {
        let mut m = small_machine(4);
        let src = m.alloc(256, Placement::Node(0), "src");
        let dst = m.alloc(256, Placement::Node(1), "dst");
        // Writer caches the source; a future receiver caches stale dst.
        for i in 0..64 {
            m.write_at(0, src, i, i as u32 + 100);
        }
        m.read_at(2, dst, 0); // PE 2 holds a stale copy of dst line 0
        let t = m.dma_copy(0, src, 0, dst, 0, 64, false);
        assert!(t > 0.0);
        assert_eq!(m.raw(dst)[0], 100);
        assert_eq!(m.raw(dst)[63], 163);
        // PE 2's stale copy must be gone: a re-read misses.
        let misses = m.events(2).misses();
        m.read_at(2, dst, 0);
        assert_eq!(m.events(2).misses(), misses + 1);
        assert_eq!(m.read_at(2, dst, 0), 100);
    }

    #[test]
    fn dma_install_dst_gives_initiator_cache_hits() {
        let mut m = small_machine(2);
        let src = m.alloc(64, Placement::Node(0), "src");
        let dst = m.alloc(64, Placement::Node(0), "dst");
        m.raw_mut(src).iter_mut().enumerate().for_each(|(i, v)| *v = i as u32);
        m.dma_copy(1, src, 0, dst, 0, 32, true);
        let misses = m.events(1).misses();
        assert_eq!(m.read_at(1, dst, 0), 0);
        assert_eq!(m.read_at(1, dst, 31), 31);
        assert_eq!(m.events(1).misses(), misses, "get must leave data in the initiator's cache");
    }

    #[test]
    fn barrier_aligns_clocks_and_charges_sync() {
        let mut m = small_machine(4);
        m.charge(0, 1000.0, Bucket::Busy);
        m.charge(1, 400.0, Bucket::Busy);
        m.barrier();
        let t0 = m.now(0);
        for pe in 0..4 {
            assert!((m.now(pe) - t0).abs() < 1e-9, "clocks must align");
        }
        assert!(m.breakdown(1).sync >= 600.0);
        assert!(m.breakdown(0).sync > 0.0); // barrier cost itself
    }

    #[test]
    fn wait_until_only_moves_forward() {
        let mut m = small_machine(2);
        m.charge(0, 500.0, Bucket::Busy);
        m.wait_until(0, 300.0);
        assert_eq!(m.now(0), 500.0);
        m.wait_until(0, 800.0);
        assert_eq!(m.now(0), 800.0);
        assert_eq!(m.breakdown(0).sync, 300.0);
    }

    #[test]
    fn contention_resolution_charges_heavy_traffic() {
        let mut m = small_machine(4);
        let a = m.alloc(4096, Placement::Node(0), "hot");
        // All four PEs hammer node 0 with scattered writes.
        for pe in 0..4 {
            for i in 0..1024 {
                m.write_at(pe, a, (i * 32 + pe) % 4096, 1);
            }
        }
        let before: Vec<f64> = (0..4).map(|pe| m.now(pe)).collect();
        m.barrier();
        // Everyone should have been pushed past their uncontended time.
        let after = m.now(0);
        assert!(after > before.iter().cloned().fold(0.0, f64::max));
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut m = small_machine(4);
            let a = m.alloc(2048, Placement::Partitioned { parts: 4 }, "a");
            for pe in 0..4 {
                for i in 0..512 {
                    m.write_at(pe, a, (pe * 512 + i * 7) % 2048, i as u32);
                }
            }
            m.barrier();
            (0..4).map(|pe| m.now(pe)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod scaling_tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn fixed_prefix_follows_scale() {
        let m1 = Machine::new(MachineConfig::origin2000(2));
        assert_eq!(m1.fixed_prefix(256), 256);
        let m16 = Machine::new(MachineConfig::origin2000(2).scaled_down(16));
        assert_eq!(m16.fixed_prefix(256), 16);
        assert_eq!(m16.fixed_prefix(1), 1, "never below one element");
        assert_eq!(m16.fixed_prefix(0), 1);
    }

    #[test]
    fn busy_cycles_fixed_is_discounted() {
        let mut m = Machine::new(MachineConfig::origin2000(2).scaled_down(16));
        m.busy_cycles(0, 1600.0);
        m.busy_cycles_fixed(1, 1600.0);
        assert!((m.breakdown(0).busy / m.breakdown(1).busy - 16.0).abs() < 1e-9);
    }

    #[test]
    fn dma_latency_term_scales_but_bandwidth_does_not() {
        let t_for = |denom: usize, len: usize| {
            let mut m = Machine::new(MachineConfig::origin2000(4).scaled_down(denom));
            let a = m.alloc(1 << 16, Placement::Node(0), "a");
            let b = m.alloc(1 << 16, Placement::Node(1), "b");
            m.dma_copy(0, a, 0, b, 0, len, false)
        };
        // Tiny transfer: latency-dominated, so deep scaling shrinks it.
        assert!(t_for(16, 8) < 0.5 * t_for(1, 8));
        // Large transfer: bandwidth-dominated, so scaling barely matters.
        let big_1 = t_for(1, 1 << 15);
        let big_16 = t_for(16, 1 << 15);
        assert!(big_16 > 0.9 * big_1, "bandwidth term must not scale: {big_16} vs {big_1}");
    }

    #[test]
    fn virtual_indexing_toggle_changes_cache_behaviour_only() {
        let mut cfg = MachineConfig::origin2000(1).scaled_down(16);
        cfg.physical_cache_indexing = false;
        let mut m = Machine::new(cfg);
        let a = m.alloc(1024, Placement::Node(0), "a");
        m.write_at(0, a, 0, 7);
        assert_eq!(m.read_at(0, a, 0), 7);
        assert!(m.now(0) > 0.0);
    }

    #[test]
    fn scattered_remote_writes_cost_more_than_streamed() {
        let mut m = Machine::new(MachineConfig::origin2000(4));
        let remote = m.alloc(1 << 14, Placement::Node(1), "r");
        // Scattered writes from PE 0 (node 0) to node-1-homed lines.
        for i in 0..64 {
            m.write_at(0, remote, i * 64, 1);
        }
        let t_scattered = m.now(0);
        // Same number of lines, streamed.
        m.touch_run(1, remote, 0, 64 * 64, true);
        let t_streamed = m.now(1);
        assert!(
            t_scattered > 2.0 * t_streamed,
            "scattered remote writes ({t_scattered}) must cost far more than streamed ({t_streamed})"
        );
    }
}

#[cfg(test)]
mod section_tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn sections_partition_the_total() {
        let mut m = Machine::new(MachineConfig::origin2000(2).scaled_down(64));
        let a = m.alloc(1024, Placement::Node(0), "a");
        m.section("alpha");
        m.busy_cycles(0, 100.0);
        m.write_at(0, a, 0, 1);
        m.section("beta");
        m.busy_cycles(1, 200.0);
        m.section("alpha"); // resumes the accumulator
        m.busy_cycles(0, 100.0);
        let profile = m.section_profile();
        let names: Vec<&str> = profile.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["(untagged)", "alpha", "beta"]);
        // Sum over sections == sum over processors' breakdowns (per bucket).
        let total: f64 = profile.iter().map(|(_, t)| t.total()).sum::<f64>() * 2.0;
        let direct = m.breakdown(0).total() + m.breakdown(1).total();
        assert!((total - direct).abs() < 1e-6, "{total} vs {direct}");
        // alpha holds both busy charges for pe 0.
        let alpha = profile.iter().find(|(n, _)| *n == "alpha").unwrap().1;
        assert!((alpha.busy * 2.0 - 200.0 * m.cfg().cycle_ns).abs() < 1e-6);
    }

    #[test]
    fn l1_filters_repeated_touches() {
        let mut m = Machine::new(MachineConfig::origin2000(1).scaled_down(64));
        let a = m.alloc(64, Placement::Node(0), "a");
        m.write_at(0, a, 0, 1);
        let t_after_miss = m.now(0);
        for _ in 0..100 {
            m.write_at(0, a, 0, 2);
            m.read_at(0, a, 0);
        }
        // 200 L1 hits: free.
        assert_eq!(m.now(0), t_after_miss, "L1 hits must not advance the clock");
        assert_eq!(m.events(0).l1_hits, 200);
    }

    #[test]
    fn l2_hit_after_l1_eviction_costs_l2_latency() {
        let mut cfg = MachineConfig::origin2000(1);
        // Tiny L1 (4 lines), roomy L2.
        cfg.l1 = crate::config::CacheGeom { size: 4 * 128, assoc: 2, line: 128 };
        cfg.l2 = crate::config::CacheGeom { size: 64 * 1024, assoc: 2, line: 128 };
        cfg.page_size = 2048;
        let mut m = Machine::new(cfg);
        let a = m.alloc(2048, Placement::Node(0), "a");
        // Touch 16 distinct lines: all fit L2, L1 holds only the last few.
        for i in 0..16 {
            m.read_at(0, a, i * 32);
        }
        let t = m.now(0);
        m.read_at(0, a, 0); // long evicted from L1, still in L2
        assert_eq!(m.events(0).cache_hits, 1, "must be an L2 hit");
        assert!((m.now(0) - t - m.cfg().l2_hit_ns).abs() < 1e-9);
    }

    #[test]
    fn message_counters_accumulate() {
        let mut m = Machine::new(MachineConfig::origin2000(2));
        m.count_message(0, 1024);
        m.count_message(0, 16);
        assert_eq!(m.events(0).messages, 2);
        assert_eq!(m.events(0).message_bytes, 1040);
        assert_eq!(m.events(1).messages, 0);
    }
}

#[cfg(test)]
mod audit_tests {
    use super::*;

    fn small_machine(n_procs: usize) -> Machine {
        let mut cfg = MachineConfig::origin2000(n_procs);
        cfg.l2 = crate::config::CacheGeom { size: 16 * 1024, assoc: 2, line: 128 };
        cfg.page_size = 4096;
        cfg.tlb_entries = 16;
        Machine::new(cfg)
    }

    #[test]
    fn audit_clean_after_mixed_traffic() {
        let mut m = small_machine(4);
        let a = m.alloc(1024, Placement::Partitioned { parts: 4 }, "a");
        let b = m.alloc(1024, Placement::Partitioned { parts: 4 }, "b");
        for pe in 0..4 {
            for i in 0..64 {
                m.write_at(pe, a, (pe * 256 + i * 3) % 1024, i as u32);
                m.read_at(pe, a, (i * 7) % 1024);
            }
        }
        m.barrier();
        m.dma_copy(0, a, 0, b, 512, 256, true);
        m.barrier();
        assert_eq!(m.audit(), Vec::<String>::new());
    }

    #[test]
    fn audit_catches_skipped_invalidation() {
        let mut m = small_machine(4);
        let a = m.alloc(256, Placement::Node(0), "a");
        // PEs 1 and 2 read the line; PE 0's write invalidates them.
        m.read_at(1, a, 0);
        m.read_at(2, a, 0);
        m.write_at(0, a, 0, 9);
        assert!(m.audit().is_empty(), "protocol left a clean machine");
        // A buggy protocol that skipped PE 1's invalidation would leave this
        // exact state behind: a stale Shared copy the directory knows
        // nothing about, coexisting with PE 0's Modified line.
        m.inject_stale_sharer(1, a, 0);
        let errs = m.audit();
        assert!(
            errs.iter().any(|e| e.contains("absent from sharer set")),
            "audit must flag the stale sharer, got {errs:?}"
        );
    }

    #[test]
    #[should_panic(expected = "machine audit failed")]
    fn section_audit_panics_on_corruption() {
        let mut m = small_machine(2);
        m.set_section_audit(true);
        let a = m.alloc(256, Placement::Node(0), "a");
        m.section("phase-1");
        m.write_at(0, a, 0, 1);
        m.inject_stale_sharer(1, a, 0);
        m.section("phase-2"); // audit fires at the boundary
    }

    #[test]
    fn section_audit_is_silent_on_healthy_runs() {
        let mut m = small_machine(2);
        m.set_section_audit(true);
        let a = m.alloc(256, Placement::Node(0), "a");
        m.section("phase-1");
        m.write_at(0, a, 0, 1);
        m.read_at(1, a, 0);
        m.section("phase-2");
        m.barrier();
        assert!(m.audit().is_empty());
    }
}
