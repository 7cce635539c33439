//! FastTrack-style happens-before data-race detector for simulated
//! programs.
//!
//! The simulator executes bulk-synchronously — processors run one at a time
//! between barriers — so a program that is missing a synchronization edge
//! still produces deterministic, often *correct-looking* output, while its
//! BUSY/LMEM/RMEM/SYNC breakdowns silently stop corresponding to any legal
//! parallel execution. This module makes the synchronization discipline
//! itself machine-checked: every timed access is checked against a
//! happens-before order built from the programs' actual sync operations.
//!
//! The algorithm is FastTrack (Flanagan & Freund, PLDI 2009) adapted to the
//! machine's sync vocabulary:
//!
//! * each PE carries a vector clock `vc[pe]`, incremented at sync points;
//! * each array element carries an epoch-compressed last-writer `(clock,
//!   pe)` and last-reader state, escalated to a full read vector clock only
//!   when reads are genuinely concurrent (the common same-epoch and
//!   ordered-read cases stay O(1));
//! * [`RaceDetector::barrier`] joins all clocks (everything before the
//!   barrier happens-before everything after), and release/acquire tokens
//!   ([`RaceDetector::release`]/[`RaceDetector::acquire`]) carry the edge a
//!   completed message send creates from sender to receiver.
//!
//! Granularity is the array *element*, not the cache line: the detector
//! reports program-level races, and element granularity cannot produce the
//! false-sharing false positives a line-granular tracker would (two PEs
//! legitimately writing disjoint elements of one line).
//!
//! Deliberate non-edges: `Machine::wait_until` and phase resolution
//! (`Machine::resolve_phase`) order *virtual time*, not memory — a program
//! that relies on them for data transfer is exactly the kind of bug this
//! detector exists to catch. The message-completion edge the MPI runtime
//! really does provide is modelled explicitly with release/acquire tokens.

// BTreeSet, not HashSet (`clippy.toml`): everything the detector touches
// feeds deterministic, replayable artefacts.
use std::collections::BTreeSet;
use std::fmt;

/// Cap on fully-recorded reports; beyond this only a count is kept.
pub const MAX_REPORTS: usize = 64;

/// How two unordered accesses conflicted.
///
/// `Ord` so report-class keys live in a deterministic `BTreeSet`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaceKind {
    /// Two writes with no happens-before edge between them.
    WriteWrite,
    /// A write, then a read not ordered after it.
    WriteThenRead,
    /// A read, then a write not ordered after it.
    ReadThenWrite,
}

impl RaceKind {
    fn label(self) -> &'static str {
        match self {
            RaceKind::WriteWrite => "write-write",
            RaceKind::WriteThenRead => "write-read",
            RaceKind::ReadThenWrite => "read-write",
        }
    }
}

/// One detected data race. `prev_pe` made the earlier conflicting access,
/// `pe` the current one; `section` is the program's `section()` label at
/// detection time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    pub kind: RaceKind,
    pub prev_pe: usize,
    pub pe: usize,
    pub array: &'static str,
    pub index: usize,
    pub section: &'static str,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "data race ({}) on {}[{}]: pe {} then pe {} with no happens-before edge, in section {:?}",
            self.kind.label(),
            self.array,
            self.index,
            self.prev_pe,
            self.pe,
            self.section
        )
    }
}

/// Epoch: `(clock, pe)` compressed into the common FastTrack representation.
/// `clk == 0` is the bottom element (no access recorded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Epoch {
    clk: u32,
    pe: u32,
}

#[derive(Debug, Clone, Default)]
struct VarState {
    w: Epoch,
    /// Last read epoch; meaningful only while `rvc` is `None`.
    r: Epoch,
    /// Escalated read state: per-PE clock of the last read, used once two
    /// concurrent reads coexist.
    rvc: Option<Box<[u32]>>,
}

/// A release token: snapshot of the sender's vector clock at the moment a
/// message's data became visible. Passing it to
/// [`crate::Machine::hb_acquire`] installs the sender→receiver edge.
/// The payload is `None` when the detector is disabled, making the token
/// free to create and carry on the hot path.
#[derive(Debug, Clone, Default)]
pub struct MsgToken(pub(crate) Option<Box<[u32]>>);

/// The detector. Owned by [`crate::Machine`] while
/// [`crate::Machine::set_race_detector`] has it on; all methods are driven
/// from the machine's access and sync paths.
#[derive(Debug, Clone)]
pub struct RaceDetector {
    p: usize,
    vc: Vec<Vec<u32>>,
    /// Per-array, per-element FastTrack state, indexed by `ArrayId.0`.
    /// Arrays are registered lazily on first access.
    vars: Vec<Vec<VarState>>,
    reports: Vec<RaceReport>,
    /// One report per (kind, prev_pe, pe, array) is recorded in full; the
    /// rest of that class only counts into `suppressed` (a racing loop
    /// would otherwise flood the output with one report per element).
    seen: BTreeSet<(RaceKind, usize, usize, usize)>,
    suppressed: u64,
    /// Global barriers observed so far (for fault injection).
    barriers_seen: usize,
    /// When `Some(k)`, the `k`-th subsequent global barrier (1-based) skips
    /// its happens-before join — the timing side is untouched, so the run's
    /// measurements and output are identical; only the detector sees the
    /// missing edge. Mirrors `Machine::inject_stale_sharer`: exists so tests
    /// can prove the detector fires on a planted missing-barrier bug.
    inject_skip_barrier: Option<usize>,
    /// Use the bulk group-at-a-time range paths (the default). Off, every
    /// range access runs the original scalar per-element FastTrack loop with
    /// eager full-array state allocation — the pre-optimization cost model,
    /// kept selectable so `MachineConfig::fast_path = false` reproduces it
    /// and benchmarks can measure the batching itself. Reports are
    /// identical either way (see the differential test).
    batch: bool,
}

impl RaceDetector {
    pub fn new(p: usize) -> Self {
        let vc = (0..p)
            .map(|pe| {
                let mut v = vec![0u32; p];
                v[pe] = 1;
                v
            })
            .collect();
        RaceDetector {
            p,
            vc,
            vars: Vec::new(),
            reports: Vec::new(),
            seen: BTreeSet::new(),
            suppressed: 0,
            barriers_seen: 0,
            inject_skip_barrier: None,
            batch: true,
        }
    }

    /// Select bulk (`true`, default) or scalar per-element (`false`) range
    /// processing. Purely a host-cost knob: detection results are identical.
    pub fn set_batching(&mut self, on: bool) {
        self.batch = on;
    }

    /// Races recorded so far (deduplicated per (kind, PEs, array) class).
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Racy accesses beyond the recorded reports (same class or past the
    /// report cap).
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Arm the missing-barrier fault injection: the `nth` subsequent global
    /// barrier (1-based) will not create its happens-before edge.
    pub fn inject_missing_barrier(&mut self, nth: usize) {
        assert!(nth >= 1, "barrier injection index is 1-based");
        self.inject_skip_barrier = Some(self.barriers_seen + nth);
    }

    fn ensure(&mut self, arr: usize, len: usize) {
        if self.vars.len() <= arr {
            self.vars.resize_with(arr + 1, Vec::new);
        }
        if self.vars[arr].len() < len {
            self.vars[arr].resize_with(len, VarState::default);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &mut self,
        kind: RaceKind,
        prev_pe: usize,
        pe: usize,
        arr: usize,
        name: &'static str,
        index: usize,
        section: &'static str,
    ) {
        if self.reports.len() >= MAX_REPORTS || !self.seen.insert((kind, prev_pe, pe, arr)) {
            self.suppressed += 1;
            return;
        }
        self.reports.push(RaceReport { kind, prev_pe, pe, array: name, index, section });
    }

    /// Record a range access `[off, off + n)` by `pe` on array `arr` (with
    /// `len` total elements, documenting the array's bound).
    ///
    /// Streamed runs dominate the detector's workload, and after the first
    /// pass over an array their per-element states are uniform over long
    /// stretches (same last-writer epoch, same last-reader epoch). The bulk
    /// paths below exploit that: maximal subranges with identical
    /// epoch-compressed state get *one* happens-before check and a bulk
    /// state fill, so the cost is O(state groups) instead of O(elements) of
    /// full FastTrack logic. Element state is also allocated lazily up to
    /// the touched prefix only, not pre-sized to the full array.
    #[allow(clippy::too_many_arguments)]
    pub fn range_access(
        &mut self,
        pe: usize,
        arr: usize,
        len: usize,
        name: &'static str,
        off: usize,
        n: usize,
        write: bool,
        section: &'static str,
    ) {
        if n == 0 {
            return;
        }
        debug_assert!(off + n <= len, "access [{off}, {}) outside array of {len}", off + n);
        if !self.batch {
            // Reference path: eager full-length allocation, scalar loop.
            self.ensure(arr, len);
            for idx in off..off + n {
                if write {
                    self.write(pe, arr, name, idx, section);
                } else {
                    self.read(pe, arr, name, idx, section);
                }
            }
            return;
        }
        self.ensure(arr, off + n);
        if n == 1 {
            if write {
                self.write(pe, arr, name, off, section);
            } else {
                self.read(pe, arr, name, off, section);
            }
        } else if write {
            self.write_range(pe, arr, name, off, n, section);
        } else {
            self.read_range(pe, arr, name, off, n, section);
        }
    }

    /// Record a scattered access sequence: `pe` touches `arr[idxs[k]]` in
    /// submission order. Behaviourally identical to one
    /// [`RaceDetector::range_access`] of length 1 per index (asserted by the
    /// differential test below), but with the bound/registration work done
    /// once and the per-element FastTrack transition specialised for the
    /// dominant no-race cases (mirroring the streamed range batching).
    #[allow(clippy::too_many_arguments)]
    pub fn scatter_access(
        &mut self,
        pe: usize,
        arr: usize,
        len: usize,
        name: &'static str,
        idxs: &[usize],
        write: bool,
        section: &'static str,
    ) {
        if idxs.is_empty() {
            return;
        }
        debug_assert!(
            idxs.iter().all(|&idx| idx < len),
            "scattered access outside array of {len}"
        );
        if !self.batch {
            // Reference path: eager full-length allocation, scalar loop.
            self.ensure(arr, len);
            for &idx in idxs {
                if write {
                    self.write(pe, arr, name, idx, section);
                } else {
                    self.read(pe, arr, name, idx, section);
                }
            }
            return;
        }
        // Lazy allocation up to the touched prefix, like the range path.
        let max = idxs.iter().copied().max().unwrap_or(0);
        self.ensure(arr, max + 1);
        if write {
            self.write_indices(pe, arr, name, idxs, section);
        } else {
            self.read_indices(pe, arr, name, idxs, section);
        }
    }

    /// Bulk scattered-write path; behaviourally identical to calling
    /// [`Self::write`] per index. The epoch and the per-PE clock row are
    /// hoisted out of the loop, and the common transitions — same-epoch
    /// repeat, and race-free overwrite of an unescalated element — run
    /// inline; anything potentially racing (or holding a read vector) falls
    /// back to the scalar path, which owns all reporting.
    fn write_indices(
        &mut self,
        pe: usize,
        arr: usize,
        name: &'static str,
        idxs: &[usize],
        section: &'static str,
    ) {
        let own = self.vc[pe][pe];
        let wnew = Epoch { clk: own, pe: pe as u32 };
        let n = idxs.len();
        let mut i = 0;
        while i < n {
            let mut pending = false;
            {
                let vars = &mut self.vars[arr];
                let vc = &self.vc[pe];
                while i < n {
                    let x = &mut vars[idxs[i]];
                    // Same-epoch write: already recorded (and, exactly like
                    // the scalar path, the read history is left untouched).
                    if x.w == wnew {
                        i += 1;
                        continue;
                    }
                    let ww_race =
                        x.w.clk > 0 && x.w.pe as usize != pe && x.w.clk > vc[x.w.pe as usize];
                    let rw_risk = x.rvc.is_some()
                        || (x.r.clk > 0 && x.r.pe as usize != pe && x.r.clk > vc[x.r.pe as usize]);
                    if ww_race || rw_risk {
                        pending = true;
                        break;
                    }
                    x.w = wnew;
                    x.r = Epoch::default();
                    i += 1;
                }
            }
            if pending {
                self.write(pe, arr, name, idxs[i], section);
                i += 1;
            }
        }
    }

    /// Bulk scattered-read path; behaviourally identical to calling
    /// [`Self::read`] per index. Same-epoch repeats and ordered reads run
    /// inline; write-read races, escalated elements and concurrent-reader
    /// escalation fall back to the scalar path.
    fn read_indices(
        &mut self,
        pe: usize,
        arr: usize,
        name: &'static str,
        idxs: &[usize],
        section: &'static str,
    ) {
        let own = self.vc[pe][pe];
        let rnew = Epoch { clk: own, pe: pe as u32 };
        let n = idxs.len();
        let mut i = 0;
        while i < n {
            let mut pending = false;
            {
                let vars = &mut self.vars[arr];
                let vc = &self.vc[pe];
                while i < n {
                    let x = &mut vars[idxs[i]];
                    // Same-epoch read: already recorded.
                    if x.rvc.is_none() && x.r == rnew {
                        i += 1;
                        continue;
                    }
                    let wr_race =
                        x.w.clk > 0 && x.w.pe as usize != pe && x.w.clk > vc[x.w.pe as usize];
                    if wr_race || x.rvc.is_some() {
                        pending = true;
                        break;
                    }
                    if x.r.clk == 0 || x.r.pe as usize == pe || x.r.clk <= vc[x.r.pe as usize] {
                        // Previous read happens-before this one.
                        x.r = rnew;
                        i += 1;
                    } else {
                        // Concurrent readers: escalate via the scalar path.
                        pending = true;
                        break;
                    }
                }
            }
            if pending {
                self.read(pe, arr, name, idxs[i], section);
                i += 1;
            }
        }
    }

    /// Scan forward from `i` (exclusive) to `end` for the maximal run of
    /// elements sharing the epoch-compressed state `(gw, gr, rvc=None)`.
    fn group_end(&self, arr: usize, i: usize, end: usize, gw: Epoch, gr: Epoch) -> usize {
        let mut j = i + 1;
        while j < end {
            let x = &self.vars[arr][j];
            if x.rvc.is_some() || x.w != gw || x.r != gr {
                break;
            }
            j += 1;
        }
        j
    }

    /// Bulk write path; behaviourally identical to calling [`Self::write`]
    /// per element (asserted by the differential test below). A racing
    /// group of `k` elements reports once and suppresses `k - 1`: exactly
    /// what `k` scalar calls do, since the first call either records the
    /// class or suppresses it and the repeats always hit the `seen` set.
    fn write_range(
        &mut self,
        pe: usize,
        arr: usize,
        name: &'static str,
        off: usize,
        n: usize,
        section: &'static str,
    ) {
        let own = self.vc[pe][pe];
        let end = off + n;
        let mut i = off;
        while i < end {
            let x = &self.vars[arr][i];
            if x.rvc.is_some() {
                // Escalated read vectors are rare; scalar path.
                self.write(pe, arr, name, i, section);
                i += 1;
                continue;
            }
            let (gw, gr) = (x.w, x.r);
            let j = self.group_end(arr, i, end, gw, gr);
            let k = (j - i) as u64;
            // Same-epoch write: the whole group is already recorded.
            if gw.clk == own && gw.pe as usize == pe {
                i = j;
                continue;
            }
            if gw.clk > 0 && gw.pe as usize != pe && gw.clk > self.vc[pe][gw.pe as usize] {
                self.report(RaceKind::WriteWrite, gw.pe as usize, pe, arr, name, i, section);
                self.suppressed += k - 1;
            }
            if gr.clk > 0 && gr.pe as usize != pe && gr.clk > self.vc[pe][gr.pe as usize] {
                self.report(RaceKind::ReadThenWrite, gr.pe as usize, pe, arr, name, i, section);
                self.suppressed += k - 1;
            }
            let wnew = Epoch { clk: own, pe: pe as u32 };
            for x in &mut self.vars[arr][i..j] {
                x.w = wnew;
                x.r = Epoch::default();
            }
            i = j;
        }
    }

    /// Bulk read path; behaviourally identical to calling [`Self::read`]
    /// per element.
    fn read_range(
        &mut self,
        pe: usize,
        arr: usize,
        name: &'static str,
        off: usize,
        n: usize,
        section: &'static str,
    ) {
        let own = self.vc[pe][pe];
        let end = off + n;
        let mut i = off;
        while i < end {
            let x = &self.vars[arr][i];
            if x.rvc.is_some() {
                self.read(pe, arr, name, i, section);
                i += 1;
                continue;
            }
            let (gw, gr) = (x.w, x.r);
            let j = self.group_end(arr, i, end, gw, gr);
            let k = (j - i) as u64;
            // Same-epoch read: already recorded.
            if gr.clk == own && gr.pe as usize == pe {
                i = j;
                continue;
            }
            // Write-read race: report once and leave the state untouched
            // (the write already dominates these elements), as the scalar
            // path does.
            if gw.clk > 0 && gw.pe as usize != pe && gw.clk > self.vc[pe][gw.pe as usize] {
                self.report(RaceKind::WriteThenRead, gw.pe as usize, pe, arr, name, i, section);
                self.suppressed += k - 1;
                i = j;
                continue;
            }
            if gr.clk == 0 || gr.pe as usize == pe || gr.clk <= self.vc[pe][gr.pe as usize] {
                // Previous read happens-before this one: stay exclusive.
                let rnew = Epoch { clk: own, pe: pe as u32 };
                for x in &mut self.vars[arr][i..j] {
                    x.r = rnew;
                }
            } else {
                // Two concurrent readers: escalate each element.
                for x in &mut self.vars[arr][i..j] {
                    let mut rv = vec![0u32; self.p].into_boxed_slice();
                    rv[gr.pe as usize] = gr.clk;
                    rv[pe] = own;
                    x.rvc = Some(rv);
                }
            }
            i = j;
        }
    }

    fn read(&mut self, pe: usize, arr: usize, name: &'static str, idx: usize, section: &'static str) {
        let own = self.vc[pe][pe];
        let x = &mut self.vars[arr][idx];
        // Same-epoch read: already recorded.
        if x.rvc.is_none() && x.r.clk == own && x.r.pe as usize == pe {
            return;
        }
        // Write-read race: last write not ordered before this read.
        if x.w.clk > 0 && x.w.pe as usize != pe && x.w.clk > self.vc[pe][x.w.pe as usize] {
            let prev = x.w.pe as usize;
            self.report(RaceKind::WriteThenRead, prev, pe, arr, name, idx, section);
            return; // leave state; the write already dominates this element
        }
        let x = &mut self.vars[arr][idx];
        match &mut x.rvc {
            Some(rv) => rv[pe] = own,
            None => {
                if x.r.clk == 0
                    || x.r.pe as usize == pe
                    || x.r.clk <= self.vc[pe][x.r.pe as usize]
                {
                    // Previous read happens-before this one: stay exclusive.
                    x.r = Epoch { clk: own, pe: pe as u32 };
                } else {
                    // Two concurrent readers: escalate to a read vector.
                    let mut rv = vec![0u32; self.p].into_boxed_slice();
                    rv[x.r.pe as usize] = x.r.clk;
                    rv[pe] = own;
                    x.rvc = Some(rv);
                }
            }
        }
    }

    fn write(&mut self, pe: usize, arr: usize, name: &'static str, idx: usize, section: &'static str) {
        let own = self.vc[pe][pe];
        let x = &self.vars[arr][idx];
        // Same-epoch write: already recorded.
        if x.w.clk == own && x.w.pe as usize == pe {
            return;
        }
        // Write-write race.
        if x.w.clk > 0 && x.w.pe as usize != pe && x.w.clk > self.vc[pe][x.w.pe as usize] {
            let prev = x.w.pe as usize;
            self.report(RaceKind::WriteWrite, prev, pe, arr, name, idx, section);
        }
        // Read-write races.
        match &self.vars[arr][idx].rvc {
            Some(rv) => {
                let racers: Vec<usize> = (0..self.p)
                    .filter(|&u| u != pe && rv[u] > self.vc[pe][u])
                    .collect();
                for prev in racers {
                    self.report(RaceKind::ReadThenWrite, prev, pe, arr, name, idx, section);
                }
            }
            None => {
                let r = self.vars[arr][idx].r;
                if r.clk > 0 && r.pe as usize != pe && r.clk > self.vc[pe][r.pe as usize] {
                    self.report(RaceKind::ReadThenWrite, r.pe as usize, pe, arr, name, idx, section);
                }
            }
        }
        let x = &mut self.vars[arr][idx];
        x.w = Epoch { clk: own, pe: pe as u32 };
        // The write supersedes the read history: later conflicting accesses
        // will race with the write epoch if unordered.
        x.r = Epoch::default();
        x.rvc = None;
    }

    /// Global barrier: join every clock (unless fault injection skips this
    /// one), then advance each PE into a fresh epoch.
    pub fn barrier(&mut self) {
        self.barriers_seen += 1;
        if self.inject_skip_barrier == Some(self.barriers_seen) {
            self.inject_skip_barrier = None;
            return;
        }
        let mut mx = vec![0u32; self.p];
        for pe in 0..self.p {
            for (m, &c) in mx.iter_mut().zip(&self.vc[pe]) {
                *m = (*m).max(c);
            }
        }
        for pe in 0..self.p {
            self.vc[pe].copy_from_slice(&mx);
            self.vc[pe][pe] += 1;
        }
    }

    /// Release: snapshot `pe`'s clock (the token a completed message hands
    /// to its receiver) and advance `pe` into a fresh epoch so its later
    /// accesses are not covered by the token.
    pub fn release(&mut self, pe: usize) -> Box<[u32]> {
        let snap = self.vc[pe].clone().into_boxed_slice();
        self.vc[pe][pe] += 1;
        snap
    }

    /// Acquire: join a release token into `pe`'s clock.
    pub fn acquire(&mut self, pe: usize, token: &[u32]) {
        for (c, &t) in self.vc[pe].iter_mut().zip(token) {
            *c = (*c).max(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: &str = "(test)";

    fn acc(d: &mut RaceDetector, pe: usize, idx: usize, write: bool) {
        d.range_access(pe, 0, 64, "a", idx, 1, write, SEC);
    }

    #[test]
    fn disjoint_writes_are_clean() {
        let mut d = RaceDetector::new(4);
        for pe in 0..4 {
            acc(&mut d, pe, pe, true);
        }
        d.barrier();
        for pe in 0..4 {
            acc(&mut d, pe, (pe + 1) % 4, true);
        }
        assert!(d.reports().is_empty(), "{:?}", d.reports());
    }

    #[test]
    fn unordered_write_write_is_a_race() {
        let mut d = RaceDetector::new(2);
        acc(&mut d, 0, 5, true);
        acc(&mut d, 1, 5, true);
        assert_eq!(d.reports().len(), 1);
        let r = &d.reports()[0];
        assert_eq!(r.kind, RaceKind::WriteWrite);
        assert_eq!((r.prev_pe, r.pe, r.index), (0, 1, 5));
    }

    #[test]
    fn barrier_orders_write_then_read() {
        let mut d = RaceDetector::new(2);
        acc(&mut d, 0, 7, true);
        d.barrier();
        acc(&mut d, 1, 7, false);
        assert!(d.reports().is_empty());
    }

    #[test]
    fn missing_barrier_write_then_read_races() {
        let mut d = RaceDetector::new(2);
        acc(&mut d, 0, 7, true);
        acc(&mut d, 1, 7, false);
        assert_eq!(d.reports()[0].kind, RaceKind::WriteThenRead);
    }

    #[test]
    fn concurrent_reads_are_clean_but_unordered_writer_races_with_both() {
        let mut d = RaceDetector::new(3);
        acc(&mut d, 0, 3, false);
        acc(&mut d, 1, 3, false);
        assert!(d.reports().is_empty(), "concurrent reads are not a race");
        acc(&mut d, 2, 3, true);
        let kinds: Vec<RaceKind> = d.reports().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![RaceKind::ReadThenWrite, RaceKind::ReadThenWrite]);
    }

    #[test]
    fn release_acquire_carries_the_edge() {
        let mut d = RaceDetector::new(2);
        acc(&mut d, 0, 9, true);
        let tok = d.release(0);
        d.acquire(1, &tok);
        acc(&mut d, 1, 9, false);
        assert!(d.reports().is_empty(), "{:?}", d.reports());
        // Without the acquire the same pattern races.
        let mut d2 = RaceDetector::new(2);
        acc(&mut d2, 0, 9, true);
        let _tok = d2.release(0);
        acc(&mut d2, 1, 9, false);
        assert_eq!(d2.reports().len(), 1);
    }

    #[test]
    fn release_does_not_cover_later_writes() {
        let mut d = RaceDetector::new(2);
        let tok = d.release(0);
        acc(&mut d, 0, 4, true); // after the release snapshot
        d.acquire(1, &tok);
        acc(&mut d, 1, 4, false);
        assert_eq!(d.reports().len(), 1, "token must not cover post-release writes");
    }

    #[test]
    fn injected_missing_barrier_skips_exactly_one_join() {
        let mut d = RaceDetector::new(2);
        d.inject_missing_barrier(2);
        acc(&mut d, 0, 0, true);
        d.barrier(); // 1st: real
        acc(&mut d, 1, 0, false);
        assert!(d.reports().is_empty());
        acc(&mut d, 0, 1, true);
        d.barrier(); // 2nd: skipped
        acc(&mut d, 1, 1, false);
        assert_eq!(d.reports().len(), 1, "the skipped barrier must expose the race");
        acc(&mut d, 0, 2, true);
        d.barrier(); // 3rd: real again
        acc(&mut d, 1, 2, false);
        assert_eq!(d.reports().len(), 1, "later barriers must work normally");
    }

    #[test]
    fn reports_are_deduplicated_per_class_and_counted() {
        let mut d = RaceDetector::new(2);
        for idx in 0..10 {
            acc(&mut d, 0, idx, true);
            acc(&mut d, 1, idx, true);
        }
        assert_eq!(d.reports().len(), 1, "one report per (kind, pes, array) class");
        assert_eq!(d.suppressed(), 9);
    }

    #[test]
    fn bulk_racing_run_reports_once_and_counts_rest() {
        let mut d = RaceDetector::new(2);
        d.range_access(0, 0, 64, "a", 0, 10, true, SEC);
        d.range_access(1, 0, 64, "a", 0, 10, true, SEC);
        assert_eq!(d.reports().len(), 1, "one report per (kind, pes, array) class");
        assert_eq!(d.suppressed(), 9);
    }

    /// The bulk range paths must be observationally identical to the scalar
    /// per-element paths: drive two detectors with the same pseudo-random
    /// schedule of ranged accesses, barriers and release/acquire edges —
    /// one taking the bulk path, the other element-by-element — and require
    /// identical reports and suppression counts throughout.
    #[test]
    fn bulk_range_matches_elementwise_reference() {
        let mut bulk = RaceDetector::new(4);
        let mut elem = RaceDetector::new(4);
        let mut x = 0xDEAD_BEEFu64;
        let mut rng = |m: usize| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize % m
        };
        for _ in 0..600 {
            let pe = rng(4);
            match rng(10) {
                0 => {
                    bulk.barrier();
                    elem.barrier();
                }
                2 => {
                    let to = rng(4);
                    let tb = bulk.release(pe);
                    let te = elem.release(pe);
                    bulk.acquire(to, &tb);
                    elem.acquire(to, &te);
                }
                _ => {
                    let off = rng(60);
                    let n = 1 + rng(64 - off);
                    let write = rng(2) == 0;
                    bulk.range_access(pe, 0, 64, "a", off, n, write, SEC);
                    for idx in off..off + n {
                        elem.range_access(pe, 0, 64, "a", idx, 1, write, SEC);
                    }
                }
            }
            assert_eq!(bulk.reports(), elem.reports());
            assert_eq!(bulk.suppressed(), elem.suppressed());
        }
        assert!(bulk.suppressed() > 0, "schedule should have exercised dedup");
    }

    /// The bulk scattered-index path must be observationally identical to
    /// the scalar per-element path, like the range paths above: same
    /// pseudo-random schedule of scattered batches (with duplicate indices),
    /// ranges, barriers and release/acquire edges through a batching and a
    /// scalar detector, identical reports and counts throughout.
    #[test]
    fn scatter_matches_elementwise_reference() {
        let mut bulk = RaceDetector::new(4);
        let mut elem = RaceDetector::new(4);
        elem.set_batching(false);
        let mut x = 0xFEED_C0DEu64;
        let mut rng = |m: usize| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize % m
        };
        for _ in 0..600 {
            let pe = rng(4);
            match rng(10) {
                0 => {
                    bulk.barrier();
                    elem.barrier();
                }
                2 => {
                    let to = rng(4);
                    let tb = bulk.release(pe);
                    let te = elem.release(pe);
                    bulk.acquire(to, &tb);
                    elem.acquire(to, &te);
                }
                3 => {
                    let off = rng(60);
                    let n = 1 + rng(64 - off);
                    let write = rng(2) == 0;
                    bulk.range_access(pe, 0, 64, "a", off, n, write, SEC);
                    elem.range_access(pe, 0, 64, "a", off, n, write, SEC);
                }
                _ => {
                    let n = 1 + rng(24);
                    // Duplicates on purpose: scatters revisit indices.
                    let idxs: Vec<usize> = (0..n).map(|_| rng(64)).collect();
                    let write = rng(2) == 0;
                    bulk.scatter_access(pe, 0, 64, "a", &idxs, write, SEC);
                    elem.scatter_access(pe, 0, 64, "a", &idxs, write, SEC);
                }
            }
            assert_eq!(bulk.reports(), elem.reports());
            assert_eq!(bulk.suppressed(), elem.suppressed());
        }
        assert!(bulk.suppressed() > 0, "schedule should have exercised dedup");
    }

    #[test]
    fn display_names_the_parties() {
        let mut d = RaceDetector::new(2);
        d.range_access(0, 0, 64, "hists", 12, 1, true, "combine");
        d.range_access(1, 0, 64, "hists", 12, 1, true, "combine");
        let msg = d.reports()[0].to_string();
        assert!(msg.contains("write-write") && msg.contains("hists[12]"), "{msg}");
        assert!(msg.contains("pe 0") && msg.contains("pe 1") && msg.contains("combine"), "{msg}");
    }
}
