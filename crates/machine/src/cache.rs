//! Set-associative write-back cache model with MESI line states.
//!
//! The cache operates at line granularity: callers translate element
//! accesses to line touches. State is kept as one flat array of per-way
//! records (tag + LRU stamp + state together) so a probe touches a single
//! contiguous run of host memory — cheap enough to invoke hundreds of
//! millions of times in a simulation run, and friendly to the host's own
//! caches when the simulated access stream is scattered.

/// Coherence state of a line in a processor's cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    Invalid,
    Shared,
    /// Exclusive clean or dirty; `Modified` tracks dirtiness separately so
    /// eviction knows whether a writeback is needed.
    Exclusive,
    Modified,
}

/// Result of probing the cache for a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Present with a state sufficient for the access; carries the line's
    /// state *after* the probe (a write hit on Exclusive is already
    /// promoted to Modified), so callers never need a second tag walk.
    Hit(LineState),
    /// Present in `Shared` state but the access is a write: needs an
    /// ownership upgrade (no data fetch).
    UpgradeNeeded,
    /// Not present: needs a fetch. If a valid line was evicted to make room,
    /// `victim` carries its line index and whether it was dirty.
    Miss { victim: Option<Victim> },
}

/// An evicted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Global line index of the evicted line.
    pub line: u64,
    /// Whether the line was in `Modified` state (requires a writeback).
    pub dirty: bool,
}

/// One way of one set: tag, LRU stamp and MESI state packed into 16 bytes
/// so a probe's tag compare, stamp refresh and state transition all land on
/// the same host cache line, and a 4 MB simulated L2's metadata shrinks to
/// 512 KB per PE. (Three parallel arrays — the original layout — cost three
/// distinct host lines per probe, which dominated the simulator's hot loop
/// once the simulated access stream stopped being sequential.)
///
/// `meta` holds `stamp << 2 | state`. Every stamp is written right after a
/// private clock increment, so stamps of valid ways are pairwise distinct;
/// therefore comparing packed `meta` values orders ways exactly as
/// comparing bare stamps would — the state bits in the low two positions
/// can never decide — and the LRU victim choice is bit-identical to the
/// unpacked representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    /// Global line index + 1 (0 = empty).
    tag: u64,
    /// `stamp << 2 | state` (state: 0 = Invalid, 1 = Shared, 2 = Exclusive,
    /// 3 = Modified).
    meta: u64,
}

const ST_INVALID: u64 = 0;
const ST_SHARED: u64 = 1;
const ST_EXCLUSIVE: u64 = 2;
const ST_MODIFIED: u64 = 3;

impl Way {
    #[inline(always)]
    fn state(self) -> LineState {
        match self.meta & 3 {
            ST_SHARED => LineState::Shared,
            ST_EXCLUSIVE => LineState::Exclusive,
            ST_MODIFIED => LineState::Modified,
            _ => LineState::Invalid,
        }
    }

    #[inline(always)]
    fn valid(self) -> bool {
        self.meta & 3 != ST_INVALID
    }

    #[inline(always)]
    fn dirty(self) -> bool {
        self.meta & 3 == ST_MODIFIED
    }
}

#[inline(always)]
fn state_code(state: LineState) -> u64 {
    match state {
        LineState::Invalid => ST_INVALID,
        LineState::Shared => ST_SHARED,
        LineState::Exclusive => ST_EXCLUSIVE,
        LineState::Modified => ST_MODIFIED,
    }
}

const EMPTY_WAY: Way = Way { tag: 0, meta: 0 };

/// A set-associative cache indexed by global line number.
#[derive(Debug, Clone)]
pub struct Cache {
    assoc: usize,
    set_mask: u64,
    /// Log2 of lines per page, for physically-indexed set selection;
    /// `u32::MAX` disables page randomization (pure modulo indexing).
    page_lines_shift: u32,
    /// `ways[set * assoc + way]`.
    ways: Vec<Way>,
    clock: u64,
}

/// Odd multiplier for the page-frame hash (splitmix64's constant).
const PAGE_HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

impl Cache {
    /// Create a cache with pure modulo set indexing (sets must be a power
    /// of two).
    pub fn new(sets: usize, assoc: usize) -> Self {
        assert!(sets.is_power_of_two() && sets > 0);
        assert!(assoc > 0);
        Cache {
            assoc,
            set_mask: (sets - 1) as u64,
            page_lines_shift: u32::MAX,
            ways: vec![EMPTY_WAY; sets * assoc],
            clock: 0,
        }
    }

    /// Create a *physically indexed* cache: set selection hashes the page
    /// number (a deterministic stand-in for the OS's virtual→physical page
    /// mapping) while keeping within-page lines consecutive. Real machines
    /// behave this way — page-aligned data structures do not stay
    /// set-aligned in a physically indexed cache — and without it,
    /// power-of-two-strided structures (e.g. the digit segments of a radix
    /// sort's staging buffer) alias pathologically.
    pub fn physically_indexed(sets: usize, assoc: usize, lines_per_page: usize) -> Self {
        assert!(lines_per_page.is_power_of_two() && lines_per_page > 0);
        let mut c = Cache::new(sets, assoc);
        c.page_lines_shift = lines_per_page.trailing_zeros();
        c
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        if self.page_lines_shift == u32::MAX {
            return (line & self.set_mask) as usize;
        }
        let page = line >> self.page_lines_shift;
        // Hash the page frame and xor it across *all* set-index bits:
        // consecutive lines within a page stay in consecutive sets (good
        // for streams), while same-offset lines of different pages land in
        // unrelated sets — as they do under a real OS's scattered physical
        // page allocation.
        let frame = page.wrapping_mul(PAGE_HASH_MULT);
        let frame = frame ^ (frame >> 32);
        ((line ^ frame) & self.set_mask) as usize
    }

    /// Probe for `line`. On a hit the LRU stamp is refreshed and, for
    /// writes, the state is promoted to `Modified` (if it was Exclusive) or
    /// reported as `UpgradeNeeded` (if Shared). On a miss nothing is
    /// installed — call [`Cache::install`] after the directory transaction
    /// resolves.
    pub fn probe(&mut self, line: u64, write: bool) -> Probe {
        let set = self.set_of(line);
        let base = set * self.assoc;
        self.clock += 1;
        let tag = line + 1;
        for way in 0..self.assoc {
            let w = &mut self.ways[base + way];
            if w.tag == tag && w.valid() {
                if write {
                    return match w.meta & 3 {
                        ST_SHARED => {
                            w.meta = (self.clock << 2) | ST_SHARED;
                            Probe::UpgradeNeeded
                        }
                        _ => {
                            w.meta = (self.clock << 2) | ST_MODIFIED;
                            Probe::Hit(LineState::Modified)
                        }
                    };
                }
                w.meta = (self.clock << 2) | (w.meta & 3);
                return Probe::Hit(w.state());
            }
        }
        // Miss: choose a victim way (prefer an invalid one).
        let victim = self.pick_victim(set);
        Probe::Miss { victim }
    }

    /// The page-frame component of [`Cache::set_of`] for a physically
    /// indexed cache: every cache sharing the same `lines_per_page` maps
    /// `line` through the same frame hash, so the walk computes it once per
    /// page change and feeds both the L1 and L2 probes.
    #[inline(always)]
    pub(crate) fn frame_of(page: u64) -> u64 {
        let frame = page.wrapping_mul(PAGE_HASH_MULT);
        frame ^ (frame >> 32)
    }

    /// Whether this cache has the fast twins below: they exist for the
    /// 2-way, physically indexed shape only (every preset's). The walk
    /// checks this once per call and runs the reference per line otherwise.
    #[inline]
    pub(crate) fn has_fast_twins(&self) -> bool {
        self.assoc == 2 && self.page_lines_shift != u32::MAX
    }

    /// Value-identical twin of [`Cache::probe`] for the machine's one fast
    /// walk: the same algorithm and state evolution, but force-inlined,
    /// with the caller-precomputed page frame (see [`Cache::frame_of`])
    /// replacing the per-probe `set_of` hash, and the two ways laid out
    /// branch-minimally. A tag can match at most one way (installs only
    /// happen after a miss reported the line absent), so evaluating both
    /// ways and selecting is identical to the reference's first-match scan.
    /// `probe` itself is deliberately left semantically untouched — it is
    /// the per-line reference walk's cost model, frozen by the fast-path
    /// equivalence discipline — and the `probe_fast_ext_matches_probe`
    /// differential test drives both through a randomized
    /// probe/install/invalidate stream asserting identical results and
    /// identical final state.
    ///
    /// The LRU clock is held in a caller-owned local: the walk's line
    /// iterator may carry raw pointers (the data move), so a clock living
    /// inside `self` would be spilled and reloaded every line; a stack
    /// local the walk writes back once per tight loop stays in a register.
    /// `*clock` sees exactly the same increment sequence.
    #[inline(always)]
    pub(crate) fn probe_fast_ext(
        &mut self,
        line: u64,
        frame: u64,
        write: bool,
        clock: &mut u64,
    ) -> Probe {
        debug_assert!(self.has_fast_twins(), "probe_fast_ext needs a 2-way physically indexed cache");
        debug_assert_eq!(frame, Self::frame_of(line >> self.page_lines_shift));
        let base = ((line ^ frame) & self.set_mask) as usize * 2;
        *clock += 1;
        let clock = *clock;
        let tag = line + 1;
        let ways = &mut self.ways[base..base + 2];
        let hit0 = ways[0].tag == tag && ways[0].valid();
        let hit1 = ways[1].tag == tag && ways[1].valid();
        if hit0 | hit1 {
            let w = &mut ways[usize::from(hit1)];
            if write {
                return match w.meta & 3 {
                    ST_SHARED => {
                        w.meta = (clock << 2) | ST_SHARED;
                        Probe::UpgradeNeeded
                    }
                    _ => {
                        w.meta = (clock << 2) | ST_MODIFIED;
                        Probe::Hit(LineState::Modified)
                    }
                };
            }
            w.meta = (clock << 2) | (w.meta & 3);
            return Probe::Hit(w.state());
        }
        // Miss: prefer an invalid way (reference scan order: way 0 first),
        // else evict the way with the older stamp.
        if !ways[0].valid() || !ways[1].valid() {
            return Probe::Miss { victim: None };
        }
        let v = &ways[usize::from(ways[1].meta < ways[0].meta)];
        Probe::Miss { victim: Some(Victim { line: v.tag - 1, dirty: v.dirty() }) }
    }

    fn pick_victim(&self, set: usize) -> Option<Victim> {
        let base = set * self.assoc;
        let mut lru_way = 0;
        let mut lru_meta = u64::MAX;
        for way in 0..self.assoc {
            let w = &self.ways[base + way];
            if !w.valid() {
                return None; // room available; nothing evicted
            }
            if w.meta < lru_meta {
                lru_meta = w.meta;
                lru_way = way;
            }
        }
        let w = &self.ways[base + lru_way];
        Some(Victim { line: w.tag - 1, dirty: w.dirty() })
    }

    /// Install `line` in `state`, evicting the LRU way if the set is full.
    /// Returns the evicted line (if any) so the caller can notify the
    /// directory and account a writeback — silently dropping a victim
    /// would leave the directory with ghost owners.
    pub fn install(&mut self, line: u64, state: LineState) -> Option<Victim> {
        debug_assert!(state != LineState::Invalid);
        let set = self.set_of(line);
        let base = set * self.assoc;
        self.clock += 1;
        // Prefer an invalid way, else evict LRU.
        let mut target = None;
        let mut lru_way = 0;
        let mut lru_meta = u64::MAX;
        for way in 0..self.assoc {
            let w = &self.ways[base + way];
            if !w.valid() {
                target = Some(way);
                break;
            }
            if w.meta < lru_meta {
                lru_meta = w.meta;
                lru_way = way;
            }
        }
        let way = target.unwrap_or(lru_way);
        let w = &mut self.ways[base + way];
        let victim = if target.is_none() {
            Some(Victim { line: w.tag - 1, dirty: w.dirty() })
        } else {
            None
        };
        w.tag = line + 1;
        w.meta = (self.clock << 2) | state_code(state);
        victim
    }

    /// Value-identical twin of [`Cache::install`] for the fast walk:
    /// caller-precomputed page frame, caller-owned LRU clock (see
    /// [`Cache::probe_fast_ext`]) and the two ways laid out directly. The
    /// reference scan prefers the first invalid way and way 0 is checked
    /// first, which this reproduces. Kept in lock step with `install` by
    /// the `install_fast_matches_install` differential test.
    #[inline(always)]
    pub(crate) fn install_fast(
        &mut self,
        line: u64,
        frame: u64,
        state: LineState,
        clock: &mut u64,
    ) -> Option<Victim> {
        debug_assert!(state != LineState::Invalid);
        debug_assert!(self.has_fast_twins(), "install_fast needs a 2-way physically indexed cache");
        debug_assert_eq!(frame, Self::frame_of(line >> self.page_lines_shift));
        let base = ((line ^ frame) & self.set_mask) as usize * 2;
        *clock += 1;
        let clock = *clock;
        let ways = &mut self.ways[base..base + 2];
        let (way, evict) = if !ways[0].valid() {
            (0, false)
        } else if !ways[1].valid() {
            (1, false)
        } else {
            (usize::from(ways[1].meta < ways[0].meta), true)
        };
        let w = &mut ways[way];
        let victim = if evict { Some(Victim { line: w.tag - 1, dirty: w.dirty() }) } else { None };
        w.tag = line + 1;
        w.meta = (clock << 2) | state_code(state);
        victim
    }

    /// Read/write the LRU clock around a walk that runs it in a
    /// caller-owned local (see [`Cache::probe_fast_ext`]).
    #[inline(always)]
    pub(crate) fn walk_clock(&self) -> u64 {
        self.clock
    }

    #[inline(always)]
    pub(crate) fn set_walk_clock(&mut self, clock: u64) {
        debug_assert!(clock >= self.clock, "walk clock must not run backwards");
        self.clock = clock;
    }

    /// Promote a Shared line to Modified after an upgrade transaction.
    pub fn upgrade(&mut self, line: u64) {
        if let Some(i) = self.find(line) {
            debug_assert_eq!(self.ways[i].state(), LineState::Shared);
            self.ways[i].meta = (self.ways[i].meta & !3) | ST_MODIFIED;
        }
    }

    /// Remove `line` if present; returns whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> bool {
        if let Some(i) = self.find(line) {
            let dirty = self.ways[i].dirty();
            self.ways[i] = EMPTY_WAY;
            dirty
        } else {
            false
        }
    }

    /// Downgrade `line` to Shared (after a remote read intervention);
    /// returns whether it was dirty (data must be written back/forwarded).
    pub fn downgrade(&mut self, line: u64) -> bool {
        if let Some(i) = self.find(line) {
            let dirty = self.ways[i].dirty();
            self.ways[i].meta = (self.ways[i].meta & !3) | ST_SHARED;
            dirty
        } else {
            false
        }
    }

    /// Current state of `line`, if present.
    pub fn state(&self, line: u64) -> Option<LineState> {
        self.find(line).map(|i| self.ways[i].state())
    }

    fn find(&self, line: u64) -> Option<usize> {
        let set = self.set_of(line);
        let base = set * self.assoc;
        let tag = line + 1;
        (0..self.assoc)
            .map(|w| base + w)
            .find(|&i| self.ways[i].tag == tag && self.ways[i].valid())
    }

    /// Number of valid lines currently resident (diagnostics/tests).
    pub fn resident(&self) -> usize {
        self.ways.iter().filter(|w| w.valid()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(4, 2);
        assert!(matches!(c.probe(10, false), Probe::Miss { victim: None }));
        c.install(10, LineState::Shared);
        assert_eq!(c.probe(10, false), Probe::Hit(LineState::Shared));
        assert_eq!(c.state(10), Some(LineState::Shared));
    }

    #[test]
    fn write_hit_on_shared_needs_upgrade() {
        let mut c = Cache::new(4, 2);
        c.install(10, LineState::Shared);
        assert_eq!(c.probe(10, true), Probe::UpgradeNeeded);
        c.upgrade(10);
        assert_eq!(c.state(10), Some(LineState::Modified));
        assert_eq!(c.probe(10, true), Probe::Hit(LineState::Modified));
    }

    #[test]
    fn write_hit_on_exclusive_promotes_silently() {
        let mut c = Cache::new(4, 2);
        c.install(10, LineState::Exclusive);
        assert_eq!(c.probe(10, true), Probe::Hit(LineState::Modified));
        assert_eq!(c.state(10), Some(LineState::Modified));
    }

    #[test]
    fn lru_eviction_reports_dirty_victim() {
        let mut c = Cache::new(1, 2); // one set, two ways
        c.install(0, LineState::Modified);
        c.install(1, LineState::Shared);
        // Touch line 0 so line 1 is LRU.
        assert_eq!(c.probe(0, false), Probe::Hit(LineState::Modified));
        match c.probe(2, false) {
            Probe::Miss { victim: Some(v) } => {
                assert_eq!(v.line, 1);
                assert!(!v.dirty);
            }
            other => panic!("unexpected {other:?}"),
        }
        c.install(2, LineState::Shared);
        // Now 0 (dirty) is LRU versus 2.
        match c.probe(3, false) {
            Probe::Miss { victim: Some(v) } => {
                assert_eq!(v.line, 0);
                assert!(v.dirty);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = Cache::new(4, 2);
        c.install(7, LineState::Modified);
        assert!(c.downgrade(7));
        assert_eq!(c.state(7), Some(LineState::Shared));
        assert!(!c.invalidate(7));
        assert_eq!(c.state(7), None);
        // Invalidate of a missing line is a no-op.
        assert!(!c.invalidate(123));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = Cache::new(4, 1);
        for line in 0..4u64 {
            c.install(line, LineState::Shared);
        }
        for line in 0..4u64 {
            assert_eq!(c.probe(line, false), Probe::Hit(LineState::Shared), "line {line}");
        }
        assert_eq!(c.resident(), 4);
        // Line 4 maps to set 0 and evicts line 0 only.
        c.install(4, LineState::Shared);
        assert_eq!(c.state(0), None);
        assert_eq!(c.state(1), Some(LineState::Shared));
    }
}

#[cfg(test)]
mod physical_index_tests {
    use super::*;

    #[test]
    fn page_hash_breaks_page_stride_aliasing() {
        // 64 cursors striding at exactly page-multiples: pure modulo
        // indexing piles them into few sets; physical indexing spreads them.
        let lines_per_page = 32u64;
        let sets = 256;
        let resident_after = |mut c: Cache| {
            for cursor in 0..64u64 {
                c.install(cursor * 8 * lines_per_page, LineState::Modified);
            }
            c.resident()
        };
        let modulo = resident_after(Cache::new(sets, 2));
        let physical = resident_after(Cache::physically_indexed(sets, 2, lines_per_page as usize));
        assert!(physical > modulo, "physical indexing ({physical}) must keep more page-strided lines resident than modulo ({modulo})");
        assert!(physical >= 48, "expected most of the 64 strided lines resident, got {physical}");
    }

    #[test]
    fn consecutive_lines_mostly_avoid_self_conflict_under_hashing() {
        // A stream of consecutive lines fills half the slots of a 2-way
        // cache; hashed page placement loses only the occasional
        // triple-overlap (within-page lines stay consecutive, so there is
        // no systematic aliasing).
        let mut c = Cache::physically_indexed(1024, 2, 32);
        for line in 0..1024u64 {
            c.install(line, LineState::Shared);
        }
        assert!(c.resident() >= 850, "stream lost {} lines to conflicts", 1024 - c.resident());
    }

    #[test]
    fn hashing_is_consistent_probe_vs_install() {
        let mut c = Cache::physically_indexed(64, 2, 16);
        for line in [0u64, 12345, 999_999, 1 << 40] {
            assert!(matches!(c.probe(line, false), Probe::Miss { .. }));
            c.install(line, LineState::Exclusive);
            assert_eq!(c.probe(line, false), Probe::Hit(LineState::Exclusive), "line {line}");
        }
    }

    /// Twin and reference side by side, 2-way (the only shape with twins).
    fn twin_pair() -> (Cache, Cache) {
        let c = Cache::physically_indexed(64, 2, 16);
        assert!(c.has_fast_twins());
        (c.clone(), c)
    }

    /// `b.probe_fast_ext` with the clock read from and written back to `b`,
    /// the way the walk brackets a tight loop.
    fn probe_twin(b: &mut Cache, line: u64, write: bool) -> Probe {
        let frame = Cache::frame_of(line >> b.page_lines_shift);
        let mut clock = b.walk_clock();
        let r = b.probe_fast_ext(line, frame, write, &mut clock);
        b.set_walk_clock(clock);
        r
    }

    #[test]
    fn twins_exist_for_two_way_physically_indexed_caches_only() {
        assert!(Cache::physically_indexed(64, 2, 16).has_fast_twins());
        assert!(!Cache::physically_indexed(64, 4, 16).has_fast_twins());
        assert!(!Cache::new(64, 2).has_fast_twins());
    }

    /// `probe_fast_ext` is the walk's force-inlined twin of `probe`: drive
    /// both through the same randomized probe/install/invalidate stream and
    /// assert identical results and identical final state.
    #[test]
    fn probe_fast_ext_matches_probe() {
        let (mut a, mut b) = twin_pair();
        let mut x = 0x0DDB_1A5E_5BAD_5EEDu64;
        for step in 0..50_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let line = (x >> 33) % 200; // working set > capacity: misses churn
            let write = x & 1 == 1;
            let pa = a.probe(line, write);
            let pb = probe_twin(&mut b, line, write);
            assert_eq!(pa, pb, "step {step}: probe result diverged on line {line}");
            if let Probe::Miss { .. } = pa {
                let state = if write { LineState::Modified } else { LineState::Shared };
                assert_eq!(a.install(line, state), b.install(line, state), "step {step}");
            }
            if x & 0xF0 == 0 {
                assert_eq!(a.invalidate(line), b.invalidate(line), "step {step}");
            }
        }
        assert_eq!(a.ways, b.ways);
        assert_eq!(a.clock, b.clock);
    }

    /// Same discipline for `install_fast`: drive `install` and its twin
    /// (external clock, precomputed frame) through the same randomized
    /// miss/install stream; results and final state must match.
    #[test]
    fn install_fast_matches_install() {
        let (mut a, mut b) = twin_pair();
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for step in 0..50_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let line = (x >> 33) % 300;
            let write = x & 1 == 1;
            let missed = matches!(a.probe(line, write), Probe::Miss { .. });
            // Keep b's clock in step with a's probe tick too.
            probe_twin(&mut b, line, write);
            if missed {
                let state = if write { LineState::Modified } else { LineState::Exclusive };
                let va = a.install(line, state);
                let frame = Cache::frame_of(line >> b.page_lines_shift);
                let mut clock = b.walk_clock();
                let vb = b.install_fast(line, frame, state, &mut clock);
                b.set_walk_clock(clock);
                assert_eq!(va, vb, "step {step}: victim diverged on line {line}");
            }
        }
        assert_eq!(a.ways, b.ways);
        assert_eq!(a.clock, b.clock);
    }
}
