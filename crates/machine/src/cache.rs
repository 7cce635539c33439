//! Set-associative write-back cache model with MESI line states.
//!
//! The cache operates at line granularity: callers translate element
//! accesses to line touches. A way is one `u64`, `(line + 1) << 2 | state`
//! (0 = empty), in one flat array, so a probe touches a single contiguous
//! run of host memory — cheap enough to invoke hundreds of millions of
//! times in a simulation run, and friendly to the host's own caches when
//! the simulated access stream is scattered.
//!
//! Each set's ways are kept MRU → LRU with the empty ways at the tail: a
//! hit moves its way to the front, `install` shifts the set down one place
//! and evicts the last way, `invalidate` closes the gap. That is the order
//! per-way LRU stamps give, so victims are the stamps' own
//! (`tests::recency_order_matches_the_stamp_model`).

/// Coherence state of a line in a processor's cache. The discriminants
/// are a way word's state bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    Invalid = 0,
    Shared = 1,
    /// Exclusive clean or dirty; `Modified` tracks dirtiness separately so
    /// eviction knows whether a writeback is needed.
    Exclusive = 2,
    Modified = 3,
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

const ST_SHARED: u64 = LineState::Shared as u64;
const ST_MODIFIED: u64 = LineState::Modified as u64;
const ST_MASK: u64 = 3;

#[inline(always)]
fn state_of(way: u64) -> LineState {
    const STATES: [LineState; 4] =
        [LineState::Invalid, LineState::Shared, LineState::Exclusive, LineState::Modified];
    STATES[(way & ST_MASK) as usize]
}

/// The way word of `line` with its state bits clear. A resident line's
/// state is never Invalid, so a way holds `line` exactly when its upper
/// bits equal this.
#[inline(always)]
fn tag_of(line: u64) -> u64 {
    debug_assert!(line < u64::MAX >> 2, "line {line} does not fit a way word");
    (line + 1) << 2
}

/// The line a way holds, as a victim (`None` for an empty way).
#[inline(always)]
fn victim_of(way: u64) -> Option<Victim> {
    (way != 0).then(|| Victim { line: (way >> 2) - 1, dirty: way & ST_MASK == ST_MODIFIED })
}

/// A hit on `way`: its word after the access and the probe result.
#[inline(always)]
fn hit(way: u64, write: bool) -> (u64, Probe) {
    match (write, way & ST_MASK) {
        (true, ST_SHARED) => (way, Probe::UpgradeNeeded),
        (true, _) => (way | ST_MODIFIED, Probe::Hit(LineState::Modified)),
        (false, _) => (way, Probe::Hit(state_of(way))),
    }
}

/// A set-associative cache indexed by global line number.
#[derive(Debug, Clone)]
pub struct Cache {
    assoc: usize,
    set_mask: u64,
    /// Log2 of lines per page, for physically-indexed set selection;
    /// `u32::MAX` disables page randomization (pure modulo indexing).
    page_lines_shift: u32,
    /// `ways[set * assoc..][..assoc]`, MRU first, empty ways (0) last.
    ways: Vec<u64>,
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
            ways: vec![0; sets * assoc],
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

    /// The frame term of `line`'s set index, `set = (line ^ frame) & mask`:
    /// the hash of the line's page, folded across all set-index bits so
    /// consecutive lines within a page stay in consecutive sets (good for
    /// streams) while same-offset lines of different pages land in
    /// unrelated sets, as under a real OS's scattered physical page
    /// allocation. 0 for a modulo-indexed cache. It is the same for every
    /// line of a page, and for every cache of one page geometry, so the
    /// walk computes it once per page change and feeds both levels.
    #[inline(always)]
    pub(crate) fn frame(&self, line: u64) -> u64 {
        // A modulo cache's shift of `u32::MAX` leaves page 0, whose hash
        // is 0.
        let page = line.checked_shr(self.page_lines_shift).unwrap_or(0);
        let h = page.wrapping_mul(PAGE_HASH_MULT);
        h ^ (h >> 32)
    }

    /// The ways of `line`'s set, MRU first, given `line`'s frame.
    #[inline(always)]
    fn set(&mut self, line: u64, frame: u64) -> &mut [u64] {
        debug_assert_eq!(frame, self.frame(line), "frame of another page");
        let base = ((line ^ frame) & self.set_mask) as usize * self.assoc;
        &mut self.ways[base..base + self.assoc]
    }

    /// Probe for `line`, whose frame is `frame` (see [`Cache::frame`]). On
    /// a hit the line becomes its set's MRU way and, for writes, the state
    /// is promoted to `Modified` (if it was Exclusive) or reported as
    /// `UpgradeNeeded` (if Shared). On a miss nothing is installed — call
    /// [`Cache::install`] after the directory transaction resolves.
    #[inline(always)]
    pub fn probe(&mut self, line: u64, frame: u64, write: bool) -> Probe {
        let tag = tag_of(line);
        let ways = self.set(line, frame);
        // The MRU way first: repeat and streamed touches hit it.
        if ways[0] & !ST_MASK == tag {
            let (w, probe) = hit(ways[0], write);
            ways[0] = w;
            return probe;
        }
        for i in 1..ways.len() {
            if ways[i] & !ST_MASK == tag {
                let (w, probe) = hit(ways[i], write);
                for j in (0..i).rev() {
                    ways[j + 1] = ways[j];
                }
                ways[0] = w;
                return probe;
            }
        }
        Probe::Miss { victim: victim_of(ways[ways.len() - 1]) }
    }

    /// Install `line` (frame `frame`) in `state` as its set's MRU way,
    /// evicting the LRU way if the set is full. Returns the evicted line
    /// (if any) so the caller can notify the directory and account a
    /// writeback — silently dropping a victim would leave the directory
    /// with ghost owners.
    #[inline(always)]
    pub fn install(&mut self, line: u64, frame: u64, state: LineState) -> Option<Victim> {
        debug_assert!(state != LineState::Invalid);
        let word = tag_of(line) | state as u64;
        let ways = self.set(line, frame);
        let last = ways[ways.len() - 1];
        for j in (1..ways.len()).rev() {
            ways[j] = ways[j - 1];
        }
        ways[0] = word;
        victim_of(last)
    }

    /// Promote a Shared line to Modified after an upgrade transaction.
    pub fn upgrade(&mut self, line: u64) {
        if let Some(i) = self.find(line) {
            debug_assert_eq!(state_of(self.ways[i]), LineState::Shared);
            self.ways[i] |= ST_MODIFIED;
        }
    }

    /// Remove `line` if present; returns whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let Some(i) = self.find(line) else { return false };
        let dirty = self.ways[i] & ST_MASK == ST_MODIFIED;
        // Close the gap: the ways behind move up one place in order.
        let end = (i / self.assoc + 1) * self.assoc;
        for j in i..end - 1 {
            self.ways[j] = self.ways[j + 1];
        }
        self.ways[end - 1] = 0;
        dirty
    }

    /// Downgrade `line` to Shared (after a remote read intervention);
    /// returns whether it was dirty (data must be written back/forwarded).
    pub fn downgrade(&mut self, line: u64) -> bool {
        let Some(i) = self.find(line) else { return false };
        let dirty = self.ways[i] & ST_MASK == ST_MODIFIED;
        self.ways[i] = (self.ways[i] & !ST_MASK) | ST_SHARED;
        dirty
    }

    /// Current state of `line`, if present.
    pub fn state(&self, line: u64) -> Option<LineState> {
        self.find(line).map(|i| state_of(self.ways[i]))
    }

    /// `line`'s set.
    fn set_of(&self, line: u64) -> usize {
        ((line ^ self.frame(line)) & self.set_mask) as usize
    }

    /// Index in `ways` of `line`'s way, if resident.
    fn find(&self, line: u64) -> Option<usize> {
        let base = self.set_of(line) * self.assoc;
        let tag = tag_of(line);
        (base..base + self.assoc).find(|&i| self.ways[i] & !ST_MASK == tag)
    }

    /// Number of valid lines currently resident (diagnostics/tests).
    pub fn resident(&self) -> usize {
        self.ways.iter().filter(|&&w| w != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(4, 2);
        assert!(matches!(c.probe(10, c.frame(10), false), Probe::Miss { victim: None }));
        c.install(10, c.frame(10), LineState::Shared);
        assert_eq!(c.probe(10, c.frame(10), false), Probe::Hit(LineState::Shared));
        assert_eq!(c.state(10), Some(LineState::Shared));
    }

    #[test]
    fn write_hit_on_shared_needs_upgrade() {
        let mut c = Cache::new(4, 2);
        c.install(10, c.frame(10), LineState::Shared);
        assert_eq!(c.probe(10, c.frame(10), true), Probe::UpgradeNeeded);
        c.upgrade(10);
        assert_eq!(c.state(10), Some(LineState::Modified));
        assert_eq!(c.probe(10, c.frame(10), true), Probe::Hit(LineState::Modified));
    }

    #[test]
    fn write_hit_on_exclusive_promotes_silently() {
        let mut c = Cache::new(4, 2);
        c.install(10, c.frame(10), LineState::Exclusive);
        assert_eq!(c.probe(10, c.frame(10), true), Probe::Hit(LineState::Modified));
        assert_eq!(c.state(10), Some(LineState::Modified));
    }

    #[test]
    fn lru_eviction_reports_dirty_victim() {
        let mut c = Cache::new(1, 2); // one set, two ways
        c.install(0, c.frame(0), LineState::Modified);
        c.install(1, c.frame(1), LineState::Shared);
        // Touch line 0 so line 1 is LRU.
        assert_eq!(c.probe(0, c.frame(0), false), Probe::Hit(LineState::Modified));
        match c.probe(2, c.frame(2), false) {
            Probe::Miss { victim: Some(v) } => {
                assert_eq!(v.line, 1);
                assert!(!v.dirty);
            }
            other => panic!("unexpected {other:?}"),
        }
        c.install(2, c.frame(2), LineState::Shared);
        // Now 0 (dirty) is LRU versus 2.
        match c.probe(3, c.frame(3), false) {
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
        c.install(7, c.frame(7), LineState::Modified);
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
            c.install(line, c.frame(line), LineState::Shared);
        }
        for line in 0..4u64 {
            assert_eq!(c.probe(line, c.frame(line), false), Probe::Hit(LineState::Shared), "line {line}");
        }
        assert_eq!(c.resident(), 4);
        // Line 4 maps to set 0 and evicts line 0 only.
        c.install(4, c.frame(4), LineState::Shared);
        assert_eq!(c.state(0), None);
        assert_eq!(c.state(1), Some(LineState::Shared));
    }

    /// The per-way LRU stamps this cache's recency order replaced, as an
    /// independent reference: a way is `(line + 1, stamp << 2 | state)`,
    /// every operation ticks the clock, a hit re-stamps its way, and an
    /// install fills the first empty way, else evicts the oldest stamp.
    /// `geom` is an empty cache of the same shape, for `set_of`.
    struct StampLru {
        geom: Cache,
        ways: Vec<(u64, u64)>,
        clock: u64,
    }

    impl StampLru {
        /// Tick the clock; `line`'s set and the index of its way in it.
        fn set(&mut self, line: u64) -> (&mut [(u64, u64)], Option<usize>) {
            self.clock += 1;
            let base = self.geom.set_of(line) * self.geom.assoc;
            let set = &mut self.ways[base..base + self.geom.assoc];
            let i = set.iter().position(|w| w.0 == line + 1 && w.1 & 3 != 0);
            (set, i)
        }

        /// The way an install fills and the line it evicts.
        fn target(set: &[(u64, u64)]) -> (usize, Option<Victim>) {
            if let Some(i) = set.iter().position(|w| w.1 & 3 == 0) {
                return (i, None);
            }
            let i = (0..set.len()).min_by_key(|&i| set[i].1).unwrap();
            (i, Some(Victim { line: set[i].0 - 1, dirty: set[i].1 & 3 == 3 }))
        }

        fn probe(&mut self, line: u64, write: bool) -> Probe {
            let (clock, (set, i)) = (self.clock + 1, self.set(line));
            let Some(i) = i else { return Probe::Miss { victim: Self::target(set).1 } };
            let st = if write && set[i].1 & 3 != ST_SHARED { ST_MODIFIED } else { set[i].1 & 3 };
            set[i].1 = clock << 2 | st;
            if write && st == ST_SHARED { Probe::UpgradeNeeded } else { Probe::Hit(state_of(st)) }
        }

        fn install(&mut self, line: u64, state: LineState) -> Option<Victim> {
            let (clock, (set, _)) = (self.clock + 1, self.set(line));
            let (i, victim) = Self::target(set);
            set[i] = (line + 1, clock << 2 | state as u64);
            victim
        }

        /// Set `line`'s state bits to `st` (0 empties its way); returns
        /// whether it was dirty.
        fn restate(&mut self, line: u64, st: u64) -> bool {
            let (set, i) = self.set(line);
            i.is_some_and(|i| {
                let dirty = set[i].1 & 3 == ST_MODIFIED;
                set[i] = if st == 0 { (0, 0) } else { (set[i].0, set[i].1 & !3 | st) };
                dirty
            })
        }

        fn state(&mut self, line: u64) -> Option<LineState> {
            let (set, i) = self.set(line);
            i.map(|i| state_of(set[i].1))
        }
    }

    /// The recency-ordered cache against the stamp model, op for op, on
    /// randomized probe / install / upgrade / downgrade / invalidate
    /// streams at associativity 1, 2, 4 and 8, modulo and physically
    /// indexed: same probe results (victims and their dirtiness included),
    /// same state of every line touched, same residency. A way is one
    /// 8-byte word.
    #[test]
    fn recency_order_matches_the_stamp_model() {
        use ccsort_rng::SplitMix64;
        for (assoc, physical) in [1, 2, 4, 8].into_iter().flat_map(|a| [(a, false), (a, true)]) {
            let sets = 16;
            let mut c =
                if physical { Cache::physically_indexed(sets, assoc, 4) } else { Cache::new(sets, assoc) };
            assert_eq!(std::mem::size_of_val(c.ways.as_slice()), 8 * sets * assoc);
            let mut m = StampLru { geom: c.clone(), ways: vec![(0, 0); sets * assoc], clock: 0 };
            let mut rng = SplitMix64::seed_from_u64(assoc as u64 * 2 + u64::from(physical));
            for step in 0..20_000 {
                let line = rng.random_range(0..3 * (sets * assoc) as u64); // > capacity
                let ctx = format!("assoc {assoc} physical {physical} step {step} line {line}");
                let mut touched = vec![line];
                match rng.random_range(0..8u32) {
                    6 => assert_eq!(c.downgrade(line), m.restate(line, ST_SHARED), "{ctx}: downgrade"),
                    7 => assert_eq!(c.invalidate(line), m.restate(line, 0), "{ctx}: invalidate"),
                    _ => {
                        let write = rng.random::<bool>();
                        let probe = c.probe(line, c.frame(line), write);
                        assert_eq!(probe, m.probe(line, write), "{ctx}: probe");
                        if let Probe::Miss { victim } = probe {
                            let read = [LineState::Exclusive, LineState::Shared][rng.random_range(0..2usize)];
                            let state = if write { LineState::Modified } else { read };
                            let v = c.install(line, c.frame(line), state);
                            assert_eq!((v, v), (victim, m.install(line, state)), "{ctx}: install");
                            touched.extend(v.map(|v| v.line));
                        } else if probe == Probe::UpgradeNeeded {
                            c.upgrade(line);
                            m.restate(line, ST_MODIFIED);
                        }
                    }
                }
                for &l in &touched {
                    assert_eq!(c.state(l), m.state(l), "{ctx}: state of line {l}");
                }
                let resident = m.ways.iter().filter(|w| w.1 & 3 != 0).count();
                assert_eq!(c.resident(), resident, "{ctx}: resident");
            }
        }
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
                let line = cursor * 8 * lines_per_page;
                c.install(line, c.frame(line), LineState::Modified);
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
            c.install(line, c.frame(line), LineState::Shared);
        }
        assert!(c.resident() >= 850, "stream lost {} lines to conflicts", 1024 - c.resident());
    }

    #[test]
    fn hashing_is_consistent_probe_vs_install() {
        let mut c = Cache::physically_indexed(64, 2, 16);
        for line in [0u64, 12345, 999_999, 1 << 40] {
            assert!(matches!(c.probe(line, c.frame(line), false), Probe::Miss { .. }));
            c.install(line, c.frame(line), LineState::Exclusive);
            assert_eq!(c.probe(line, c.frame(line), false), Probe::Hit(LineState::Exclusive), "line {line}");
        }
    }
}
