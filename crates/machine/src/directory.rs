//! Full-map directory for the invalidation-based coherence protocol.
//!
//! One entry per cache line in the simulated address space, each holding a
//! bit-vector with one presence bit per processor — the Origin 2000's own
//! directory format. Up to 64 processors it fits in a single `u64` word;
//! larger machines use as many 64-bit words as needed.
//!
//! The invariant the rest of the machine (and [`crate::Machine::audit`])
//! relies on is **conservative superset**: the set of processors the
//! directory would target with invalidations always includes every
//! processor actually caching the line. Silent evictions may leave it
//! over-targeting — charged through the controller-occupancy path — but it
//! never under-targets.

/// Directory state of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the line.
    Unowned,
    /// One or more caches hold the line in Shared state.
    Shared,
    /// Exactly one cache holds the line in Exclusive/Modified state.
    Exclusive(u16),
}

const UNOWNED: u8 = 0;
const SHARED: u8 = 1;
const EXCLUSIVE: u8 = 2;

/// The directory: line index -> coherence metadata.
#[derive(Debug, Clone)]
pub struct Directory {
    n_procs: usize,
    /// Presence bits, `words_per_line` words per entry, flattened into one
    /// contiguous array (no per-entry allocation).
    words_per_line: usize,
    bits: Vec<u64>,
    state: Vec<u8>,
    owner: Vec<u16>,
    /// Count of lines not in Unowned state, maintained incrementally by the
    /// state transitions so [`Directory::owned_lines`] does not have to scan
    /// every entry (it is called from diagnostics/audit paths that would
    /// otherwise pay O(total lines) per call).
    owned: usize,
}

impl Directory {
    pub fn new(n_procs: usize, total_lines: u64) -> Self {
        let n = total_lines as usize;
        let words_per_line = n_procs.div_ceil(64).max(1);
        Directory {
            n_procs,
            words_per_line,
            bits: vec![0; n * words_per_line],
            state: vec![UNOWNED; n],
            owner: vec![0; n],
            owned: 0,
        }
    }

    /// Grow to cover at least `total_lines` lines (after new allocations).
    pub fn ensure(&mut self, total_lines: u64) {
        let n = total_lines as usize;
        if n <= self.state.len() {
            return;
        }
        self.state.resize(n, UNOWNED);
        self.owner.resize(n, 0);
        self.bits.resize(n * self.words_per_line, 0);
    }

    #[inline]
    pub fn state(&self, line: u64) -> DirState {
        let l = line as usize;
        match self.state[l] {
            UNOWNED => DirState::Unowned,
            SHARED => DirState::Shared,
            _ => DirState::Exclusive(self.owner[l]),
        }
    }

    /// The presence words of `line`.
    #[inline]
    fn words(&self, l: usize) -> &[u64] {
        &self.bits[l * self.words_per_line..(l + 1) * self.words_per_line]
    }

    #[inline]
    fn words_mut(&mut self, l: usize) -> &mut [u64] {
        &mut self.bits[l * self.words_per_line..(l + 1) * self.words_per_line]
    }

    /// Membership: `true` when the directory would target `pe` with an
    /// invalidation of `line` — i.e. `pe` *may* hold a copy. This is the
    /// membership test audits must use: a cached copy outside this set is
    /// a protocol bug.
    #[inline]
    pub fn is_sharer(&self, line: u64, pe: usize) -> bool {
        self.bits[line as usize * self.words_per_line + pe / 64] & (1u64 << (pe % 64)) != 0
    }

    /// Low 64 bits of the sharer word (diagnostics and unit tests;
    /// truncated to the first 64 PEs).
    pub fn sharers(&self, line: u64) -> u64 {
        self.words(line as usize)[0]
    }

    /// Record that `pe` obtained a Shared copy.
    #[inline]
    pub fn add_sharer(&mut self, line: u64, pe: usize) {
        let l = line as usize;
        if self.state[l] == UNOWNED {
            self.owned += 1;
        }
        self.state[l] = SHARED;
        self.bits[l * self.words_per_line + pe / 64] |= 1u64 << (pe % 64);
    }

    /// Record that `pe` obtained exclusive ownership: the sharer set becomes
    /// exactly `{pe}` (the preceding invalidations emptied all other caches).
    #[inline]
    pub fn set_exclusive(&mut self, line: u64, pe: usize) {
        let l = line as usize;
        if self.state[l] == UNOWNED {
            self.owned += 1;
        }
        self.state[l] = EXCLUSIVE;
        self.owner[l] = pe as u16;
        let words = self.words_mut(l);
        words.fill(0);
        words[pe / 64] = 1u64 << (pe % 64);
    }

    /// Record that the line left all caches (writeback of the only copy, or
    /// invalidation broadcast finished with no new owner).
    #[inline]
    pub fn set_unowned(&mut self, line: u64) {
        let l = line as usize;
        if self.state[l] != UNOWNED {
            self.owned -= 1;
        }
        self.state[l] = UNOWNED;
        self.words_mut(l).fill(0);
    }

    /// Remove `pe` from the sharer set (eviction notification / writeback).
    /// Downgrades to Unowned when the last sharer left.
    #[inline]
    pub fn remove_sharer(&mut self, line: u64, pe: usize) {
        let l = line as usize;
        let words = self.words_mut(l);
        words[pe / 64] &= !(1u64 << (pe % 64));
        if words.iter().all(|&w| w == 0) {
            if self.state[l] != UNOWNED {
                self.owned -= 1;
            }
            self.state[l] = UNOWNED;
        } else if self.state[l] == EXCLUSIVE {
            self.state[l] = SHARED;
        }
    }

    /// Shrink the sharer set to (at most) `{pe}` after every other
    /// potential holder was invalidated, keeping the state byte otherwise
    /// unchanged (used by un-timed staging copies). Bit-exact with removing
    /// each other sharer in turn.
    pub fn retain_only(&mut self, line: u64, pe: usize) {
        let l = line as usize;
        let words = self.words_mut(l);
        let keep = words[pe / 64] & (1u64 << (pe % 64));
        words.fill(0);
        words[pe / 64] = keep;
        if keep == 0 {
            if self.state[l] != UNOWNED {
                self.owned -= 1;
            }
            self.state[l] = UNOWNED;
        } else if self.state[l] == EXCLUSIVE && self.owner[l] != pe as u16 {
            self.state[l] = SHARED;
        }
    }

    /// Visit every invalidation target of `line` except `exclude`, in
    /// ascending processor order (the bit-scan order, so runs are
    /// deterministic). Returns the number of targets visited.
    #[inline]
    pub fn for_each_target(
        &self,
        line: u64,
        exclude: Option<usize>,
        mut f: impl FnMut(usize),
    ) -> u64 {
        let mut n = 0u64;
        for (wi, &word) in self.words(line as usize).iter().enumerate() {
            let mut w = word;
            if let Some(x) = exclude {
                if x / 64 == wi {
                    w &= !(1u64 << (x % 64));
                }
            }
            while w != 0 {
                let pe = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                f(pe);
                n += 1;
            }
        }
        n
    }

    /// Number of invalidations a write by `pe` to `line` would charge
    /// (targets excluding `pe`), without visiting them.
    pub fn target_count(&self, line: u64, exclude: Option<usize>) -> u64 {
        self.for_each_target(line, exclude, |_| {})
    }

    /// Entry invariants, for [`crate::Machine::audit`]: no sharer bit may
    /// refer to a processor at or beyond the processor count, and an
    /// Exclusive entry's owner must be in its own set. Returns a violation
    /// description, or `None`.
    pub fn audit_entry(&self, line: u64) -> Option<String> {
        let l = line as usize;
        let units = self.n_procs;
        for (wi, &w) in self.words(l).iter().enumerate() {
            let hi = units.saturating_sub(wi * 64).min(64);
            let ghost = if hi == 64 { 0 } else { w >> hi };
            if ghost != 0 {
                return Some(format!(
                    "line {line}: directory sharer bits beyond processor count ({ghost:#x} << {units})"
                ));
            }
        }
        if self.state[l] == EXCLUSIVE {
            let owner = self.owner[l] as usize;
            if owner >= self.n_procs {
                return Some(format!(
                    "line {line}: exclusive owner {owner} beyond processor count"
                ));
            }
            if !self.is_sharer(line, owner) {
                return Some(format!(
                    "line {line}: exclusive owner {owner} missing from its own sharer set"
                ));
            }
        }
        None
    }

    /// Number of lines not in Unowned state (diagnostics/tests). O(1): the
    /// count is maintained by the transitions above; debug builds check it
    /// against the full scan.
    pub fn owned_lines(&self) -> usize {
        debug_assert_eq!(
            self.owned,
            self.state.iter().filter(|&&s| s != UNOWNED).count(),
            "owned-line counter drifted from the entry states"
        );
        self.owned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(d: &Directory, line: u64, exclude: Option<usize>) -> Vec<usize> {
        let mut v = Vec::new();
        d.for_each_target(line, exclude, |pe| v.push(pe));
        v
    }

    #[test]
    fn lifecycle() {
        let mut d = Directory::new(16, 8);
        assert_eq!(d.state(3), DirState::Unowned);
        d.add_sharer(3, 5);
        assert_eq!(d.state(3), DirState::Shared);
        d.add_sharer(3, 9);
        assert_eq!(d.sharers(3), (1 << 5) | (1 << 9));
        assert_eq!(targets(&d, 3, Some(5)), vec![9]);
        d.set_exclusive(3, 9);
        assert_eq!(d.state(3), DirState::Exclusive(9));
        assert_eq!(d.sharers(3), 1 << 9);
        d.remove_sharer(3, 9);
        assert_eq!(d.state(3), DirState::Unowned);
    }

    #[test]
    fn exclusive_owner_eviction_with_stale_sharer() {
        let mut d = Directory::new(4, 4);
        d.add_sharer(0, 1);
        d.add_sharer(0, 2);
        d.remove_sharer(0, 1);
        assert_eq!(d.state(0), DirState::Shared);
        d.remove_sharer(0, 2);
        assert_eq!(d.state(0), DirState::Unowned);
    }

    #[test]
    fn owned_lines_counter_tracks_transitions() {
        let mut d = Directory::new(8, 8);
        assert_eq!(d.owned_lines(), 0);
        d.add_sharer(0, 1);
        d.add_sharer(0, 2); // already owned: no double count
        d.set_exclusive(1, 3);
        d.set_exclusive(1, 4); // exclusive -> exclusive: no double count
        assert_eq!(d.owned_lines(), 2);
        d.remove_sharer(0, 1);
        assert_eq!(d.owned_lines(), 2, "line 0 still has a sharer");
        d.remove_sharer(0, 2);
        assert_eq!(d.owned_lines(), 1, "last sharer left");
        d.remove_sharer(0, 2); // removing from an unowned line: no underflow
        assert_eq!(d.owned_lines(), 1);
        d.set_unowned(1);
        assert_eq!(d.owned_lines(), 0);
        d.set_unowned(1); // repeat: no underflow
        assert_eq!(d.owned_lines(), 0);
    }

    #[test]
    fn ensure_grows() {
        let mut d = Directory::new(64, 2);
        d.ensure(10);
        assert_eq!(d.state(9), DirState::Unowned);
        d.set_exclusive(9, 63);
        assert_eq!(d.state(9), DirState::Exclusive(63));
        // ensure() never shrinks.
        d.ensure(4);
        assert_eq!(d.state(9), DirState::Exclusive(63));
    }

    #[test]
    fn full_map_past_64_procs_uses_more_words() {
        let mut d = Directory::new(256, 4);
        d.add_sharer(0, 3);
        d.add_sharer(0, 64);
        d.add_sharer(0, 200);
        d.add_sharer(0, 255);
        assert!(d.is_sharer(0, 200));
        assert!(!d.is_sharer(0, 201));
        assert_eq!(targets(&d, 0, Some(64)), vec![3, 200, 255]);
        assert_eq!(d.target_count(0, None), 4);
        d.remove_sharer(0, 3);
        d.remove_sharer(0, 64);
        d.remove_sharer(0, 200);
        assert_eq!(d.state(0), DirState::Shared);
        d.remove_sharer(0, 255);
        assert_eq!(d.state(0), DirState::Unowned);
        assert!(d.audit_entry(0).is_none());
    }

    #[test]
    fn retain_only_matches_per_sharer_removal() {
        let mut d = Directory::new(8, 2);
        d.add_sharer(0, 1);
        d.add_sharer(0, 5);
        d.add_sharer(0, 6);
        d.retain_only(0, 5);
        assert_eq!(d.sharers(0), 1 << 5);
        assert_eq!(d.state(0), DirState::Shared);
        d.retain_only(0, 2); // 2 never held it -> empty
        assert_eq!(d.state(0), DirState::Unowned);
        // Exclusive-by-pe is untouched; exclusive-by-other collapses.
        d.set_exclusive(1, 3);
        d.retain_only(1, 3);
        assert_eq!(d.state(1), DirState::Exclusive(3));
        d.retain_only(1, 4);
        assert_eq!(d.state(1), DirState::Unowned);
    }

    #[test]
    fn audit_entry_flags_ghost_bits() {
        // 10 PEs in one word: bits 10..64 must be zero. Forge one via
        // add_sharer with an out-of-range pe (the machine never does this).
        let mut d = Directory::new(10, 1);
        d.add_sharer(0, 12);
        assert!(d.audit_entry(0).is_some());
    }
}
