//! Full-map directory for the invalidation-based coherence protocol.
//!
//! One entry per cache line in the simulated address space, each holding a
//! bit-vector with one presence bit per processor — the Origin 2000's own
//! directory format. The machine has at most [`crate::MAX_PROCS`] = 64
//! processors, so the vector is one `u64` word.
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
    Exclusive(u8),
}

const UNOWNED: u8 = 0;
const SHARED: u8 = 1;
const EXCLUSIVE: u8 = 2;

/// Lines of headroom [`Directory::ensure`] reserves each time it grows, so
/// the small arrays a program allocates after its key arrays share a
/// reallocation instead of each making its own.
const GROW_LINES: usize = 1024;

/// The directory: line index -> coherence metadata.
#[derive(Debug, Clone)]
pub struct Directory {
    n_procs: usize,
    /// Presence bits, one word per line.
    bits: Vec<u64>,
    state: Vec<u8>,
    owner: Vec<u8>,
}

impl Directory {
    pub fn new(n_procs: usize, total_lines: u64) -> Self {
        let n = total_lines as usize;
        Directory { n_procs, bits: vec![0; n], state: vec![UNOWNED; n], owner: vec![0; n] }
    }

    /// Grow to cover `total_lines` lines (after new allocations). Capacity
    /// is reserved exactly, plus `GROW_LINES`: doubling would leave up to
    /// half of the 10 bytes per line unused, and growing to each array's
    /// exact end fragments the host heap (+2.8 MiB peak RSS on a p = 64
    /// radix run).
    pub fn ensure(&mut self, total_lines: u64) {
        let n = total_lines as usize;
        if n <= self.state.len() {
            return;
        }
        if n > self.state.capacity() {
            let more = n + GROW_LINES - self.state.len();
            self.state.reserve_exact(more);
            self.owner.reserve_exact(more);
            self.bits.reserve_exact(more);
        }
        self.state.resize(n, UNOWNED);
        self.owner.resize(n, 0);
        self.bits.resize(n, 0);
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

    /// Membership: `true` when the directory would target `pe` with an
    /// invalidation of `line` — i.e. `pe` *may* hold a copy. This is the
    /// membership test audits must use: a cached copy outside this set is
    /// a protocol bug.
    #[inline]
    pub fn is_sharer(&self, line: u64, pe: usize) -> bool {
        self.bits[line as usize] & (1u64 << pe) != 0
    }

    /// Record that `pe` obtained a Shared copy.
    #[inline]
    pub fn add_sharer(&mut self, line: u64, pe: usize) {
        let l = line as usize;
        self.state[l] = SHARED;
        self.bits[l] |= 1u64 << pe;
    }

    /// Record that `pe` obtained exclusive ownership: the sharer set becomes
    /// exactly `{pe}` (the preceding invalidations emptied all other caches).
    #[inline]
    pub fn set_exclusive(&mut self, line: u64, pe: usize) {
        let l = line as usize;
        self.state[l] = EXCLUSIVE;
        self.owner[l] = pe as u8;
        self.bits[l] = 1u64 << pe;
    }

    /// Record that the line left all caches (writeback of the only copy, or
    /// invalidation broadcast finished with no new owner).
    #[inline]
    pub fn set_unowned(&mut self, line: u64) {
        let l = line as usize;
        self.state[l] = UNOWNED;
        self.bits[l] = 0;
    }

    /// Remove `pe` from the sharer set (eviction notification / writeback).
    /// Downgrades to Unowned when the last sharer left.
    #[inline]
    pub fn remove_sharer(&mut self, line: u64, pe: usize) {
        let l = line as usize;
        self.bits[l] &= !(1u64 << pe);
        if self.bits[l] == 0 {
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
        self.bits[l] &= 1u64 << pe;
        if self.bits[l] == 0 {
            self.state[l] = UNOWNED;
        } else if self.state[l] == EXCLUSIVE && self.owner[l] as usize != pe {
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
        let mut w = self.bits[line as usize];
        if let Some(x) = exclude {
            w &= !(1u64 << x);
        }
        let mut n = 0u64;
        while w != 0 {
            f(w.trailing_zeros() as usize);
            w &= w - 1;
            n += 1;
        }
        n
    }

    /// Entry invariants, for [`crate::Machine::audit`]: no sharer bit may
    /// refer to a processor at or beyond the processor count, and an
    /// Exclusive entry's owner must be in its own set. Returns a violation
    /// description, or `None`.
    pub fn audit_entry(&self, line: u64) -> Option<String> {
        let l = line as usize;
        let units = self.n_procs;
        let ghost = self.bits[l].checked_shr(units as u32).unwrap_or(0);
        if ghost != 0 {
            return Some(format!(
                "line {line}: directory sharer bits beyond processor count ({ghost:#x} << {units})"
            ));
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
        assert_eq!(targets(&d, 3, None), vec![5, 9]);
        assert_eq!(targets(&d, 3, Some(5)), vec![9]);
        d.set_exclusive(3, 9);
        assert_eq!(d.state(3), DirState::Exclusive(9));
        assert_eq!(targets(&d, 3, None), vec![9]);
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
    fn retain_only_matches_per_sharer_removal() {
        let mut d = Directory::new(8, 2);
        d.add_sharer(0, 1);
        d.add_sharer(0, 5);
        d.add_sharer(0, 6);
        d.retain_only(0, 5);
        assert_eq!(targets(&d, 0, None), vec![5]);
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
