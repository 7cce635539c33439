//! Per-processor TLB model.
//!
//! The R10000 has a 64-entry software-refilled TLB. The paper attributes the
//! 256M-key behaviour of the `remote` and `local` distributions to TLB
//! misses during the local permutation (Section 4.2.2), so the TLB has to be
//! part of the model. We use a fully-associative table with a clock (second
//! chance) replacement policy — deterministic and a good stand-in for the
//! hardware's random replacement without introducing randomness.
//!
//! Lookup is a dense page → slot index: simulated addresses are allocated
//! densely from 0, so a `Vec` indexed by page number stays small and a hit
//! is one bounds-checked load and a bit test that writes only `last`.
//! Reference bits are packed 64 to a word, and a miss finds the clock's
//! victim a word at a time.

/// A fully-associative TLB with clock replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Page numbers currently mapped, by slot; `u64::MAX` = empty.
    pages: Vec<u64>,
    /// Reference bits for the clock policy, slot `i` at bit `i % 64` of
    /// word `i / 64`. An empty slot's bit is always clear.
    referenced: Vec<u64>,
    hand: usize,
    /// Fast path: the most recently touched page.
    last: u64,
    /// Inverse of `pages`: page number -> slot, `u16::MAX` = unmapped.
    /// Grows on the first miss of a page past its end.
    slot_of: Vec<u16>,
}

impl Tlb {
    /// A TLB of `entries` slots, `1..u16::MAX` (checked by
    /// `MachineConfig::validate`).
    pub fn new(entries: usize) -> Self {
        assert!((1..u16::MAX as usize).contains(&entries));
        Tlb {
            pages: vec![u64::MAX; entries],
            referenced: vec![0; entries.div_ceil(64)],
            hand: 0,
            last: u64::MAX,
            slot_of: Vec::new(),
        }
    }

    /// Touch `page`; returns `true` on a hit, `false` on a miss (after which
    /// the page is mapped, evicting via clock if needed).
    #[inline]
    pub fn access(&mut self, page: u64) -> bool {
        if page == self.last {
            return true;
        }
        self.last = page;
        match self.slot_of.get(page as usize) {
            Some(&i) if i != u16::MAX => {
                let (w, bit) = (i as usize / 64, 1u64 << (i % 64));
                if self.referenced[w] & bit == 0 {
                    self.referenced[w] |= bit;
                }
                true
            }
            _ => {
                self.install(page as usize);
                false
            }
        }
    }

    /// Miss path: map `page` into the clock's victim slot.
    #[inline(never)]
    fn install(&mut self, page: usize) {
        let i = self.victim();
        let old = self.pages[i];
        if old != u64::MAX {
            self.slot_of[old as usize] = u16::MAX;
        }
        if page >= self.slot_of.len() {
            self.slot_of.resize(page + 1, u16::MAX);
        }
        self.slot_of[page] = i as u16;
        self.pages[i] = page as u64;
        self.referenced[i / 64] |= 1 << (i % 64);
        self.hand = (i + 1) % self.pages.len();
    }

    /// The clock sweep: the first slot from `hand` (cyclically) whose
    /// referenced bit is clear, clearing the bits of the slots it passes.
    /// Whole words at a time, but the same victim and the same cleared bits
    /// as stepping one slot at a time; after one full turn every bit is
    /// clear, so the search ends by the second visit of `hand`'s word.
    fn victim(&mut self) -> usize {
        let n = self.pages.len();
        let mut i = self.hand;
        loop {
            let (w, b) = (i / 64, i % 64);
            let in_range = match n - w * 64 {
                rest if rest >= 64 => !0,
                rest => (1u64 << rest) - 1,
            };
            let from_b = !0u64 << b;
            let free = !self.referenced[w] & from_b & in_range;
            if free != 0 {
                let v = free.trailing_zeros() as usize;
                self.referenced[w] &= !(from_b & ((1u64 << v) - 1));
                return w * 64 + v;
            }
            self.referenced[w] &= !from_b;
            i = if (w + 1) * 64 >= n { 0 } else { (w + 1) * 64 };
        }
    }

    /// Drop all mappings (e.g. between experiments).
    pub fn flush(&mut self) {
        for page in &mut self.pages {
            if *page != u64::MAX {
                self.slot_of[*page as usize] = u16::MAX;
                *page = u64::MAX;
            }
        }
        self.referenced.fill(0);
        self.hand = 0;
        self.last = u64::MAX;
    }

    /// Number of mapped entries (diagnostics/tests).
    pub fn mapped(&self) -> usize {
        self.pages.iter().filter(|p| **p != u64::MAX).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_after_fill() {
        let mut t = Tlb::new(4);
        for p in 0..4u64 {
            assert!(!t.access(p), "first touch of page {p} must miss");
        }
        for p in 0..4u64 {
            assert!(t.access(p), "page {p} should be resident");
        }
        assert_eq!(t.mapped(), 4);
    }

    #[test]
    fn working_set_larger_than_tlb_thrashes() {
        let mut t = Tlb::new(4);
        let mut misses = 0;
        // Cyclic sweep over 8 pages with 4 entries: clock degenerates to
        // FIFO and every access misses after warmup.
        for round in 0..4 {
            for p in 0..8u64 {
                if !t.access(p) {
                    misses += 1;
                }
                let _ = round;
            }
        }
        assert!(misses >= 8 + 3 * 8 - 4, "expected heavy thrashing, got {misses} misses");
    }

    #[test]
    fn last_page_fast_path() {
        let mut t = Tlb::new(2);
        assert!(!t.access(9));
        for _ in 0..100 {
            assert!(t.access(9));
        }
    }

    /// The original linear-scan implementation, kept as a reference model:
    /// the dense index and the packed bits are invisible accelerators, so
    /// every access stream must produce the identical hit/miss sequence and
    /// table contents.
    struct RefTlb {
        pages: Vec<u64>,
        referenced: Vec<bool>,
        hand: usize,
        last: u64,
    }

    impl RefTlb {
        fn new(entries: usize) -> Self {
            RefTlb {
                pages: vec![u64::MAX; entries],
                referenced: vec![false; entries],
                hand: 0,
                last: u64::MAX,
            }
        }

        fn access(&mut self, page: u64) -> bool {
            if page == self.last {
                return true;
            }
            self.last = page;
            for (i, p) in self.pages.iter().enumerate() {
                if *p == page {
                    self.referenced[i] = true;
                    return true;
                }
            }
            loop {
                let i = self.hand;
                self.hand = (self.hand + 1) % self.pages.len();
                if self.pages[i] == u64::MAX || !self.referenced[i] {
                    self.pages[i] = page;
                    self.referenced[i] = true;
                    return false;
                }
                self.referenced[i] = false;
            }
        }

        fn flush(&mut self) {
            self.pages.fill(u64::MAX);
            self.referenced.fill(false);
            self.hand = 0;
            self.last = u64::MAX;
        }
    }

    /// Drive `t` and `r` with `stream`, comparing the whole observable state
    /// after every access (`None` = flush both).
    fn assert_matches_reference(entries: usize, stream: impl IntoIterator<Item = Option<u64>>) {
        let mut t = Tlb::new(entries);
        let mut r = RefTlb::new(entries);
        for (step, access) in stream.into_iter().enumerate() {
            let ctx = || format!("entries {entries}, step {step}, access {access:?}");
            match access {
                Some(page) => assert_eq!(t.access(page), r.access(page), "hit/miss: {}", ctx()),
                None => {
                    t.flush();
                    r.flush();
                }
            }
            assert_eq!(t.pages, r.pages, "pages: {}", ctx());
            assert_eq!(t.hand, r.hand, "hand: {}", ctx());
            for (i, &bit) in r.referenced.iter().enumerate() {
                let set = t.referenced[i / 64] >> (i % 64) & 1 == 1;
                assert_eq!(set, bit, "referenced[{i}]: {}", ctx());
            }
            for (i, &page) in t.pages.iter().enumerate() {
                if page != u64::MAX {
                    assert_eq!(t.slot_of[page as usize] as usize, i, "slot_of[{page}]: {}", ctx());
                }
            }
            let indexed = t.slot_of.iter().filter(|&&s| s != u16::MAX).count();
            assert_eq!(indexed, t.mapped(), "index size: {}", ctx());
        }
    }

    #[test]
    fn indexed_lookup_matches_linear_scan_reference() {
        // Entry counts on both sides of the packed bits' word boundaries.
        for entries in [1usize, 2, 63, 64, 65, 130] {
            // Working sets below, at and 4x above the entry count.
            for set in [entries.div_ceil(2), entries, 4 * entries] {
                let mut x = 0x9E37_79B9u64 ^ (entries * 1000 + set) as u64;
                let mut stream = Vec::new();
                for step in 0..4000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let page = (x >> 33) % set as u64;
                    // Runs of one repeated page, and a flush mid-stream.
                    let run = if (x >> 20).is_multiple_of(8) { 1 + (x >> 24) % 5 } else { 1 };
                    stream.extend((0..run).map(|_| Some(page)));
                    if step == 2000 {
                        stream.push(None);
                    }
                }
                assert_matches_reference(entries, stream);
            }
        }
    }

    #[test]
    fn permute_shaped_cursors_match_linear_scan_reference() {
        // The CC-SAS permute's shape: 256 destination cursors advancing
        // through their own pages, visited in key order, through 64
        // entries. Most accesses miss.
        const CURSORS: u64 = 256;
        const PAGE_WORDS: u64 = 32;
        let mut pos = vec![0u64; CURSORS as usize];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut stream = Vec::new();
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let c = (x % CURSORS) as usize;
            stream.push(Some((c as u64 * 8) + pos[c] / PAGE_WORDS));
            pos[c] += 1;
        }
        let t_misses = {
            let mut t = Tlb::new(64);
            stream.iter().flatten().filter(|&&p| !t.access(p)).count()
        };
        assert!(t_misses > stream.len() / 2, "expected a miss-heavy stream, got {t_misses}");
        assert_matches_reference(64, stream);
    }

    #[test]
    fn flush_empties() {
        let mut t = Tlb::new(4);
        t.access(1);
        t.access(2);
        t.flush();
        assert_eq!(t.mapped(), 0);
        assert!(!t.access(1));
    }
}
