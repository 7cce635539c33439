//! Simulated physical address space: array allocation, page placement and
//! real backing stores.
//!
//! Arrays live in one linear simulated address space so cache lines and
//! pages have global identities. Every array carries a real `Vec<u32>`
//! backing store — the sorting algorithms running on the simulator really
//! sort, and tests verify the output, so the simulator cannot "cheat" by
//! only accounting time.
//!
//! Placement policies mirror what the paper's programs do: partitioned
//! arrays give each process's partition a home on that process's node
//! (first-touch behaviour of the SPLASH-2/SHMEM programs), interleaved
//! arrays spread pages round-robin, and node-local arrays model private or
//! master-allocated data.

use crate::config::MachineConfig;
use crate::topology::Topology;

/// Identifier of a simulated array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayId(pub(crate) usize);

/// Where the pages of an array are homed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// All pages on one node.
    Node(usize),
    /// Array split into `parts` equal contiguous partitions; partition `i`
    /// is homed on the node of processor `i` (symmetric / first-touch
    /// layout). `parts` is the number of processes.
    Partitioned { parts: usize },
    /// Pages distributed round-robin across all nodes.
    Interleaved,
}

#[derive(Debug, Clone)]
pub(crate) struct SimArray {
    pub base: u64,
    pub data: Vec<u32>,
    pub name: &'static str,
}

/// The linear simulated address space holding all arrays.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    arrays: Vec<SimArray>,
    /// Home node per page, indexed by page number (at most 64 nodes).
    page_homes: Vec<u8>,
    next: u64,
    page_size: u64,
    line_shift: u32,
    page_shift: u32,
}

impl AddressSpace {
    pub fn new(cfg: &MachineConfig) -> Self {
        AddressSpace {
            arrays: Vec::new(),
            page_homes: Vec::new(),
            next: 0,
            page_size: cfg.page_size as u64,
            line_shift: cfg.line_shift(),
            page_shift: cfg.page_shift(),
        }
    }

    /// Allocate `len` `u32` elements with the given placement. Allocation is
    /// page-aligned so arrays never share a page (and therefore never share
    /// a cache line — the paper reports false sharing is negligible for
    /// these programs, and page alignment of partitions keeps it that way).
    pub fn alloc(
        &mut self,
        len: usize,
        placement: Placement,
        name: &'static str,
        topo: &Topology,
    ) -> ArrayId {
        let base = self.next;
        let bytes = (len.max(1) * 4) as u64;
        let pages = bytes.div_ceil(self.page_size);
        self.next += pages * self.page_size;

        let first_page = base >> self.page_shift;
        let n_nodes = topo.n_nodes();
        for p in 0..pages {
            let home = match placement {
                Placement::Node(n) => {
                    assert!(n < n_nodes, "placement node {n} out of range");
                    n
                }
                Placement::Interleaved => ((first_page + p) as usize) % n_nodes,
                Placement::Partitioned { parts } => {
                    // Which partition does the *start* of this page fall in?
                    let elems_per_part = len.div_ceil(parts);
                    let byte_off = p * self.page_size;
                    let elem = (byte_off / 4) as usize;
                    let part = (elem / elems_per_part.max(1)).min(parts - 1);
                    topo.node_of(part)
                }
            };
            debug_assert_eq!(self.page_homes.len() as u64, first_page + p);
            self.page_homes.push(home as u8);
        }

        let id = ArrayId(self.arrays.len());
        self.arrays.push(SimArray { base, data: vec![0; len], name });
        id
    }

    /// Simulated byte address of element `idx` of `arr`.
    #[inline]
    pub fn addr_of(&self, arr: ArrayId, idx: usize) -> u64 {
        debug_assert!(idx < self.arrays[arr.0].data.len(), "index {idx} out of bounds for {}", self.arrays[arr.0].name);
        self.arrays[arr.0].base + (idx as u64) * 4
    }

    /// Home node of the page containing a line (lines never span pages).
    #[inline]
    pub fn home_of_line(&self, line: u64) -> usize {
        self.page_homes[((line << self.line_shift) >> self.page_shift) as usize] as usize
    }

    /// Total number of allocated lines (sizes the directory).
    pub fn total_lines(&self) -> u64 {
        self.next >> self.line_shift
    }

    /// Element count of an array.
    #[inline]
    pub fn len(&self, arr: ArrayId) -> usize {
        self.arrays[arr.0].data.len()
    }

    /// Program-visible name of an array (as passed to [`AddressSpace::alloc`]).
    #[inline]
    pub fn name(&self, arr: ArrayId) -> &'static str {
        self.arrays[arr.0].name
    }

    #[inline]
    pub fn get(&self, arr: ArrayId, idx: usize) -> u32 {
        self.arrays[arr.0].data[idx]
    }

    #[inline]
    pub fn set(&mut self, arr: ArrayId, idx: usize, v: u32) {
        self.arrays[arr.0].data[idx] = v;
    }

    /// Borrow a slice of an array's backing store.
    #[inline]
    pub fn slice(&self, arr: ArrayId, range: std::ops::Range<usize>) -> &[u32] {
        &self.arrays[arr.0].data[range]
    }

    /// Mutably borrow a slice of an array's backing store.
    #[inline]
    pub fn slice_mut(&mut self, arr: ArrayId, range: std::ops::Range<usize>) -> &mut [u32] {
        &mut self.arrays[arr.0].data[range]
    }

    /// Copy between two arrays (or within one) without any time accounting;
    /// used by DMA primitives which charge time separately.
    pub fn copy(
        &mut self,
        src: ArrayId,
        src_off: usize,
        dst: ArrayId,
        dst_off: usize,
        len: usize,
    ) {
        if src.0 == dst.0 {
            let a = &mut self.arrays[src.0].data;
            a.copy_within(src_off..src_off + len, dst_off);
        } else {
            // Split borrows: indices differ.
            let (lo, hi, flip) = if src.0 < dst.0 { (src.0, dst.0, false) } else { (dst.0, src.0, true) };
            let (left, right) = self.arrays.split_at_mut(hi);
            let (a, b) = (&mut left[lo].data, &mut right[0].data);
            if flip {
                a[dst_off..dst_off + len].copy_from_slice(&b[src_off..src_off + len]);
            } else {
                b[dst_off..dst_off + len].copy_from_slice(&a[src_off..src_off + len]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn space() -> (AddressSpace, Topology) {
        let cfg = MachineConfig::origin2000(64);
        (AddressSpace::new(&cfg), Topology::new(&cfg))
    }

    /// Home node of the page containing byte address `addr`.
    fn home_of(s: &AddressSpace, addr: u64) -> usize {
        s.home_of_line(addr >> s.line_shift)
    }

    #[test]
    fn allocations_are_page_aligned_and_disjoint() {
        let (mut s, t) = space();
        let a = s.alloc(100, Placement::Node(0), "a", &t);
        let b = s.alloc(100, Placement::Node(1), "b", &t);
        assert_eq!(s.addr_of(a, 0) % 65536, 0);
        assert_eq!(s.addr_of(b, 0) % 65536, 0);
        assert!(s.addr_of(b, 0) >= s.addr_of(a, 99) + 4);
        assert_eq!(home_of(&s, s.addr_of(a, 0)), 0);
        assert_eq!(home_of(&s, s.addr_of(b, 0)), 1);
    }

    #[test]
    fn partitioned_homes_follow_processes() {
        let (mut s, t) = space();
        // 64 partitions of 16K elements = 64 KB each = one page each.
        let n = 64 * 16384;
        let a = s.alloc(n, Placement::Partitioned { parts: 64 }, "keys", &t);
        for pe in 0..64usize {
            let first = pe * 16384;
            let addr = s.addr_of(a, first);
            assert_eq!(home_of(&s, addr), pe / 2, "partition {pe}");
        }
    }

    #[test]
    fn interleaved_spreads_pages() {
        let (mut s, t) = space();
        let elems_per_page = 65536 / 4;
        let a = s.alloc(elems_per_page * 8, Placement::Interleaved, "x", &t);
        let mut homes = std::collections::BTreeSet::new();
        for p in 0..8 {
            homes.insert(home_of(&s, s.addr_of(a, p * elems_per_page)));
        }
        assert_eq!(homes.len(), 8);
    }

    #[test]
    fn data_roundtrip_and_copy() {
        let (mut s, t) = space();
        let a = s.alloc(16, Placement::Node(0), "a", &t);
        let b = s.alloc(16, Placement::Node(0), "b", &t);
        for i in 0..16 {
            s.set(a, i, (i * i) as u32);
        }
        s.copy(a, 4, b, 0, 8);
        assert_eq!(s.get(b, 0), 16);
        assert_eq!(s.get(b, 7), 121);
        // Overlapping copy within one array.
        s.copy(a, 0, a, 8, 8);
        assert_eq!(s.get(a, 8), 0);
        assert_eq!(s.get(a, 15), 49);
        // Reversed direction across arrays.
        s.copy(b, 0, a, 0, 4);
        assert_eq!(s.get(a, 0), 16);
    }

    #[test]
    fn lines_and_pages() {
        let (mut s, t) = space();
        let a = s.alloc(1024, Placement::Node(3), "a", &t);
        let addr = s.addr_of(a, 32); // 128 bytes in -> line 1 of the array
        assert_eq!(addr >> s.line_shift, (s.addr_of(a, 0) >> s.line_shift) + 1);
        assert_eq!(s.home_of_line(addr >> s.line_shift), 3);
        assert!(s.total_lines() >= 512);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::config::MachineConfig;
    use ccsort_rng::{check_cases, SplitMix64};

    /// Every element of every allocation has a well-defined home node, and
    /// its line's home is its page's home (lines never span pages).
    #[test]
    fn allocation_geometry_is_consistent() {
        let case = |rng: &mut SplitMix64| {
            let lens: Vec<usize> = (0..rng.random_range(1..6)).map(|_| rng.random_range(1..5000)).collect();
            (lens, rng.random_range(1usize..16))
        };
        check_cases(256, case, |(lens, parts)| {
            let cfg = MachineConfig::origin2000(16);
            let topo = Topology::new(&cfg);
            let mut s = AddressSpace::new(&cfg);
            let ids: Vec<ArrayId> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    let placement = match i % 3 {
                        0 => Placement::Node(i % topo.n_nodes()),
                        1 => Placement::Interleaved,
                        _ => Placement::Partitioned { parts: *parts },
                    };
                    s.alloc(len, placement, "arr", &topo)
                })
                .collect();
            for (id, &len) in ids.iter().zip(lens) {
                for idx in [0, len / 2, len - 1] {
                    let addr = s.addr_of(*id, idx);
                    let line = addr >> cfg.line_shift();
                    let home = s.home_of_line(line);
                    assert_eq!(home, s.page_homes[(addr >> cfg.page_shift()) as usize] as usize);
                    assert!(home < topo.n_nodes());
                    assert!(line < s.total_lines());
                }
            }
            // Arrays never overlap: last address of one < first of the next.
            for w in ids.windows(2) {
                let (a, b) = (w[0], w[1]);
                assert!(s.addr_of(a, s.len(a) - 1) < s.addr_of(b, 0));
            }
        });
    }
}
