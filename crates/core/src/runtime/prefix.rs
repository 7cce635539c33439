//! SPLASH-2-style binary prefix tree for histogram accumulation under
//! CC-SAS.
//!
//! Radix sort needs, for every processor `i` and digit value `d`, the rank
//! `prefix[i][d] = Σ_{j<i} hist[j][d]` plus the global totals
//! `total[d] = Σ_j hist[j][d]`. The CC-SAS program builds these with a
//! binary tree of partial histograms in shared memory: an up-sweep merges
//! children pairwise, a down-sweep distributes left-sibling prefixes. All
//! communication is implicit fine-grained load/store traffic — the paper
//! highlights this as the reason the CC-SAS histogram phase is much cheaper
//! than the Allgather used by the MPI and SHMEM programs (Section 4.2),
//! which is why CC-SAS radix wins for the smallest data sets.

use ccsort_machine::{ArrayId, Machine, Placement};

use super::{read_fixed, write_fixed};

/// Cycles of instruction work per element for a merge/add step.
const MERGE_CYC_PER_ELEM: f64 = 2.0;

/// A reusable binary prefix-sum tree over `p` per-processor histograms of
/// `bins` buckets each. All node storage lives in simulated shared memory,
/// homed at the owning processor's node.
pub struct PrefixTree {
    p: usize,
    bins: usize,
    /// `sums[l][i]`: partial histogram of the subtree rooted at node `i` of
    /// level `l`. Level 0 holds the leaves (the local histograms).
    sums: Vec<Vec<ArrayId>>,
    /// `prefs[l][i]`: sum over all leaves strictly left of the subtree.
    prefs: Vec<Vec<ArrayId>>,
}

impl PrefixTree {
    /// Owner processor of node `i` at level `l` (the lowest-numbered leaf
    /// in its subtree, as in SPLASH-2).
    fn owner(l: usize, i: usize) -> usize {
        i << l
    }

    pub fn new(m: &mut Machine, p: usize, bins: usize) -> Self {
        assert!(p >= 1 && bins >= 1);
        let mut sums: Vec<Vec<ArrayId>> = Vec::new();
        let mut prefs: Vec<Vec<ArrayId>> = Vec::new();
        let mut width = p;
        let mut l = 0usize;
        loop {
            let mut level_sums = Vec::with_capacity(width);
            let mut level_prefs = Vec::with_capacity(width);
            for i in 0..width {
                let node = Self::owner(l, i).min(p - 1);
                let home = m.node_of(node);
                level_sums.push(m.alloc(bins, Placement::Node(home), "prefix-sum"));
                level_prefs.push(m.alloc(bins, Placement::Node(home), "prefix-pref"));
            }
            sums.push(level_sums);
            prefs.push(level_prefs);
            if width == 1 {
                break;
            }
            width = width.div_ceil(2);
            l += 1;
        }
        PrefixTree { p, bins, sums, prefs }
    }

    /// Number of tree levels (including the leaf level).
    pub fn n_levels(&self) -> usize {
        self.sums.len()
    }

    /// Install processor `pe`'s local histogram into its leaf (a streamed
    /// write to local shared memory).
    pub fn set_local(&self, m: &mut Machine, pe: usize, hist: &[u32]) {
        assert_eq!(hist.len(), self.bins);
        m.busy_cycles_fixed(pe, hist.len() as f64);
        write_fixed(m, pe, self.sums[0][pe], 0, hist);
    }

    /// Run the up-sweep and down-sweep. Contains internal barriers: every
    /// processor must have called [`PrefixTree::set_local`] beforehand, and
    /// the caller must *not* wrap this in its own per-processor loop.
    pub fn accumulate(&self, m: &mut Machine) {
        m.barrier();
        let top = self.n_levels() - 1;

        // Up-sweep: parents gather and add their children.
        for l in 1..=top {
            let width = self.sums[l].len();
            for i in 0..width {
                let pe = Self::owner(l, i).min(self.p - 1);
                let below = self.sums[l - 1].len();
                let left = 2 * i;
                let right = 2 * i + 1;
                let mut acc = vec![0u32; self.bins];
                read_fixed(m, pe, self.sums[l - 1][left], 0, &mut acc);
                if right < below {
                    let mut rbuf = vec![0u32; self.bins];
                    read_fixed(m, pe, self.sums[l - 1][right], 0, &mut rbuf);
                    m.busy_cycles_fixed(pe, MERGE_CYC_PER_ELEM * self.bins as f64);
                    for (a, b) in acc.iter_mut().zip(&rbuf) {
                        *a = a.wrapping_add(*b);
                    }
                }
                write_fixed(m, pe, self.sums[l][i], 0, &acc);
            }
            m.barrier();
        }

        // Root prefix is zero.
        {
            let pe = 0;
            let zeros = vec![0u32; self.bins];
            write_fixed(m, pe, self.prefs[top][0], 0, &zeros);
        }
        m.barrier();

        // Down-sweep: children inherit (left) or inherit + left-sibling sum
        // (right).
        for l in (1..=top).rev() {
            let width = self.sums[l].len();
            for i in 0..width {
                let pe = Self::owner(l, i).min(self.p - 1);
                let below = self.sums[l - 1].len();
                let left = 2 * i;
                let right = 2 * i + 1;
                let mut parent_pref = vec![0u32; self.bins];
                read_fixed(m, pe, self.prefs[l][i], 0, &mut parent_pref);
                write_fixed(m, pe, self.prefs[l - 1][left], 0, &parent_pref);
                if right < below {
                    let mut left_sum = vec![0u32; self.bins];
                    read_fixed(m, pe, self.sums[l - 1][left], 0, &mut left_sum);
                    m.busy_cycles_fixed(pe, MERGE_CYC_PER_ELEM * self.bins as f64);
                    for (a, b) in parent_pref.iter_mut().zip(&left_sum) {
                        *a = a.wrapping_add(*b);
                    }
                    write_fixed(m, pe, self.prefs[l - 1][right], 0, &parent_pref);
                }
            }
            m.barrier();
        }
    }

    /// Read back `pe`'s prefix (Σ of histograms of lower-numbered
    /// processors). Local streamed read.
    pub fn read_prefix(&self, m: &mut Machine, pe: usize, out: &mut [u32]) {
        assert_eq!(out.len(), self.bins);
        read_fixed(m, pe, self.prefs[0][pe], 0, out);
    }

    /// Read the global totals from the root — for most processors this is
    /// the fine-grained remote read sharing the paper talks about.
    pub fn read_totals(&self, m: &mut Machine, pe: usize, out: &mut [u32]) {
        assert_eq!(out.len(), self.bins);
        let top = self.n_levels() - 1;
        read_fixed(m, pe, self.sums[top][0], 0, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsort_machine::MachineConfig;

    fn check_tree(p: usize, bins: usize) {
        let mut m = Machine::new(MachineConfig::origin2000(p).scaled_down(16));
        let tree = PrefixTree::new(&mut m, p, bins);
        // Deterministic pseudo-random histograms.
        let hist = |pe: usize, d: usize| ((pe * 31 + d * 17 + 7) % 23) as u32;
        for pe in 0..p {
            let h: Vec<u32> = (0..bins).map(|d| hist(pe, d)).collect();
            tree.set_local(&mut m, pe, &h);
        }
        tree.accumulate(&mut m);
        for pe in 0..p {
            let mut pref = vec![0u32; bins];
            tree.read_prefix(&mut m, pe, &mut pref);
            for d in 0..bins {
                let expect: u32 = (0..pe).map(|j| hist(j, d)).sum();
                assert_eq!(pref[d], expect, "prefix p={p} pe={pe} d={d}");
            }
            let mut tot = vec![0u32; bins];
            tree.read_totals(&mut m, pe, &mut tot);
            for d in 0..bins {
                let expect: u32 = (0..p).map(|j| hist(j, d)).sum();
                assert_eq!(tot[d], expect, "total p={p} pe={pe} d={d}");
            }
        }
    }

    #[test]
    fn correct_for_power_of_two() {
        check_tree(8, 16);
    }

    #[test]
    fn correct_for_odd_process_counts() {
        check_tree(1, 4);
        check_tree(3, 8);
        check_tree(5, 8);
        check_tree(7, 8);
    }

    #[test]
    fn correct_for_non_power_of_two_process_counts() {
        // Both checked-in regression seeds sat at odd p; sweep the full
        // non-power-of-two range including one just under the machine size.
        for p in [3, 5, 6, 7, 63] {
            check_tree(p, 16);
        }
    }

    #[test]
    fn correct_for_non_power_of_two_bins() {
        for bins in [1, 5, 12, 24, 63] {
            check_tree(3, bins);
            check_tree(8, bins);
        }
    }

    #[test]
    fn correct_for_full_machine() {
        check_tree(64, 32);
    }

    #[test]
    fn accumulation_charges_time() {
        let p = 8;
        let mut m = Machine::new(MachineConfig::origin2000(p).scaled_down(16));
        let tree = PrefixTree::new(&mut m, p, 256);
        for pe in 0..p {
            tree.set_local(&mut m, pe, &vec![1u32; 256]);
        }
        tree.accumulate(&mut m);
        assert!(m.parallel_time() > 0.0);
        // Tree cost should be microseconds, not milliseconds: this is the
        // cheap fine-grained path the paper describes.
        assert!(m.parallel_time() < 1.0e6, "tree too slow: {} ns", m.parallel_time());
    }

    #[test]
    fn reusable_across_passes() {
        let p = 4;
        let mut m = Machine::new(MachineConfig::origin2000(p).scaled_down(16));
        let tree = PrefixTree::new(&mut m, p, 8);
        for round in 0..3u32 {
            for pe in 0..p {
                tree.set_local(&mut m, pe, &[round + pe as u32; 8]);
            }
            tree.accumulate(&mut m);
            let mut tot = vec![0u32; 8];
            tree.read_totals(&mut m, 0, &mut tot);
            let expect: u32 = (0..p as u32).map(|pe| round + pe).sum();
            assert!(tot.iter().all(|&t| t == expect), "round {round}");
        }
    }
}
