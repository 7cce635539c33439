//! Interconnect topology: processors on nodes, nodes on routers, routers
//! wired as a hypercube.
//!
//! The Origin 2000 in the paper has 64 processors in 32 nodes (two per
//! node); each pair of nodes shares a router, and the 16 routers form a
//! 4-dimensional hypercube. Read latency grows by roughly 100 ns per router
//! hop (Section 2). The hop count between two routers in a hypercube is the
//! Hamming distance of their identifiers.

use crate::config::MachineConfig;

/// Static topology derived from a [`MachineConfig`].
#[derive(Debug, Clone)]
pub struct Topology {
    procs_per_node: usize,
    nodes_per_router: usize,
    n_nodes: usize,
    mem_local_ns: f64,
    remote_base_ns: f64,
    hop_ns: f64,
}

impl Topology {
    pub fn new(cfg: &MachineConfig) -> Self {
        Topology {
            procs_per_node: cfg.procs_per_node,
            nodes_per_router: cfg.nodes_per_router,
            n_nodes: cfg.n_nodes(),
            mem_local_ns: cfg.mem_local_ns,
            remote_base_ns: cfg.remote_base_ns,
            hop_ns: cfg.hop_ns,
        }
    }

    /// Node hosting processor `pe`.
    #[inline]
    pub fn node_of(&self, pe: usize) -> usize {
        pe / self.procs_per_node
    }

    /// Router attached to `node`.
    #[inline]
    pub fn router_of(&self, node: usize) -> usize {
        node / self.nodes_per_router
    }

    /// Number of nodes in the machine.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Router hops between two nodes: 0 if they share a router, otherwise
    /// the Hamming distance of their router ids.
    ///
    /// This stays exact for *partial* hypercubes — machines whose router
    /// count R is not a power of two, so ids occupy the contiguous range
    /// [0, R) rather than a full cube. A shortest route of exactly
    /// Hamming-distance length always exists through present routers:
    /// first clear the bits of `a \ b` (each step only lowers the id, so
    /// every intermediate is < a < R), then set the bits of `b \ a` (every
    /// intermediate is a submask of b plus `a ∧ b`, hence <= b < R). The
    /// partial-hypercube tests below check this against BFS.
    #[inline]
    pub fn hops(&self, node_a: usize, node_b: usize) -> u32 {
        (self.router_of(node_a) ^ self.router_of(node_b)).count_ones()
    }

    /// Uncontended latency for processor `pe` to fetch a line homed at
    /// `home` (first-word latency; matches the paper's 313 / ~796 / ~1010 ns
    /// local / average / worst-case numbers for the 64-processor machine).
    #[inline]
    pub fn mem_latency(&self, pe: usize, home: usize) -> f64 {
        let n = self.node_of(pe);
        if n == home {
            self.mem_local_ns
        } else {
            self.mem_local_ns + self.remote_base_ns + f64::from(self.hops(n, home)) * self.hop_ns
        }
    }

    /// Latency between two *nodes* (used for forwarded interventions and
    /// message transfers).
    #[inline]
    pub fn node_latency(&self, from: usize, to: usize) -> f64 {
        if from == to {
            self.mem_local_ns
        } else {
            self.mem_local_ns + self.remote_base_ns + f64::from(self.hops(from, to)) * self.hop_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn topo64() -> Topology {
        Topology::new(&MachineConfig::origin2000(64))
    }

    #[test]
    fn placement() {
        let t = topo64();
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(1), 0);
        assert_eq!(t.node_of(2), 1);
        assert_eq!(t.node_of(63), 31);
        assert_eq!(t.router_of(0), 0);
        assert_eq!(t.router_of(1), 0);
        assert_eq!(t.router_of(2), 1);
        assert_eq!(t.router_of(31), 15);
    }

    #[test]
    fn hypercube_hops() {
        let t = topo64();
        // Same router.
        assert_eq!(t.hops(0, 1), 0);
        // Routers 0 and 15 differ in 4 bits -> 4 hops.
        assert_eq!(t.hops(0, 31), 4);
        // Routers 0 and 1 -> 1 hop (nodes 0 and 2).
        assert_eq!(t.hops(0, 2), 1);
        // Symmetry.
        for a in 0..32 {
            for b in 0..32 {
                assert_eq!(t.hops(a, b), t.hops(b, a));
            }
        }
    }

    #[test]
    fn latencies_match_paper() {
        let t = topo64();
        assert!((t.mem_latency(0, 0) - 313.0).abs() < 1e-9);
        // Worst case: 4 hops -> 313 + 300 + 400 = 1013 (paper: ~1010).
        let worst = (0..32).map(|h| t.mem_latency(0, h)).fold(0.0_f64, f64::max);
        assert!((worst - 1013.0).abs() < 1e-9);
        // Average over local + all remote: paper says ~796.
        let avg = (0..32).map(|h| t.mem_latency(0, h)).sum::<f64>() / 32.0;
        assert!((avg - 796.0).abs() < 60.0, "avg latency {avg} too far from 796");
    }

    #[test]
    fn triangle_inequality_holds_for_hops() {
        let t = topo64();
        for a in 0..32 {
            for b in 0..32 {
                for c in 0..32 {
                    assert!(
                        t.hops(a, c) <= t.hops(a, b) + t.hops(b, c),
                        "triangle violated at {a},{b},{c}"
                    );
                }
            }
        }
    }

    /// Shortest-path hop count over a partial hypercube with `routers`
    /// present routers (ids [0, routers)), where an edge joins two present
    /// routers differing in exactly one bit.
    fn bfs_hops(routers: usize, from: usize, to: usize) -> u32 {
        let bits = usize::BITS - (routers - 1).leading_zeros();
        let mut dist = vec![u32::MAX; routers];
        let mut queue = std::collections::VecDeque::from([from]);
        dist[from] = 0;
        while let Some(r) = queue.pop_front() {
            for bit in 0..bits {
                let next = r ^ (1 << bit);
                if next < routers && dist[next] == u32::MAX {
                    dist[next] = dist[r] + 1;
                    queue.push_back(next);
                }
            }
        }
        dist[to]
    }

    /// The Hamming-distance claim behind [`Topology::hops`] must hold on
    /// partial hypercubes too: with a contiguous id range [0, R) for
    /// non-power-of-two R, a shortest route of exactly Hamming-distance
    /// length exists through present routers. Checked exhaustively against
    /// BFS for every router pair at several ragged sizes.
    #[test]
    fn partial_hypercube_hamming_distance_is_reachable() {
        for routers in [3usize, 5, 6, 7, 11, 12, 13] {
            for a in 0..routers {
                for b in 0..routers {
                    let hamming = (a ^ b).count_ones();
                    assert_eq!(
                        bfs_hops(routers, a, b),
                        hamming,
                        "routers={routers} {a}->{b}: claimed shortest route absent"
                    );
                }
            }
        }
    }

    /// End to end on a non-power-of-two machine: p = 12 gives 6 nodes on
    /// 3 routers (a ragged half of a 2-cube), and node-level hop counts
    /// must agree with BFS over the present routers.
    #[test]
    fn partial_hypercube_machine_hops_match_bfs() {
        let cfg = MachineConfig::origin2000(12);
        cfg.validate().unwrap();
        let t = Topology::new(&cfg);
        assert_eq!(t.n_nodes(), 6);
        let routers = 3;
        for a in 0..t.n_nodes() {
            for b in 0..t.n_nodes() {
                let (ra, rb) = (t.router_of(a), t.router_of(b));
                assert!(ra < routers && rb < routers);
                assert_eq!(t.hops(a, b), bfs_hops(routers, ra, rb), "nodes {a}->{b}");
            }
        }
        // Router 1 and 2 differ in two bits (01 vs 10): the 2-hop route
        // must pass through a present router — 0 (00) works, 3 (11) is
        // absent — and `hops` must charge exactly those 2 hops.
        assert_eq!(t.hops(2, 4), 2);
    }
}
