//! Machine configuration and the SGI Origin 2000 preset.
//!
//! All structural parameters (cache geometry, page size, latencies,
//! controller occupancies) live here so that a single struct defines the
//! simulated platform. The values of [`MachineConfig::origin2000`] come from
//! Section 2 of Shan & Singh (SC 1999) and the Origin 2000 performance
//! tuning guide they cite: 195 MHz R10000 processors, two per node, a
//! unified 4 MB 2-way L2 with 128-byte lines, 16 KB default pages (the paper
//! runs with 64 KB and 256 KB pages), a hypercube of 16 routers, 313 ns
//! local read latency, ~796 ns average remote latency, ~1010 ns worst case,
//! and roughly +100 ns per router hop.

/// Hard cap on the processor count: the 64-processor Origin 2000 of the
/// paper. The directory's full-map presence vector is one `u64` per line.
pub const MAX_PROCS: usize = 64;

/// Coherence protocol the directory runs on a remote write (see
/// `crates/machine/src/protocol.rs`).
///
/// `Invalidate` is the bit-exact default: MESI semantics, where a write to
/// a line with other sharers invalidates every copy and takes the line
/// exclusive. `DragonUpdate` is a Dragon-style update protocol: a write to
/// a shared line instead *multicasts the new data* to every sharer — the
/// copies stay valid and the line stays Shared, so readers never re-miss,
/// but **every** write to a shared line pays an update multicast (charged
/// through `ctrl_occ_ns` and the phase contention model). The classic
/// trade: invalidation misses versus update traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolMode {
    /// MESI-style write-invalidate (Origin 2000's protocol).
    #[default]
    Invalidate,
    /// Dragon-style write-update: shared lines stay shared; writes
    /// multicast the data to all sharers.
    DragonUpdate,
}

impl std::fmt::Display for ProtocolMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolMode::Invalidate => write!(f, "invalidate"),
            ProtocolMode::DragonUpdate => write!(f, "dragon-update"),
        }
    }
}

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeom {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
}

impl CacheGeom {
    /// Number of sets. Panics if the geometry is degenerate.
    pub fn sets(&self) -> usize {
        assert!(self.line.is_power_of_two(), "line size must be a power of two");
        let lines = self.size / self.line;
        assert!(lines.is_multiple_of(self.assoc), "capacity must be a whole number of ways");
        let sets = lines / self.assoc;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }

    /// Total number of lines the cache can hold.
    pub fn lines(&self) -> usize {
        self.size / self.line
    }
}

/// Full description of the simulated CC-NUMA machine.
///
/// Time is measured in nanoseconds (`f64`). The simulation is deterministic:
/// nothing in it consults the host clock or unseeded randomness.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of processors (PEs), up to [`MAX_PROCS`].
    pub n_procs: usize,
    /// Processors per node (Origin 2000: 2).
    pub procs_per_node: usize,
    /// Nodes per router (Origin 2000: 2, giving 16 routers for 32 nodes).
    pub nodes_per_router: usize,

    /// First-level data cache, modelled at the same line granularity as L2
    /// but *line-count matched* to the R10000's 32 KB / 32 B-line L1D
    /// (1024 lines, 2-way): what matters for the sorting kernels is how
    /// many distinct cursor lines stay in the nearest cache. Hits are free
    /// (folded into BUSY); an L1 miss that hits L2 pays `l2_hit_ns`.
    pub l1: CacheGeom,
    /// Unified second-level cache, the coherence point (Origin: 4 MB, 2-way, 128 B lines).
    pub l2: CacheGeom,
    /// Virtual memory page size in bytes (the paper uses 64 KB for 1M-64M keys
    /// and 256 KB for 256M keys).
    pub page_size: usize,
    /// Number of TLB entries per processor (R10000: 64).
    pub tlb_entries: usize,

    /// Nanoseconds per processor cycle (195 MHz -> ~5.128 ns).
    pub cycle_ns: f64,
    /// Cost charged for an L2 hit on a line touch.
    pub l2_hit_ns: f64,
    /// Uncontended latency of a local memory fetch (first word): 313 ns.
    pub mem_local_ns: f64,
    /// Fixed extra latency for any remote fetch before per-hop costs.
    pub remote_base_ns: f64,
    /// Extra latency per router hop: ~100 ns.
    pub hop_ns: f64,
    /// Extra latency when a miss requires a cache-to-cache intervention.
    pub intervention_ns: f64,
    /// Cost of a TLB refill (software-loaded TLB on MIPS).
    pub tlb_miss_ns: f64,

    /// Memory/directory controller occupancy per protocol transaction
    /// (request, invalidation, acknowledgement, writeback, ...).
    pub ctrl_occ_ns: f64,
    /// Controller occupancy for moving one cache line of data.
    pub data_occ_ns: f64,
    /// Point-to-point link bandwidth in bytes per nanosecond (1.6 GB/s total
    /// both directions -> 0.8 GB/s per direction = 0.8 B/ns).
    pub link_bw_bytes_per_ns: f64,

    /// Fraction of a miss round-trip a *demand read* in a streamed sweep
    /// stalls the processor (hardware prefetch / out-of-order overlap hides
    /// the rest).
    pub read_stall_streamed: f64,
    /// Fraction of a miss round-trip a *scattered* read stalls the processor.
    pub read_stall_scattered: f64,
    /// Fraction of a miss round-trip a streamed (contiguous) write stalls the
    /// processor. The write buffer pipelines back-to-back lines, but a
    /// coherent store stream still pays read-exclusive round trips — a CPU
    /// copy into remote memory is several times slower than the hardware
    /// block-transfer engine behind SHMEM put/get.
    pub write_stall_streamed: f64,
    /// Fraction of a miss round-trip a scattered write stalls the processor:
    /// each write targets a new line, exhausting the MSHRs, and interleaved
    /// dependent reads prevent overlap (Section 4.2 of the paper).
    pub write_stall_scattered: f64,
    /// Effective round-trips for a scattered write miss to a *remote* home.
    /// Under the all-to-all fine-grained writes of the CC-SAS radix
    /// permutation, requests constantly hit directory entries with pending
    /// transactions (read-exclusive + invalidation + acknowledgement +
    /// writeback chains from 63 other writers) and are NACKed and retried —
    /// the protocol interference the paper blames for the CC-SAS collapse.
    /// Values > 1 model the retry storms.
    pub write_stall_scattered_remote: f64,

    /// Software overhead of an MPI send (per message, at the sender).
    pub mpi_send_overhead_ns: f64,
    /// Software overhead of an MPI receive (per message, at the receiver).
    pub mpi_recv_overhead_ns: f64,
    /// Extra per-message overhead of the staged (vendor-style) MPI path:
    /// buffer management, queue manipulation.
    pub mpi_staged_extra_ns: f64,
    /// Software overhead of a SHMEM put/get (one-sided, much cheaper).
    pub shmem_overhead_ns: f64,
    /// Base cost of a barrier plus the per-tree-level cost (a barrier over P
    /// processors costs `base + 2 * ceil(log2 P) * level`).
    pub barrier_base_ns: f64,
    pub barrier_level_ns: f64,

    /// Utilisation cap for the contention model: a controller asked for more
    /// than this fraction of a phase becomes the bottleneck and stretches
    /// the phase.
    pub rho_cap: f64,

    /// Physically indexed caches: hash the page frame into the set index,
    /// modelling the OS's scattered physical page allocation. Disable only
    /// for ablation studies — a purely virtually-indexed model lets
    /// page-aligned power-of-two strides alias pathologically.
    pub physical_cache_indexing: bool,

    /// Cost divisor for *fixed-size* (n-independent) work, set by
    /// [`MachineConfig::scaled_down`]. Structures of size Θ(p·2^r) — local
    /// histograms, their collectives, the prefix tree, sample/count tables —
    /// don't shrink when the data set shrinks, so on a 1/denom data set
    /// their costs must be divided by denom to keep the same weight
    /// relative to the Θ(n) work that the paper measured.
    pub fixed_cost_div: f64,

    /// Coherence protocol for writes to lines with other sharers. The
    /// invalidate default is bit-exact with the pre-existing MESI walk;
    /// Dragon-update trades invalidation misses for update traffic.
    pub protocol: ProtocolMode,
}

impl MachineConfig {
    /// The SGI Origin 2000 used in the paper, at full scale. Counts beyond
    /// [`MAX_PROCS`] are rejected by [`MachineConfig::validate`].
    pub fn origin2000(n_procs: usize) -> Self {
        MachineConfig {
            n_procs,
            procs_per_node: 2,
            nodes_per_router: 2,
            l1: CacheGeom { size: 1024 * 128, assoc: 2, line: 128 },
            l2: CacheGeom { size: 4 << 20, assoc: 2, line: 128 },
            page_size: 64 << 10,
            tlb_entries: 64,
            cycle_ns: 1000.0 / 195.0,
            l2_hit_ns: 10.0 * (1000.0 / 195.0),
            mem_local_ns: 313.0,
            remote_base_ns: 300.0,
            hop_ns: 100.0,
            intervention_ns: 250.0,
            tlb_miss_ns: 550.0,
            ctrl_occ_ns: 220.0,
            data_occ_ns: 90.0,
            link_bw_bytes_per_ns: 0.8,
            read_stall_streamed: 0.30,
            read_stall_scattered: 1.0,
            write_stall_streamed: 0.30,
            write_stall_scattered: 0.75,
            write_stall_scattered_remote: 2.2,
            mpi_send_overhead_ns: 6_000.0,
            mpi_recv_overhead_ns: 6_000.0,
            mpi_staged_extra_ns: 10_000.0,
            shmem_overhead_ns: 1_500.0,
            barrier_base_ns: 2_000.0,
            barrier_level_ns: 600.0,
            rho_cap: 0.95,
            physical_cache_indexing: true,
            fixed_cost_div: 1.0,
            protocol: ProtocolMode::Invalidate,
        }
    }

    /// Builder-style selection of the coherence protocol.
    pub fn with_protocol(mut self, proto: ProtocolMode) -> Self {
        self.protocol = proto;
        self
    }

    /// Scale the machine down by `1/denom` for running data sets of
    /// `n/denom` keys in place of `n`-key full-scale runs.
    ///
    /// Two families of parameters scale:
    ///
    /// * **capacities** (cache size, TLB reach, page size) — so every
    ///   dataset-to-capacity ratio, and hence every capacity-driven
    ///   crossover (superlinear speedups, TLB blow-ups), appears at the
    ///   same *paper-labelled* size;
    /// * **fixed per-event software costs** (per-message overheads, barrier
    ///   costs) — these don't shrink with `n` on the real machine, so on a
    ///   `1/denom` data set they must shrink by `denom` to keep the same
    ///   overhead-to-work ratio the paper saw (message *counts* are
    ///   n-independent: `p * 2^r` per radix pass).
    ///
    /// Per-line and per-access costs (latencies, occupancies) stay fixed:
    /// their event counts are proportional to `n` and scale automatically.
    pub fn scaled_down(mut self, denom: usize) -> Self {
        assert!(denom.is_power_of_two(), "scale denominator must be a power of two");
        if denom == 1 {
            return self;
        }
        let d = denom as f64;
        self.l2.size = (self.l2.size / denom).max(self.l2.line * self.l2.assoc * 2);
        self.l1.size = (self.l1.size / denom).max(self.l1.line * self.l1.assoc * 2);
        // TLB reach scales through the page size alone (entry count is a
        // structural property): reach = entries * page/denom = full/denom.
        // Keep at least 16 lines per page.
        self.page_size = (self.page_size / denom).max(self.l2.line * 16);
        // Fixed per-event software costs.
        self.mpi_send_overhead_ns /= d;
        self.mpi_recv_overhead_ns /= d;
        self.mpi_staged_extra_ns /= d;
        self.shmem_overhead_ns /= d;
        self.barrier_base_ns /= d;
        self.barrier_level_ns /= d;
        self.fixed_cost_div = d;
        self
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_procs.div_ceil(self.procs_per_node)
    }

    /// Log2 of the line size.
    pub fn line_shift(&self) -> u32 {
        self.l2.line.trailing_zeros()
    }

    /// Log2 of the page size.
    pub fn page_shift(&self) -> u32 {
        assert!(self.page_size.is_power_of_two());
        self.page_size.trailing_zeros()
    }

    /// Sanity-check invariants, naming the offending field in the error.
    /// [`crate::Machine::new`] panics on violations; fallible entry points
    /// ([`crate::Machine::try_new`], config-file loaders) surface the
    /// message instead.
    pub fn validate(&self) -> Result<(), String> {
        fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
            if ok {
                Ok(())
            } else {
                Err(what())
            }
        }
        check(
            (1..=MAX_PROCS).contains(&self.n_procs),
            || format!("n_procs: {} outside 1..={MAX_PROCS}", self.n_procs),
        )?;
        check(self.procs_per_node >= 1, || {
            format!("procs_per_node: {} must be >= 1", self.procs_per_node)
        })?;
        check(self.nodes_per_router >= 1, || {
            format!("nodes_per_router: {} must be >= 1", self.nodes_per_router)
        })?;
        check(self.page_size >= self.l2.line, || {
            format!(
                "page_size: {} smaller than the l2.line of {}",
                self.page_size, self.l2.line
            )
        })?;
        check(self.page_size.is_power_of_two(), || {
            format!("page_size: {} must be a power of two", self.page_size)
        })?;
        // The TLB indexes its slots with `u16`, `u16::MAX` meaning unmapped.
        check((1..u16::MAX as usize).contains(&self.tlb_entries), || {
            format!("tlb_entries: {} outside 1..{}", self.tlb_entries, u16::MAX)
        })?;
        check(self.l2.line.is_power_of_two(), || {
            format!("l2.line: {} must be a power of two", self.l2.line)
        })?;
        check(self.l1.line == self.l2.line, || {
            format!(
                "l1.line: {} must equal l2.line ({}): levels share the line granularity",
                self.l1.line, self.l2.line
            )
        })?;
        for (name, geom) in [("l1", &self.l1), ("l2", &self.l2)] {
            let lines = geom.size / geom.line;
            check(lines > 0 && lines.is_multiple_of(geom.assoc), || {
                format!("{name}: capacity must be a whole number of ways")
            })?;
            check((lines / geom.assoc).is_power_of_two(), || {
                format!("{name}: set count must be a power of two")
            })?;
        }
        check(self.rho_cap > 0.0 && self.rho_cap < 1.0, || {
            format!("rho_cap: {} outside (0, 1)", self.rho_cap)
        })?;
        check(self.link_bw_bytes_per_ns > 0.0, || {
            format!("link_bw_bytes_per_ns: {} must be positive", self.link_bw_bytes_per_ns)
        })?;
        check(self.fixed_cost_div >= 1.0, || {
            format!("fixed_cost_div: {} must be >= 1", self.fixed_cost_div)
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_geometry() {
        let c = MachineConfig::origin2000(64);
        assert_eq!(c.n_nodes(), 32);
        assert_eq!(c.l2.sets(), 16384);
        assert_eq!(c.l2.lines(), 32768);
        assert_eq!(c.line_shift(), 7);
        c.validate().unwrap();
    }

    #[test]
    fn odd_proc_counts_round_up_nodes() {
        let c = MachineConfig::origin2000(3);
        assert_eq!(c.n_nodes(), 2);
        let c1 = MachineConfig::origin2000(1);
        assert_eq!(c1.n_nodes(), 1);
    }

    #[test]
    fn scaling_preserves_ratios() {
        let full = MachineConfig::origin2000(64);
        let s = full.clone().scaled_down(16);
        assert_eq!(s.l2.size, full.l2.size / 16);
        assert_eq!(s.tlb_entries, full.tlb_entries); // reach scales via page size
        assert!((s.shmem_overhead_ns - full.shmem_overhead_ns / 16.0).abs() < 1e-9);
        assert_eq!(s.l2.line, full.l2.line);
        s.validate().unwrap();
    }

    #[test]
    fn scale_one_is_identity() {
        let full = MachineConfig::origin2000(64);
        let s = full.clone().scaled_down(1);
        assert_eq!(s.l2.size, full.l2.size);
        assert_eq!(s.tlb_entries, full.tlb_entries);
    }

    #[test]
    fn too_many_procs_rejected_with_field_name() {
        // The cap is the paper's machine: p = 64 fits the one-word full map.
        MachineConfig::origin2000(64).validate().unwrap();
        let err = MachineConfig::origin2000(65).validate().unwrap_err();
        assert!(err.contains("n_procs"), "error must name the field: {err}");
    }

    #[test]
    fn validate_names_offending_field() {
        let mut c = MachineConfig::origin2000(8);
        c.rho_cap = 1.5;
        let err = c.validate().unwrap_err();
        assert!(err.contains("rho_cap"), "error must name the field: {err}");

        let mut c = MachineConfig::origin2000(8);
        c.page_size = 100;
        assert!(c.validate().unwrap_err().contains("page_size"));
    }

    #[test]
    fn protocol_default_and_display() {
        assert_eq!(MachineConfig::origin2000(8).protocol, ProtocolMode::Invalidate);
        assert_eq!(ProtocolMode::Invalidate.to_string(), "invalidate");
        assert_eq!(ProtocolMode::DragonUpdate.to_string(), "dragon-update");
        assert_eq!(ProtocolMode::default(), ProtocolMode::Invalidate);
    }

    #[test]
    fn latency_constants_match_paper() {
        let c = MachineConfig::origin2000(64);
        // Local 313 ns; max remote approx 1010 ns = local + base + 4 hops.
        assert!((c.mem_local_ns - 313.0).abs() < 1e-9);
        let max_remote = c.mem_local_ns + c.remote_base_ns + 4.0 * c.hop_ns;
        assert!((max_remote - 1013.0).abs() < 1.0);
    }
}
