//! Phase-level memory-controller contention model.
//!
//! This is the mechanism behind the paper's central radix-sort observation:
//! the CC-SAS program's temporally scattered remote writes generate so many
//! coherence-protocol transactions (read-exclusive requests, invalidations,
//! acknowledgements, writebacks) that they "compete for communication
//! resources with data transfer" (Section 4.2) and the permutation phase
//! collapses — while the explicit bulk messages of the MPI and SHMEM
//! programs move the same bytes with far fewer protocol transactions.
//!
//! During a phase (the code between two barriers) every controller visit
//! deposits *occupancy* at its home node. Visits come in two classes:
//!
//! * **latency-bound** protocol transactions (cache-miss requests,
//!   upgrades, interventions): the processor waits for each one, so each
//!   is charged an M/D/1-style queueing delay once utilisation builds;
//! * **bandwidth** work (DMA'd message lines, writebacks): the processor
//!   does not wait per line — these only matter when a controller is
//!   *saturated*, which the bottleneck-stretch term captures.
//!
//! When the phase ends, each controller's utilisation is
//! `rho_h = occupancy_h / span` (span = longest uncontended processor time
//! in the phase). Latency transactions at node `h` are charged
//! `W_h = S_h * rho'_h / (2 (1 - rho'_h))` each, with `rho'` capped at
//! [`WAIT_RHO_CAP`] so the wait stays a queue delay rather than a
//! divergence. If `rho_h` exceeds the saturation cap the controller is the
//! bottleneck: the phase stretches so the controller runs at the cap, and
//! the stretch is distributed to processors in proportion to the occupancy
//! they deposited there. Deterministic, order-free, and it produces
//! utilisation collapse exactly where the paper reports it.

/// Utilisation cap for the per-transaction waiting-time formula. Above
/// this, extra delay is modelled as bottleneck stretch, not per-request
/// waiting (avoiding the 1/(1-rho) divergence double-counting the stretch).
pub const WAIT_RHO_CAP: f64 = 0.8;

/// Additional stall time assigned to one processor when a phase resolves,
/// split by whether the congested controller was on the processor's own
/// node (LMEM) or a remote one (RMEM).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Delay {
    pub lmem: f64,
    pub rmem: f64,
}

/// Traffic recorded during one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTraffic {
    n_nodes: usize,
    /// Occupancy demanded at each node controller, in ns.
    occupancy: Vec<f64>,
    /// Total controller visits per node (for the mean service time).
    events: Vec<u64>,
    /// Latency-bound transaction counts per (pe, node), row-major by pe.
    lat_counts: Vec<u64>,
    /// Occupancy contributed per (pe, node), row-major by pe.
    occ_share: Vec<f64>,
}

impl PhaseTraffic {
    pub fn new(n_procs: usize, n_nodes: usize) -> Self {
        PhaseTraffic {
            n_nodes,
            occupancy: vec![0.0; n_nodes],
            events: vec![0; n_nodes],
            lat_counts: vec![0; n_procs * n_nodes],
            occ_share: vec![0.0; n_procs * n_nodes],
        }
    }

    /// Record `occ_ns` of controller occupancy at `node`, caused by `pe`:
    /// `events` individual controller visits, of which `latency_events`
    /// are ones the processor waits on.
    #[inline]
    pub fn add(&mut self, pe: usize, node: usize, occ_ns: f64, events: u64, latency_events: u64) {
        self.occupancy[node] += occ_ns;
        self.events[node] += events;
        self.lat_counts[pe * self.n_nodes + node] += latency_events;
        self.occ_share[pe * self.n_nodes + node] += occ_ns;
    }

    /// Clear for the next phase.
    pub fn reset(&mut self) {
        self.occupancy.fill(0.0);
        self.events.fill(0);
        self.lat_counts.fill(0);
        self.occ_share.fill(0.0);
    }

    /// True if nothing was recorded (fast path for compute-only phases).
    pub fn is_empty(&self) -> bool {
        self.occupancy.iter().all(|&o| o == 0.0)
    }

    /// Resolve the phase: compute each processor's extra stall time into a
    /// caller-owned buffer, so the per-phase hot path
    /// (`Machine::resolve_phase`) reuses one scratch allocation for the
    /// whole run. `delays` is cleared and refilled.
    ///
    /// * `elapsed` — uncontended time each processor spent in the phase.
    /// * `node_of` — node of each processor.
    /// * `rho_cap` — saturation cap (e.g. 0.95).
    pub fn resolve_into(
        &self,
        elapsed: &[f64],
        node_of: &[usize],
        rho_cap: f64,
        delays: &mut Vec<Delay>,
    ) {
        let n_procs = elapsed.len();
        delays.clear();
        delays.resize(n_procs, Delay::default());
        if self.is_empty() {
            return;
        }
        let span = elapsed.iter().copied().fold(0.0_f64, f64::max).max(1e-9);

        for node in 0..self.n_nodes {
            let occ = self.occupancy[node];
            if occ <= 0.0 || self.events[node] == 0 {
                continue;
            }
            let service = occ / self.events[node] as f64;
            let rho = occ / span;
            let rho_w = rho.min(WAIT_RHO_CAP);
            // M/D/1 mean waiting time at utilisation rho_w.
            let wait = service * rho_w / (2.0 * (1.0 - rho_w));
            // Bottleneck stretch beyond the saturation cap, if any.
            let stretch = if rho > rho_cap { occ / rho_cap - span } else { 0.0 };

            for pe in 0..n_procs {
                let lat = self.lat_counts[pe * self.n_nodes + node];
                let share = self.occ_share[pe * self.n_nodes + node] / occ;
                let extra = wait * lat as f64 + stretch * share;
                if extra <= 0.0 {
                    continue;
                }
                if node_of[pe] == node {
                    delays[pe].lmem += extra;
                } else {
                    delays[pe].rmem += extra;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(t: &PhaseTraffic, elapsed: &[f64], node_of: &[usize], rho_cap: f64) -> Vec<Delay> {
        let mut delays = Vec::new();
        t.resolve_into(elapsed, node_of, rho_cap, &mut delays);
        delays
    }

    #[test]
    fn empty_phase_no_delay() {
        let t = PhaseTraffic::new(4, 2);
        let d = resolve(&t, &[100.0; 4], &[0, 0, 1, 1], 0.95);
        assert!(d.iter().all(|d| d.lmem == 0.0 && d.rmem == 0.0));
    }

    #[test]
    fn light_load_small_delay() {
        let mut t = PhaseTraffic::new(2, 2);
        // 10 latency transactions of 10 ns at node 0 during a 1000 ns
        // phase: rho = 0.1.
        for _ in 0..10 {
            t.add(0, 0, 10.0, 1, 1);
        }
        let d = resolve(&t, &[1000.0, 1000.0], &[0, 1], 0.95);
        // W = 10 * 0.1 / (2 * 0.9) = 0.555..; 10 transactions -> ~5.6 ns.
        assert!(d[0].lmem > 5.0 && d[0].lmem < 6.0, "{:?}", d[0]);
        assert_eq!(d[0].rmem, 0.0);
        assert_eq!(d[1].lmem, 0.0);
    }

    #[test]
    fn overload_stretches_phase() {
        let mut t = PhaseTraffic::new(2, 2);
        // 2000 ns of demanded occupancy in a 1000 ns phase: rho = 2.
        t.add(0, 1, 1000.0, 100, 100);
        t.add(1, 1, 1000.0, 100, 100);
        let d = resolve(&t, &[1000.0, 1000.0], &[0, 1], 0.95);
        // Stretch = 2000/0.95 - 1000 ≈ 1105 ns split evenly, plus queueing.
        let total_extra = d[0].rmem + d[1].lmem;
        assert!(total_extra > 1100.0, "total extra {total_extra}");
        // pe 0 is remote from node 1, pe 1 is local to it.
        assert!(d[0].rmem > 0.0 && d[0].lmem == 0.0);
        assert!(d[1].lmem > 0.0 && d[1].rmem == 0.0);
        // Equal traffic -> equal shares.
        assert!((d[0].rmem - d[1].lmem).abs() < 1e-6);
    }

    #[test]
    fn bulk_traffic_at_moderate_load_is_nearly_free() {
        // Same occupancy, once as latency transactions and once as bulk:
        // below saturation the bulk variant must charge (almost) nothing.
        let span = [10_000.0, 10_000.0];
        let mut lat = PhaseTraffic::new(2, 1);
        lat.add(0, 0, 8_000.0, 80, 80); // rho = 0.8
        let d_lat = resolve(&lat, &span, &[0, 0], 0.95);

        let mut bulk = PhaseTraffic::new(2, 1);
        bulk.add(0, 0, 8_000.0, 80, 0);
        let d_bulk = resolve(&bulk, &span, &[0, 0], 0.95);

        assert!(d_lat[0].lmem > 100.0, "latency class must queue: {:?}", d_lat[0]);
        assert_eq!(d_bulk[0].lmem, 0.0, "bulk class below saturation is free");
    }

    #[test]
    fn bulk_traffic_still_causes_saturation_stretch() {
        let mut t = PhaseTraffic::new(2, 1);
        // rho = 3: saturated even though all traffic is bulk.
        t.add(0, 0, 3_000.0, 100, 0);
        let d = resolve(&t, &[1000.0, 1000.0], &[0, 0], 0.95);
        assert!(d[0].lmem > 2000.0, "{:?}", d[0]);
    }

    #[test]
    fn delay_proportional_to_traffic_share() {
        let mut t = PhaseTraffic::new(2, 1);
        t.add(0, 0, 3000.0, 300, 300);
        t.add(1, 0, 1000.0, 100, 100);
        let d = resolve(&t, &[1000.0, 1000.0], &[0, 0], 0.95);
        assert!(d[0].lmem > 2.9 * d[1].lmem && d[0].lmem < 3.1 * d[1].lmem);
    }

    #[test]
    fn reset_clears() {
        let mut t = PhaseTraffic::new(1, 1);
        t.add(0, 0, 100.0, 1, 1);
        assert!(!t.is_empty());
        t.reset();
        assert!(t.is_empty());
    }
}
