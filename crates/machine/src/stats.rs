//! Per-processor time accounting and protocol event counters.
//!
//! The paper divides per-processor execution time into four categories
//! (Section 4): BUSY (instruction execution assuming no stalls), LMEM
//! (stalls on local memory), RMEM (stalls communicating remote data) and
//! SYNC (time at synchronization events). [`TimeBreakdown`] mirrors that
//! split exactly so the Figure 4 / Figure 8 breakdowns can be read straight
//! out of the simulator.

/// Which bucket a charge of simulated time falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// CPU busy executing instructions.
    Busy,
    /// Stalled on the local memory system (cache misses to local memory, TLB).
    Lmem,
    /// Stalled communicating remote data.
    Rmem,
    /// Waiting at synchronization events (barriers, message rendezvous).
    Sync,
}

/// Per-processor virtual time, split by bucket. All values in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    pub busy: f64,
    pub lmem: f64,
    pub rmem: f64,
    pub sync: f64,
}

impl TimeBreakdown {
    /// Total virtual time.
    pub fn total(&self) -> f64 {
        self.busy + self.lmem + self.rmem + self.sync
    }

    /// Combined memory stall time (the paper reports MEM = LMEM + RMEM for
    /// CC-SAS where the tools cannot separate them).
    pub fn mem(&self) -> f64 {
        self.lmem + self.rmem
    }

    /// Add `ns` to the given bucket.
    pub fn charge(&mut self, bucket: Bucket, ns: f64) {
        debug_assert!(ns >= 0.0, "negative time charge: {ns}");
        match bucket {
            Bucket::Busy => self.busy += ns,
            Bucket::Lmem => self.lmem += ns,
            Bucket::Rmem => self.rmem += ns,
            Bucket::Sync => self.sync += ns,
        }
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: &TimeBreakdown) {
        self.busy += other.busy;
        self.lmem += other.lmem;
        self.rmem += other.rmem;
        self.sync += other.sync;
    }
}

/// Counters for memory-system and coherence-protocol events, per processor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounters {
    /// Line touches that hit in the first-level cache (free).
    pub l1_hits: u64,
    /// Line touches that missed L1 but hit in the L2 cache.
    pub cache_hits: u64,
    /// Line touches that missed and were satisfied from local memory.
    pub misses_local: u64,
    /// Line touches that missed and were satisfied from a remote node.
    pub misses_remote: u64,
    /// Misses that required a cache-to-cache intervention.
    pub interventions: u64,
    /// Invalidation messages sent on our behalf (writes to shared lines).
    pub invalidations: u64,
    /// Ownership upgrades (write hit on a Shared line).
    pub upgrades: u64,
    /// Update messages multicast to sharers (Dragon-style update protocol;
    /// always zero under the default invalidate protocol).
    pub updates: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// Explicit messages sent (MPI sends, SHMEM puts/gets).
    pub messages: u64,
    /// Bytes moved by explicit messages.
    pub message_bytes: u64,
}

impl EventCounters {
    /// Total line touches that reached the cache hierarchy.
    pub fn touches(&self) -> u64 {
        self.l1_hits + self.cache_hits + self.misses_local + self.misses_remote
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses_local + self.misses_remote
    }

    /// Element-wise sum.
    pub fn add(&mut self, o: &EventCounters) {
        self.l1_hits += o.l1_hits;
        self.cache_hits += o.cache_hits;
        self.misses_local += o.misses_local;
        self.misses_remote += o.misses_remote;
        self.interventions += o.interventions;
        self.invalidations += o.invalidations;
        self.upgrades += o.upgrades;
        self.updates += o.updates;
        self.writebacks += o.writebacks;
        self.tlb_misses += o.tlb_misses;
        self.messages += o.messages;
        self.message_bytes += o.message_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_routes_to_bucket() {
        let mut t = TimeBreakdown::default();
        t.charge(Bucket::Busy, 10.0);
        t.charge(Bucket::Lmem, 20.0);
        t.charge(Bucket::Rmem, 30.0);
        t.charge(Bucket::Sync, 40.0);
        assert_eq!(t.busy, 10.0);
        assert_eq!(t.lmem, 20.0);
        assert_eq!(t.rmem, 30.0);
        assert_eq!(t.sync, 40.0);
        assert_eq!(t.total(), 100.0);
        assert_eq!(t.mem(), 50.0);
    }

    #[test]
    fn add_accumulates() {
        let mut a = TimeBreakdown { busy: 1.0, lmem: 2.0, rmem: 3.0, sync: 4.0 };
        let b = a;
        a.add(&b);
        assert_eq!(a.total(), 20.0);

        let mut c = EventCounters::default();
        let d = EventCounters { cache_hits: 5, misses_local: 1, misses_remote: 2, ..Default::default() };
        c.add(&d);
        c.add(&d);
        assert_eq!(c.cache_hits, 10);
        assert_eq!(c.touches(), 16);
        assert_eq!(c.misses(), 6);
    }
}
