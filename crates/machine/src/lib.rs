//! # ccsort-machine
//!
//! A deterministic, execution-driven simulator of a hardware cache-coherent
//! distributed-shared-memory (CC-NUMA) multiprocessor, preset to the
//! 64-processor SGI Origin 2000 studied in Shan & Singh, *Parallel Sorting
//! on Cache-coherent DSM Multiprocessors* (SC 1999).
//!
//! The simulator models, per processor, a set-associative write-back cache
//! ([`cache::Cache`]) and a TLB ([`tlb::Tlb`]); globally, a directory
//! invalidation protocol ([`directory::Directory`], a full-map bit-vector)
//! over a paged, placement-aware address space ([`memory::AddressSpace`]),
//! a hypercube interconnect ([`topology::Topology`]) and a phase-level
//! controller contention model ([`contention::PhaseTraffic`]). The directory's write
//! transitions are equally pluggable ([`protocol`]): MESI-style
//! invalidation by default, a Dragon-style update mode via
//! [`config::ProtocolMode`]. Programs running on the machine accumulate
//! virtual time split into the paper's four buckets — BUSY, LMEM, RMEM,
//! SYNC ([`stats::TimeBreakdown`]).
//!
//! Crucially, simulated arrays have *real* backing stores: algorithms
//! running on the machine genuinely sort data, and tests verify the output.
//! Time accounting cannot drift away from what the program actually did.
//!
//! ```
//! use ccsort_machine::{Machine, MachineConfig, Placement};
//!
//! let cfg = MachineConfig::origin2000(4).scaled_down(16);
//! let mut m = Machine::new(cfg);
//! let a = m.alloc(1024, Placement::Partitioned { parts: 4 }, "keys");
//! m.write_at(0, a, 0, 7);
//! assert_eq!(m.read_at(0, a, 0), 7);
//! m.busy_cycles(0, 100.0);
//! m.barrier();
//! assert!(m.breakdown(0).busy > 0.0);
//! ```

pub mod cache;
pub mod config;
pub mod contention;
pub mod directory;
pub mod machine;
pub mod memory;
pub mod protocol;
pub mod race;
pub mod stats;
pub mod tlb;
pub mod topology;

pub use config::{CacheGeom, MachineConfig, ProtocolMode, MAX_PROCS};
pub use directory::{DirState, Directory};
pub use machine::Machine;
pub use memory::{ArrayId, Placement};
pub use race::{MsgToken, RaceDetector, RaceKind, RaceReport};
pub use stats::{Bucket, EventCounters, TimeBreakdown};
pub use topology::Topology;
