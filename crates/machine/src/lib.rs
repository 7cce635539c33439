//! # ccsort-machine
//!
//! A deterministic, execution-driven simulator of a hardware cache-coherent
//! distributed-shared-memory (CC-NUMA) multiprocessor, preset to the
//! 64-processor SGI Origin 2000 studied in Shan & Singh, *Parallel Sorting
//! on Cache-coherent DSM Multiprocessors* (SC 1999).
//!
//! A program sees one type, [`Machine`], built from a [`MachineConfig`]. It
//! allocates simulated arrays ([`Machine::alloc`] with a [`Placement`]),
//! issues timed loads and stores ([`Machine::read_at`] /
//! [`Machine::write_at`], streamed runs such as [`Machine::read_run`],
//! scattered batches such as [`Machine::gather_run`] and
//! [`Machine::scatter_run`]), bulk transfers ([`Machine::dma_copy`]) and
//! barriers, and reads back virtual time split into the paper's four
//! buckets — BUSY, LMEM, RMEM, SYNC ([`TimeBreakdown`]) — plus the
//! protocol [`EventCounters`] behind them.
//!
//! Behind that contract, and private to this crate: per-processor L1 and
//! L2 set-associative write-back caches and a TLB; a full-map directory
//! over a paged, placement-aware address space; a hypercube interconnect;
//! a phase-level controller contention model; MESI-style invalidation or
//! a Dragon-style update protocol ([`ProtocolMode`]); and an opt-in
//! happens-before race detector ([`Machine::set_race_detector`],
//! [`RaceReport`]).
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

mod cache;
mod config;
mod contention;
mod directory;
mod machine;
mod memory;
mod protocol;
mod race;
mod stats;
mod tlb;
mod topology;

pub use config::{CacheGeom, MachineConfig, ProtocolMode, MAX_PROCS};
pub use machine::Machine;
pub use memory::{ArrayId, Placement};
pub use race::{MsgToken, RaceKind, RaceReport};
pub use stats::{Bucket, EventCounters, TimeBreakdown};
