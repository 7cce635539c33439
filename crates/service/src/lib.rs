//! # ccsort-service
//!
//! Sorting as a service: a long-running in-process service that accepts
//! keyed sort requests from many concurrent clients and serves them
//! through the `ccsort-parallel` engine.
//!
//! The design lifts the paper's core performance lesson — many small
//! transfers lose to a few large coalesced ones (Shan & Singh's message
//! coalescing, § "remote communication") — from the memory system to the
//! service layer. Each sort request pays fixed costs that do not shrink
//! with the request: thread wake-up, histogram setup, scratch shaping.
//! The service amortises them by *coalescing*: compatible queued requests
//! are merged into one tagged batch, sorted once, and split back to their
//! requesters (see [`batch`] for the correctness argument). The paper's
//! other half of that lesson holds too — for large transfers the staging
//! copy is pure cost — so coalescing is gated by size: a request of
//! [`COALESCE_GATE_KEYS`] keys or more already amortises its own fixed
//! costs and is sorted alone, in its own buffer, cache-resident. A persistent
//! executor pool reuses [`ccsort_parallel::SortScratch`] across batches,
//! so at steady state the data plane allocates nothing per request —
//! [`ServiceStats::scratch_reallocations`] proves it at runtime.
//!
//! ```
//! use ccsort_service::{ServiceConfig, SortService};
//!
//! let svc = SortService::start(ServiceConfig::default()).unwrap();
//! let ticket = svc.submit_u32(vec![3, 1, 2]).unwrap();
//! assert_eq!(ticket.wait().keys, vec![1, 2, 3]);
//! svc.shutdown();
//! ```
//!
//! Overload is handled by admission control, never by silent drops: the
//! queue is bounded and a full queue rejects new requests explicitly with
//! [`SubmitError::Rejected`], handing the caller's buffers back.

pub mod batch;
pub mod service;

pub use batch::{SortedReply, Ticket, COALESCE_GATE_KEYS};
pub use service::{ServiceConfig, ServiceStats, SortService, SubmitError};
