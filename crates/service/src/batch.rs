//! Batch assembly and split-back: the data plane of the sorting service.
//!
//! Which requests share a batch is decided at claim time by size
//! ([`COALESCE_GATE_KEYS`], `LaneQueue::claim_into`): requests at or
//! above the gate are sorted alone in their own buffers; runs of smaller
//! ones at the queue front coalesce.
//!
//! A batch is the concatenation of the queued requests' key arrays, with a
//! parallel *tag lane* that lets split-back route every element of the
//! sorted batch to its requester. One stable sort of `(keys, tags)`
//! through the `ccsort-parallel` engine orders the whole batch; because
//! the sort is stable and each request's elements enter the batch
//! contiguously in input order, the subsequence belonging to one request
//! is exactly what a solo stable sort of that request alone would have
//! produced — byte for byte. Split-back then scans the sorted tag lane
//! once and writes every element straight back into the requester's own
//! (recycled) buffers, so the data plane allocates nothing per request at
//! steady state.
//!
//! The tag lane is sized to what the sort actually has to carry — every
//! byte in it is moved twice per radix pass, so the budget matters (see
//! DESIGN.md §15):
//!
//! * **Keys-only lanes** tag with a `u16` request id: 2 bytes per element
//!   buys routing for up to 65 535 requests per batch (far above any
//!   `queue_limit`), and the request's sorted keys are its whole reply.
//! * **The pairs lane** tags with the `u32` *batch position* instead and
//!   leaves payloads out of the sort entirely: each pass moves key + 4
//!   tag bytes rather than key + 16 `(payload, rid)` bytes, and one
//!   gather at split-back fetches `payload[pos]` and looks the request id
//!   up in a per-batch `rid_of` table. Positions are unique and
//!   ascending, so stability and byte-identity are preserved.

use std::collections::VecDeque;
use std::mem::size_of;
use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

use ccsort_parallel::{
    par_radix_sort_pairs_with_scratch, par_radix_sort_with_scratch, RadixKey, RadixSortConfig,
    SortScratch, DEFAULT_RADIX_BITS,
};

/// The size gate: a request with this many keys or more is never coalesced.
///
/// Coalescing trades one widened sort (keys plus a tag lane, then a
/// split-back scan) for the fixed cost of the sorts it replaces, and on the
/// executor that fixed cost is one `bins`-entry histogram per digit pass —
/// zeroed, prefix-summed and walked whatever the request holds. A request
/// smaller than the histogram cannot amortise it; one at least as large
/// pays for it with its own keys, and batching it only adds the tag-lane
/// traffic and pushes the working set out of cache (16 × 16,384 keys
/// widened: 25.5 ns/key; the same 16,384 keys alone: 7.9). So the gate is
/// the histogram size of the default digit width. DESIGN.md §15 has the
/// measured crossovers on both sides of it: executor time per request
/// favours the solo sort from about 128 keys up, a closed-loop client
/// from 256 up.
pub const COALESCE_GATE_KEYS: usize = 1 << DEFAULT_RADIX_BITS;

/// Most requests one batch may hold: the `u16` rid tag (and the `u16`
/// `rid_of` table on the pairs lane) must be able to name every request.
pub const MAX_BATCH_REQUESTS: usize = u16::MAX as usize;

/// A completed request: the sorted keys (and payloads, on pairs lanes),
/// plus how the service handled it.
#[derive(Debug)]
pub struct SortedReply<K, P = ()> {
    /// The request's keys, sorted — the same buffer that was submitted.
    pub keys: Vec<K>,
    /// The payloads, reordered with their keys (empty on keys-only lanes).
    pub vals: Vec<P>,
    /// How many requests shared this request's batch (1 = solo).
    pub batch_requests: u32,
    /// When the batch finished sorting. Stamped service-side so an
    /// open-loop load generator can compute completion latency without
    /// polling the ticket.
    pub completed: Instant,
}

/// The completion handle returned by every accepted submission. Exactly
/// one reply arrives per accepted request — rejection happens at submit
/// time, never after acceptance.
#[derive(Debug)]
pub struct Ticket<K, P = ()> {
    pub(crate) rx: Receiver<SortedReply<K, P>>,
}

impl<K, P> Ticket<K, P> {
    /// Block until the request completes.
    pub fn wait(self) -> SortedReply<K, P> {
        self.rx
            .recv()
            .expect("sorting service dropped an accepted request without replying")
    }

    /// Non-blocking poll; `None` until the reply is available.
    pub fn try_wait(&self) -> Option<SortedReply<K, P>> {
        self.rx.try_recv().ok()
    }
}

/// One queued sort request.
pub(crate) struct Request<K, P> {
    pub keys: Vec<K>,
    /// Payload lane; empty on keys-only lanes.
    pub vals: Vec<P>,
    pub reply: Sender<SortedReply<K, P>>,
    pub enqueued: Instant,
}

impl<K, P> Request<K, P> {
    pub fn bytes(&self) -> usize {
        self.keys.len() * size_of::<K>() + self.vals.len() * size_of::<P>()
    }
}

/// FIFO queue of pending requests for one key/payload shape, with the byte
/// total the flush policy watches.
pub(crate) struct LaneQueue<K, P> {
    pub q: VecDeque<Request<K, P>>,
    pub bytes: usize,
}

impl<K, P> Default for LaneQueue<K, P> {
    fn default() -> Self {
        LaneQueue { q: VecDeque::new(), bytes: 0 }
    }
}

impl<K, P> LaneQueue<K, P> {
    pub fn push(&mut self, r: Request<K, P>) {
        self.bytes += r.bytes();
        self.q.push_back(r);
    }

    /// Move one batch of requests from the queue front into `out`
    /// (clearing it first) and return how many were taken. Strictly FIFO:
    /// a batch is always a prefix of the queue, nothing overtakes.
    ///
    /// * The front request has [`COALESCE_GATE_KEYS`] keys or more: take
    ///   exactly that one — it is sorted alone, in its own buffer.
    /// * Otherwise take the run of below-gate requests at the front while
    ///   the batch stays under `max_batch_bytes` and
    ///   [`MAX_BATCH_REQUESTS`]; the run ends at the first at-or-above-gate
    ///   request, which waits for the next claim.
    pub fn claim_into(&mut self, max_batch_bytes: usize, out: &mut Vec<Request<K, P>>) -> usize {
        out.clear();
        let mut took_bytes = 0usize;
        while let Some(front) = self.q.front() {
            let b = front.bytes();
            let solo = front.keys.len() >= COALESCE_GATE_KEYS;
            if !out.is_empty()
                && (solo || took_bytes + b > max_batch_bytes || out.len() >= MAX_BATCH_REQUESTS)
            {
                break;
            }
            took_bytes += b;
            self.bytes -= b;
            out.push(self.q.pop_front().expect("front checked above"));
            if solo {
                break;
            }
        }
        out.len()
    }
}

/// What one batch sort did, for the stats counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchOutcome {
    pub requests: u64,
    pub keys: u64,
}

impl BatchOutcome {
    fn of<K, P>(claimed: &[Request<K, P>]) -> Self {
        BatchOutcome {
            requests: claimed.len() as u64,
            keys: claimed.iter().map(|r| r.keys.len() as u64).sum(),
        }
    }
}

/// Send every sorted request of the batch back to its requester. The
/// executor publishes the batch's counters *before* calling this, so a
/// client returning from [`Ticket::wait`] reads stats that already include
/// its own request.
pub(crate) fn reply_all<K, P>(claimed: &mut Vec<Request<K, P>>) {
    let nreq = claimed.len() as u32;
    let completed = Instant::now();
    for r in claimed.drain(..) {
        // A requester that dropped its ticket discards the result; the
        // send's Err tells us no one is listening — an explicit outcome,
        // not a silent drop.
        let _ = r.reply.send(SortedReply {
            keys: r.keys,
            vals: r.vals,
            batch_requests: nreq,
            completed,
        });
    }
}

/// Per-executor reusable buffers for one keys-only lane. Everything here
/// survives across batches; steady-state batches of stable shape never
/// allocate.
pub(crate) struct KeysLaneScratch<K> {
    /// Requests claimed for the batch currently executing.
    pub claimed: Vec<Request<K, ()>>,
    keys: Vec<K>,
    tags: Vec<u16>,
    cursors: Vec<usize>,
    /// One engine scratch serves both shapes this lane sorts: solo
    /// batches go through the keys-only entry point, coalesced batches
    /// through the pairs entry point with the `u16` tag lane.
    sort: SortScratch<K, u16>,
}

impl<K: Copy + Default> Default for KeysLaneScratch<K> {
    fn default() -> Self {
        KeysLaneScratch {
            claimed: Vec::new(),
            keys: Vec::new(),
            tags: Vec::new(),
            cursors: Vec::new(),
            sort: SortScratch::new(),
        }
    }
}

impl<K: RadixKey + Default> KeysLaneScratch<K> {
    /// Engine-scratch buffer growths — the counter behind
    /// [`crate::ServiceStats::scratch_reallocations`].
    pub fn reallocations(&self) -> u64 {
        self.sort.reallocations()
    }

    /// Sort the claimed batch, leaving every request's sorted keys in its
    /// own buffer for [`reply_all`]. Solo batches (every request at or
    /// above the size gate, and any lone flush) skip the tag lane and sort
    /// in the requester's own buffer.
    pub fn sort(&mut self, cfg: &RadixSortConfig) -> BatchOutcome {
        let KeysLaneScratch { claimed, keys, tags, cursors, sort } = self;
        debug_assert!(!claimed.is_empty(), "sort() with no claimed requests");
        debug_assert!(claimed.len() <= MAX_BATCH_REQUESTS);
        let outcome = BatchOutcome::of(claimed);
        let total = outcome.keys as usize;

        if claimed.len() == 1 {
            par_radix_sort_with_scratch(&mut claimed[0].keys, cfg, sort);
        } else {
            keys.clear();
            tags.clear();
            keys.reserve(total);
            tags.reserve(total);
            for (rid, r) in claimed.iter().enumerate() {
                keys.extend_from_slice(&r.keys);
                let new_len = tags.len() + r.keys.len();
                tags.resize(new_len, rid as u16);
            }
            par_radix_sort_pairs_with_scratch(&mut keys[..], &mut tags[..], cfg, sort);
            cursors.clear();
            cursors.resize(claimed.len(), 0);
            for (&k, &t) in keys.iter().zip(tags.iter()) {
                let rid = t as usize;
                let c = cursors[rid];
                claimed[rid].keys[c] = k;
                cursors[rid] = c + 1;
            }
        }
        outcome
    }
}

/// Per-executor reusable buffers for the key+payload lane: batch keys, the
/// `u32` position tags the sort carries instead of payloads, the
/// concatenated payloads (gathered once at split-back), and the
/// position→request table.
#[derive(Default)]
pub(crate) struct PairsLaneScratch {
    pub claimed: Vec<Request<u64, u64>>,
    keys: Vec<u64>,
    tags: Vec<u32>,
    vals: Vec<u64>,
    rid_of: Vec<u16>,
    cursors: Vec<usize>,
    /// Engine scratch for coalesced (position-tagged) batch sorts.
    sort: SortScratch<u64, u32>,
    /// Engine scratch for solo batches, which sort key+payload directly.
    solo: SortScratch<u64, u64>,
}

impl PairsLaneScratch {
    pub fn reallocations(&self) -> u64 {
        self.sort.reallocations() + self.solo.reallocations()
    }

    /// As [`KeysLaneScratch::sort`], for the key+payload lane.
    pub fn sort(&mut self, cfg: &RadixSortConfig) -> BatchOutcome {
        let PairsLaneScratch { claimed, keys, tags, vals, rid_of, cursors, sort, solo } = self;
        debug_assert!(!claimed.is_empty(), "sort() with no claimed requests");
        debug_assert!(claimed.len() <= MAX_BATCH_REQUESTS);
        let outcome = BatchOutcome::of(claimed);
        let total = outcome.keys as usize;

        if claimed.len() == 1 {
            let r = &mut claimed[0];
            par_radix_sort_pairs_with_scratch(&mut r.keys, &mut r.vals, cfg, solo);
        } else {
            assert!(total <= u32::MAX as usize, "batch exceeds u32 position space");
            keys.clear();
            vals.clear();
            rid_of.clear();
            keys.reserve(total);
            vals.reserve(total);
            rid_of.reserve(total);
            for (rid, r) in claimed.iter().enumerate() {
                keys.extend_from_slice(&r.keys);
                vals.extend_from_slice(&r.vals);
                let new_len = rid_of.len() + r.keys.len();
                rid_of.resize(new_len, rid as u16);
            }
            tags.clear();
            tags.extend(0..total as u32);
            par_radix_sort_pairs_with_scratch(&mut keys[..], &mut tags[..], cfg, sort);
            cursors.clear();
            cursors.resize(claimed.len(), 0);
            for (&k, &pos) in keys.iter().zip(tags.iter()) {
                let pos = pos as usize;
                let rid = rid_of[pos] as usize;
                let c = cursors[rid];
                let r = &mut claimed[rid];
                r.keys[c] = k;
                r.vals[c] = vals[pos];
                cursors[rid] = c + 1;
            }
        }
        outcome
    }
}
