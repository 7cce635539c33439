//! The service itself: bounded submission queue, flush policy, and the
//! persistent executor pool.
//!
//! Control flow: `submit_*` enqueues a request under the state lock (or
//! rejects it when the queue is full — admission control never blocks and
//! never drops silently). Executor threads wait on a condvar and claim a
//! batch whenever a lane becomes *ready*: its queued bytes reach
//! `max_batch_bytes`, or its oldest request has waited `max_wait_us` —
//! whichever comes first. What a claim takes is decided by request size
//! ([`crate::batch::COALESCE_GATE_KEYS`]): a front request at or above the
//! gate is claimed alone and sorted in its own buffer; otherwise the run
//! of below-gate requests at the queue front is coalesced into one tagged
//! batch, up to `max_batch_bytes`. Claims are strictly FIFO — a batch is a
//! prefix of its lane, so no request overtakes another. Claimed requests
//! leave the bounded queue immediately, so admission capacity frees as
//! soon as a batch starts. A batch's counters are published before its
//! replies are sent. Shutdown drains every queued request before the
//! executors exit; an accepted request always gets a reply.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccsort_parallel::RadixSortConfig;

use crate::batch::{
    reply_all, BatchOutcome, KeysLaneScratch, LaneQueue, PairsLaneScratch, Request, Ticket,
};

/// Configuration for [`SortService::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum queued (accepted but unclaimed) requests across all lanes;
    /// submissions beyond it are rejected explicitly.
    pub queue_limit: usize,
    /// Flush a lane once its queued key+payload bytes reach this; also the
    /// most a coalesced batch may hold. The default keeps a widened batch
    /// (keys, tags and their flip buffers) cache-resident; requests of
    /// [`crate::batch::COALESCE_GATE_KEYS`] keys or more are never
    /// coalesced, whatever this is set to.
    pub max_batch_bytes: usize,
    /// Flush a lane once its oldest request has waited this long, even if
    /// the byte threshold is not met. The latency cost of coalescing at
    /// low load is bounded by this window.
    pub max_wait_us: u64,
    /// Executor threads. `0` is the deterministic test mode: nothing runs
    /// until the caller pumps [`SortService::drain_one`].
    pub executors: usize,
    /// Engine configuration for every sort the service runs, solo and
    /// coalesced batches alike.
    pub sort: RadixSortConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_limit: 4096,
            max_batch_bytes: 1 << 17,
            max_wait_us: 200,
            executors: 1,
            sort: RadixSortConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Check the configuration before any thread or queue exists, naming
    /// the offending field — same contract as `RadixSortConfig::validate`.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_limit == 0 {
            return Err("queue_limit = 0: the service could never accept a request".to_string());
        }
        if self.max_batch_bytes == 0 {
            return Err("max_batch_bytes = 0: a batch could never hold a key".to_string());
        }
        self.sort.validate().map_err(|e| format!("sort.{e}"))
    }
}

/// Why a submission was not accepted. Both variants hand the caller's
/// buffers back, so a retrying client reallocates nothing.
#[derive(Debug)]
pub enum SubmitError<K, P = ()> {
    /// The bounded queue is full; the request was NOT enqueued. `pending`
    /// is the queue depth observed at rejection time.
    Rejected { keys: Vec<K>, vals: Vec<P>, pending: usize },
    /// The service is shutting down and accepts no new work.
    ShuttingDown { keys: Vec<K>, vals: Vec<P> },
}

/// A point-in-time snapshot of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests rejected by admission control (explicitly, at submit time).
    pub rejected: u64,
    /// Requests completed (replied to).
    pub completed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Requests that shared a batch with at least one other request.
    pub coalesced_requests: u64,
    /// Total keys sorted across all batches.
    pub keys_sorted: u64,
    /// Engine-scratch buffer growths across all executors. Flat after
    /// warm-up = the data plane allocates nothing per request.
    pub scratch_reallocations: u64,
}

#[derive(Default)]
struct StatCounters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    coalesced_requests: AtomicU64,
    keys_sorted: AtomicU64,
    scratch_reallocations: AtomicU64,
}

impl StatCounters {
    fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced_requests: self.coalesced_requests.load(Ordering::Relaxed),
            keys_sorted: self.keys_sorted.load(Ordering::Relaxed),
            scratch_reallocations: self.scratch_reallocations.load(Ordering::Relaxed),
        }
    }
}

/// One queue per request shape. Requests only ever coalesce within their
/// own lane — mixing key widths in one batch would change key bytes.
struct State {
    u32s: LaneQueue<u32, ()>,
    u64s: LaneQueue<u64, ()>,
    pairs: LaneQueue<u64, u64>,
    /// Total queued requests across lanes (the admission-control bound).
    pending: usize,
    shutdown: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneKind {
    U32,
    U64,
    Pairs,
}

/// All per-executor reusable buffers, one set per lane.
#[derive(Default)]
struct ExecScratch {
    u32s: KeysLaneScratch<u32>,
    u64s: KeysLaneScratch<u64>,
    pairs: PairsLaneScratch,
    /// Realloc total already published to the shared counter.
    reported: u64,
}

impl ExecScratch {
    fn reallocations(&self) -> u64 {
        self.u32s.reallocations() + self.u64s.reallocations() + self.pairs.reallocations()
    }
}

struct Shared {
    cfg: ServiceConfig,
    state: Mutex<State>,
    work: Condvar,
    stats: StatCounters,
    /// Scratch for inline draining (`executors: 0` mode and final drain).
    inline: Mutex<ExecScratch>,
}

/// Is this lane ready to flush? Returns the enqueue time of its oldest
/// request when it is — the tiebreaker for picking among ready lanes.
fn lane_ready<K, P>(
    lane: &LaneQueue<K, P>,
    cfg: &ServiceConfig,
    now: Instant,
    force: bool,
) -> Option<Instant> {
    let front = lane.q.front()?.enqueued;
    let waited = now.saturating_duration_since(front);
    let ready = force
        || lane.bytes >= cfg.max_batch_bytes
        || waited >= Duration::from_micros(cfg.max_wait_us);
    ready.then_some(front)
}

/// Pick the ready lane whose oldest request has waited longest (FIFO
/// across lanes, deterministic given queue contents). `force` treats any
/// nonempty lane as ready — used by shutdown drains and `drain_one`.
fn pick_ready(st: &State, cfg: &ServiceConfig, now: Instant, force: bool) -> Option<LaneKind> {
    let candidates = [
        (lane_ready(&st.u32s, cfg, now, force), LaneKind::U32),
        (lane_ready(&st.u64s, cfg, now, force), LaneKind::U64),
        (lane_ready(&st.pairs, cfg, now, force), LaneKind::Pairs),
    ];
    candidates
        .into_iter()
        .filter_map(|(t, k)| t.map(|t| (t, k)))
        .min_by_key(|(t, _)| *t)
        .map(|(_, k)| k)
}

/// The enqueue time of the oldest request in any lane (for computing how
/// long an idle executor may sleep before a flush window expires).
fn earliest_front(st: &State) -> Option<Instant> {
    [
        st.u32s.q.front().map(|r| r.enqueued),
        st.u64s.q.front().map(|r| r.enqueued),
        st.pairs.q.front().map(|r| r.enqueued),
    ]
    .into_iter()
    .flatten()
    .min()
}

/// Move one batch out of `st` into the executor's scratch.
fn claim(st: &mut State, kind: LaneKind, cfg: &ServiceConfig, scratch: &mut ExecScratch) {
    let b = cfg.max_batch_bytes;
    let taken = match kind {
        LaneKind::U32 => st.u32s.claim_into(b, &mut scratch.u32s.claimed),
        LaneKind::U64 => st.u64s.claim_into(b, &mut scratch.u64s.claimed),
        LaneKind::Pairs => st.pairs.claim_into(b, &mut scratch.pairs.claimed),
    };
    st.pending -= taken;
}

/// Sort the claimed batch, publish its outcome to the counters, then send
/// the replies — in that order, so a client that has its reply reads stats
/// that include its own request.
fn run_claimed(shared: &Shared, kind: LaneKind, scratch: &mut ExecScratch) {
    let cfg = &shared.cfg.sort;
    let outcome: BatchOutcome = match kind {
        LaneKind::U32 => scratch.u32s.sort(cfg),
        LaneKind::U64 => scratch.u64s.sort(cfg),
        LaneKind::Pairs => scratch.pairs.sort(cfg),
    };
    let s = &shared.stats;
    s.batches.fetch_add(1, Ordering::Relaxed);
    s.completed.fetch_add(outcome.requests, Ordering::Relaxed);
    if outcome.requests > 1 {
        s.coalesced_requests.fetch_add(outcome.requests, Ordering::Relaxed);
    }
    s.keys_sorted.fetch_add(outcome.keys, Ordering::Relaxed);
    let total = scratch.reallocations();
    s.scratch_reallocations.fetch_add(total - scratch.reported, Ordering::Relaxed);
    scratch.reported = total;
    // The reply channel's send/recv pair orders the relaxed updates above
    // before anything the requester does after `Ticket::wait` returns.
    match kind {
        LaneKind::U32 => reply_all(&mut scratch.u32s.claimed),
        LaneKind::U64 => reply_all(&mut scratch.u64s.claimed),
        LaneKind::Pairs => reply_all(&mut scratch.pairs.claimed),
    }
}

fn executor_loop(shared: &Shared) {
    let mut scratch = ExecScratch::default();
    loop {
        let claimed = {
            let mut st = shared.state.lock().unwrap();
            loop {
                let now = Instant::now();
                if let Some(kind) = pick_ready(&st, &shared.cfg, now, st.shutdown) {
                    claim(&mut st, kind, &shared.cfg, &mut scratch);
                    break Some(kind);
                }
                if st.shutdown {
                    // Not ready + forced pick failed = every lane empty.
                    break None;
                }
                let deadline = earliest_front(&st)
                    .map(|t| t + Duration::from_micros(shared.cfg.max_wait_us));
                match deadline {
                    Some(dl) => {
                        let now = Instant::now();
                        if dl <= now {
                            continue; // window expired while we computed
                        }
                        st = shared.work.wait_timeout(st, dl - now).unwrap().0;
                    }
                    None => st = shared.work.wait(st).unwrap(),
                }
            }
        };
        match claimed {
            Some(kind) => run_claimed(shared, kind, &mut scratch),
            None => return,
        }
    }
}

/// The sorting service. Shareable across client threads by reference
/// (`submit_*` takes `&self`); accepted work is completed even through
/// shutdown.
pub struct SortService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl SortService {
    /// Validate `cfg` and start the executor pool.
    pub fn start(cfg: ServiceConfig) -> Result<SortService, String> {
        cfg.validate()?;
        let executors = cfg.executors;
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(State {
                u32s: LaneQueue::default(),
                u64s: LaneQueue::default(),
                pairs: LaneQueue::default(),
                pending: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            stats: StatCounters::default(),
            inline: Mutex::new(ExecScratch::default()),
        });
        let workers = (0..executors)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ccsort-svc-{i}"))
                    .spawn(move || executor_loop(&shared))
                    .map_err(|e| format!("spawning executor {i}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SortService { shared, workers })
    }

    fn submit_with<K, P>(
        &self,
        keys: Vec<K>,
        vals: Vec<P>,
        lane: impl FnOnce(&mut State) -> &mut LaneQueue<K, P>,
    ) -> Result<Ticket<K, P>, SubmitError<K, P>> {
        let (tx, rx) = mpsc::channel();
        let notify;
        {
            let mut st = self.shared.state.lock().unwrap();
            if st.shutdown {
                return Err(SubmitError::ShuttingDown { keys, vals });
            }
            if st.pending >= self.shared.cfg.queue_limit {
                self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Rejected { keys, vals, pending: st.pending });
            }
            let q = lane(&mut st);
            let was_empty = q.q.is_empty();
            let bytes_before = q.bytes;
            q.push(Request { keys, vals, reply: tx, enqueued: Instant::now() });
            // Wake an executor only on a transition it must act on: the
            // lane became nonempty (an idle pool must arm the flush-window
            // deadline), or this push crossed the byte threshold (the lane
            // just became claimable). Anything else would wake an executor that re-checks, finds
            // no ready lane, and re-arms the same deadline — and under a
            // small-request flood those futile wake-ups timeshare against
            // the submitters and dominate the service's cycle budget.
            notify = was_empty
                || (bytes_before < self.shared.cfg.max_batch_bytes
                    && q.bytes >= self.shared.cfg.max_batch_bytes);
            st.pending += 1;
            self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        }
        if notify {
            self.shared.work.notify_one();
        }
        Ok(Ticket { rx })
    }

    /// Submit a keys-only `u32` sort. The vector is consumed and comes
    /// back sorted in the reply, so steady-state clients recycle buffers.
    pub fn submit_u32(&self, keys: Vec<u32>) -> Result<Ticket<u32>, SubmitError<u32>> {
        self.submit_with(keys, Vec::new(), |st| &mut st.u32s)
    }

    /// Submit a keys-only `u64` sort.
    pub fn submit_u64(&self, keys: Vec<u64>) -> Result<Ticket<u64>, SubmitError<u64>> {
        self.submit_with(keys, Vec::new(), |st| &mut st.u64s)
    }

    /// Submit a key+payload sort: `keys` and `vals` are parallel arrays
    /// and come back reordered together, stably.
    pub fn submit_pairs_u64(
        &self,
        keys: Vec<u64>,
        vals: Vec<u64>,
    ) -> Result<Ticket<u64, u64>, SubmitError<u64, u64>> {
        assert_eq!(keys.len(), vals.len(), "keys and values must be parallel arrays");
        self.submit_with(keys, vals, |st| &mut st.pairs)
    }

    /// Run one batch inline on the calling thread, treating any nonempty
    /// lane as ready (flush windows don't apply). With `executors: 0` this
    /// is the only pump, which makes batch boundaries — and therefore
    /// coalescing decisions — fully deterministic for tests.
    pub fn drain_one(&self) -> bool {
        let mut scratch = self.shared.inline.lock().unwrap();
        let claimed = {
            let mut st = self.shared.state.lock().unwrap();
            pick_ready(&st, &self.shared.cfg, Instant::now(), true).inspect(|&kind| {
                claim(&mut st, kind, &self.shared.cfg, &mut scratch);
            })
        };
        match claimed {
            Some(kind) => {
                run_claimed(&self.shared, kind, &mut scratch);
                true
            }
            None => false,
        }
    }

    /// Pump [`Self::drain_one`] until every queued request has completed.
    pub fn drain_all(&self) {
        while self.drain_one() {}
    }

    /// Current queue depth (accepted, not yet claimed into a batch).
    pub fn pending(&self) -> usize {
        self.shared.state.lock().unwrap().pending
    }

    /// Snapshot the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats.snapshot()
    }

    /// Stop accepting work, drain everything already accepted, stop the
    /// executors, and return the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        {
            self.shared.state.lock().unwrap().shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // With executors: 0 (or if an executor panicked) requests may
        // still be queued — drain them inline so every ticket resolves.
        self.drain_all();
    }
}

impl Drop for SortService {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = ccsort_rng::SplitMix64::seed_from_u64(seed);
        (0..n).map(|_| rng.random()).collect()
    }

    #[test]
    fn end_to_end_with_executors() {
        let svc = SortService::start(ServiceConfig {
            executors: 2,
            max_wait_us: 50,
            ..ServiceConfig::default()
        })
        .unwrap();
        let tickets: Vec<_> = (0..40)
            .map(|i| {
                let input = keys(200 + i, i as u64);
                let mut expect = input.clone();
                expect.sort_unstable();
                (svc.submit_u32(input).unwrap(), expect)
            })
            .collect();
        for (t, expect) in tickets {
            assert_eq!(t.wait().keys, expect);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 40);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn deterministic_drain_coalesces() {
        let svc = SortService::start(ServiceConfig {
            executors: 0,
            queue_limit: 64,
            max_batch_bytes: 1 << 20,
            ..ServiceConfig::default()
        })
        .unwrap();
        let tickets: Vec<_> =
            (0..8).map(|i| svc.submit_u32(keys(128, 100 + i)).unwrap()).collect();
        assert_eq!(svc.pending(), 8);
        assert!(svc.drain_one(), "a queued lane must be claimable");
        assert!(!svc.drain_one(), "everything fits one batch");
        for t in tickets {
            let r = t.wait();
            assert_eq!(r.batch_requests, 8);
            assert!(r.keys.windows(2).all(|w| w[0] <= w[1]));
        }
        let stats = svc.stats();
        assert_eq!((stats.batches, stats.coalesced_requests), (1, 8));
        svc.shutdown();
    }

    #[test]
    fn overload_rejects_explicitly_and_returns_buffers() {
        let svc = SortService::start(ServiceConfig {
            executors: 0,
            queue_limit: 3,
            ..ServiceConfig::default()
        })
        .unwrap();
        let mut tickets = Vec::new();
        for i in 0..3 {
            tickets.push(svc.submit_u32(keys(16, i)).unwrap());
        }
        let spilled = keys(16, 99);
        match svc.submit_u32(spilled.clone()) {
            Err(SubmitError::Rejected { keys: k, pending, .. }) => {
                assert_eq!(k, spilled, "rejected buffers come back untouched");
                assert_eq!(pending, 3);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(svc.stats().rejected, 1);
        svc.drain_all();
        for t in tickets {
            t.wait();
        }
        svc.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let svc =
            SortService::start(ServiceConfig { executors: 0, ..ServiceConfig::default() }).unwrap();
        let t = svc.submit_pairs_u64(vec![3, 1, 2], vec![30, 10, 20]).unwrap();
        let stats = svc.shutdown();
        let r = t.wait();
        assert_eq!((r.keys, r.vals), (vec![1, 2, 3], vec![10, 20, 30]));
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let svc =
            SortService::start(ServiceConfig { executors: 0, ..ServiceConfig::default() }).unwrap();
        {
            svc.shared.state.lock().unwrap().shutdown = true;
        }
        match svc.submit_u64(vec![2, 1]) {
            Err(SubmitError::ShuttingDown { keys, .. }) => assert_eq!(keys, vec![2, 1]),
            other => panic!("expected refusal, got {other:?}"),
        }
    }

    #[test]
    fn validation_names_the_offending_field() {
        assert!(ServiceConfig::default().validate().is_ok());
        let bad = ServiceConfig { queue_limit: 0, ..ServiceConfig::default() };
        assert!(bad.validate().unwrap_err().contains("queue_limit = 0"));
        let bad = ServiceConfig { max_batch_bytes: 0, ..ServiceConfig::default() };
        assert!(bad.validate().unwrap_err().contains("max_batch_bytes = 0"));
        let mut bad = ServiceConfig::default();
        bad.sort.radix_bits = 0;
        assert!(bad.validate().unwrap_err().contains("sort.radix_bits = 0"));
    }
}
