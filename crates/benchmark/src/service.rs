//! The two service workloads: one client of `ccsort-service`, closed loop,
//! with one small request outstanding (`svc_lone_small`) or a window of
//! sixteen medium ones (`svc_window_medium`).
//!
//! Layer names are the service's modules: `service.service` (start, submit,
//! queue, reply) and `service.batch` (how requests were grouped).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use ccsort_parallel::{par_radix_sort_with_scratch, seq_radix_sort, RadixSortConfig, SortScratch};
use ccsort_service::{ServiceConfig, ServiceStats, SortService, Ticket};

use crate::check::{keys_ok, Fingerprint};
use crate::gen::{uniform_u32, SplitMix64};
use crate::metrics::LayerValues;
use crate::runner::{OpCtx, OpSample, Workload, SMOKE_SLO_LIMIT_MS};
use crate::stats::{median, percentile_sorted, sorted};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    LoneSmall,
    WindowMedium,
}

struct Sizes {
    name: &'static str,
    request_keys: usize,
    /// Requests the client keeps outstanding.
    window: usize,
    /// Distinct pre-generated requests the client cycles through.
    pool: usize,
    /// Requests served before a set-up counts as done.
    warmup_requests: usize,
    trace_requests: usize,
    slo_limit_ms: f64,
}

impl Shape {
    fn sizes(self, smoke: bool) -> Sizes {
        let mut s = match self {
            Shape::LoneSmall => Sizes {
                name: "svc_lone_small",
                request_keys: 1 << 10,
                window: 1,
                pool: 256,
                warmup_requests: 4000,
                trace_requests: 2000,
                slo_limit_ms: 0.57,
            },
            Shape::WindowMedium => Sizes {
                name: "svc_window_medium",
                request_keys: 1 << 14,
                window: 16,
                pool: 64,
                warmup_requests: 4000,
                trace_requests: 2000,
                slo_limit_ms: 13.0,
            },
        };
        if smoke {
            s.request_keys = s.request_keys.min(1 << 12);
            s.pool = 16;
            s.warmup_requests = 200;
            s.trace_requests = 200;
            s.slo_limit_ms = SMOKE_SLO_LIMIT_MS;
        }
        s
    }
}

/// One executor sorting on its own thread, so client + executor are the two
/// runnable threads the two-core host has room for.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        executors: 1,
        sort: RadixSortConfig {
            chunks: Some(1),
            ..RadixSortConfig::default()
        },
        ..ServiceConfig::default()
    }
}

struct Pending {
    ticket: Ticket<u32>,
    pool_index: usize,
    started: Instant,
    submitted: Instant,
    op: u32,
}

pub struct ServiceWorkload {
    sizes: Sizes,
    svc: Option<SortService>,
    pool: Vec<Vec<u32>>,
    fingerprints: Vec<Fingerprint>,
    /// Reply buffers waiting to carry the next request: steady state, the
    /// client allocates nothing.
    spare: Vec<Vec<u32>>,
    inflight: VecDeque<Pending>,
    submissions: u64,
    inflight_sum: u64,
    batch_requests_sum: u64,
    stats_after_setup: ServiceStats,
    start_s: f64,
}

impl ServiceWorkload {
    /// Request pool and its fingerprints, `SortService::start`, and a
    /// fixed-count warm-up through the service.
    pub fn set_up(shape: Shape, seed: u64, smoke: bool) -> Result<Self, String> {
        let sizes = shape.sizes(smoke);
        let mut seeds = SplitMix64::new(seed);
        let pool: Vec<Vec<u32>> = (0..sizes.pool)
            .map(|_| uniform_u32(seeds.next_u64(), sizes.request_keys))
            .collect();
        let fingerprints = pool
            .iter()
            .map(|request| {
                let mut reference = request.clone();
                reference.sort_unstable();
                Fingerprint::of(&reference)
            })
            .collect();
        let spare = (0..sizes.window)
            .map(|_| vec![0u32; sizes.request_keys])
            .collect();

        let t = Instant::now();
        let svc = SortService::start(service_config())
            .map_err(|e| format!("{}: start: {e}", sizes.name))?;
        let start_s = t.elapsed().as_secs_f64();
        let mut w = ServiceWorkload {
            svc: Some(svc),
            pool,
            fingerprints,
            spare,
            inflight: VecDeque::with_capacity(sizes.window),
            submissions: 0,
            inflight_sum: 0,
            batch_requests_sum: 0,
            stats_after_setup: ServiceStats::default(),
            start_s,
            sizes,
        };
        let untraced = |index| OpCtx {
            index,
            tracer: None,
            corrupt: false,
        };
        let mut all_ok = true;
        for index in 0..w.sizes.warmup_requests as u32 {
            all_ok &= w.op(untraced(index)).ok;
        }
        while let Some(sample) = w.drain_one(untraced(0)) {
            all_ok &= sample.ok;
        }
        if !all_ok {
            return Err(format!(
                "{}: a warm-up reply failed verification",
                w.sizes.name
            ));
        }
        // The executor publishes a batch's counters after it has sent the
        // replies: wait for the last warm-up batch's, or they would be
        // counted among the ops'.
        let warmup_keys = w.submissions * w.sizes.request_keys as u64;
        let deadline = Instant::now() + Duration::from_secs(1);
        while w.service().stats().keys_sorted < warmup_keys && Instant::now() < deadline {
            std::thread::yield_now();
        }
        // The per-layer counts start here: they cover the ops, not the warm-up.
        w.stats_after_setup = w.service().stats();
        (w.submissions, w.inflight_sum, w.batch_requests_sum) = (0, 0, 0);
        Ok(w)
    }

    fn service(&self) -> &SortService {
        self.svc
            .as_ref()
            .expect("the service runs until the shutdown probe")
    }

    /// Copy the next pool request into a recycled buffer (untimed) and
    /// submit it. `false` = the service refused it.
    fn submit(&mut self, op: u32) -> bool {
        let pool_index = self.submissions as usize % self.pool.len();
        let mut keys = self
            .spare
            .pop()
            .unwrap_or_else(|| vec![0; self.sizes.request_keys]);
        keys.copy_from_slice(&self.pool[pool_index]);
        let started = Instant::now();
        let submitted = self.service().submit_u32(keys);
        let Ok(ticket) = submitted else { return false };
        self.inflight.push_back(Pending {
            ticket,
            pool_index,
            started,
            submitted: Instant::now(),
            op,
        });
        self.submissions += 1;
        self.inflight_sum += self.inflight.len() as u64;
        true
    }

    /// Wait for the oldest outstanding request and check its reply.
    fn complete(&mut self, tracer: Option<&mut Tracer>, corrupt: bool) -> OpSample {
        let p = self
            .inflight
            .pop_front()
            .expect("complete() follows a successful submit");
        let mut reply = p.ticket.wait();
        let done = Instant::now();
        if corrupt {
            reply.keys[0] ^= 1 << 31;
        }
        let ok = keys_ok(&reply.keys, self.fingerprints[p.pool_index]);
        self.batch_requests_sum += u64::from(reply.batch_requests);
        if let Some(tracer) = tracer {
            // The executor may stamp `completed` before submit_u32 has
            // returned to a descheduled client; clamp so the stages tile the op.
            let completed = reply.completed.clamp(p.submitted, done);
            let (op, lane) = (Some(p.op), p.op % self.sizes.window as u32);
            let parent = Some(tracer.record("service.request", p.started, done, None, op, lane));
            tracer.record(
                "service.service.submit",
                p.started,
                p.submitted,
                parent,
                op,
                lane,
            );
            tracer.record(
                "service.service.queue_sort",
                p.submitted,
                completed,
                parent,
                op,
                lane,
            );
            tracer.record(
                "service.service.reply_wake",
                completed,
                done,
                parent,
                op,
                lane,
            );
        }
        self.spare.push(reply.keys);
        OpSample {
            latency_ns: (done - p.started).as_nanos() as u64,
            ok,
        }
    }
}

impl Workload for ServiceWorkload {
    fn keys_per_op(&self) -> u64 {
        self.sizes.request_keys as u64
    }

    fn slo_limit_ms(&self) -> f64 {
        self.sizes.slo_limit_ms
    }

    fn trace_ops(&self) -> usize {
        self.sizes.trace_requests
    }

    fn overlapped(&self) -> bool {
        self.sizes.window > 1
    }

    /// Top the window up, then wait for the oldest request: one completed
    /// request per call, `window` of them in flight in between.
    fn op(&mut self, ctx: OpCtx<'_>) -> OpSample {
        let mut next = ctx.index + self.inflight.len() as u32;
        while self.inflight.len() < self.sizes.window {
            if !self.submit(next) {
                return OpSample {
                    latency_ns: 0,
                    ok: false,
                };
            }
            next += 1;
        }
        self.complete(ctx.tracer, ctx.corrupt)
    }

    fn drain_one(&mut self, ctx: OpCtx<'_>) -> Option<OpSample> {
        (!self.inflight.is_empty()).then(|| self.complete(ctx.tracer, ctx.corrupt))
    }

    fn layers(&mut self, tracer: &mut Tracer, out: &mut LayerValues) -> Result<(), String> {
        let stage_us = |name: &str| median(&tracer.durations_s(name)) * 1e6;
        let latency_ms = sorted(
            &tracer
                .durations_s("service.request")
                .iter()
                .map(|s| s * 1e3)
                .collect::<Vec<_>>(),
        );
        let op_p50_us = crate::stats::median_sorted(&latency_ms) * 1e3;
        out.set("service.submit_us", stage_us("service.service.submit"));
        out.set(
            "service.queue_sort_us",
            stage_us("service.service.queue_sort"),
        );
        out.set(
            "service.reply_wake_us",
            stage_us("service.service.reply_wake"),
        );
        out.set("service.lat_p99_ms", percentile_sorted(&latency_ms, 0.99));
        out.set("service.lat_p999_ms", percentile_sorted(&latency_ms, 0.999));
        out.set(
            "service.inflight_mean",
            self.inflight_sum as f64 / self.submissions as f64,
        );
        out.set(
            "service.batch.mean_requests",
            self.batch_requests_sum as f64 / self.submissions as f64,
        );
        out.set("service.start_ms", self.start_s * 1e3);

        let before = self.stats_after_setup;
        let svc = self.svc.take().expect("layers() runs once");
        let (after, shutdown_s) = tracer.probe("service.service.shutdown", || svc.shutdown());
        out.set("service.shutdown_ms", shutdown_s * 1e3);
        out.set("service.batches", (after.batches - before.batches) as f64);
        out.set(
            "service.coalesced_requests",
            (after.coalesced_requests - before.coalesced_requests) as f64,
        );
        out.set(
            "service.keys_sorted",
            (after.keys_sorted - before.keys_sorted) as f64,
        );
        out.set(
            "service.rejected",
            (after.rejected - before.rejected) as f64,
        );
        out.set(
            "service.scratch_reallocs",
            (after.scratch_reallocations - before.scratch_reallocations) as f64,
        );

        // The work no request can avoid: each pool request sorted by a direct
        // call, through the same engine configuration the service runs.
        let cfg = service_config().sort;
        let mut scratch = SortScratch::<u32>::new();
        let mut buf = vec![0u32; self.sizes.request_keys];
        let (mut solo_s, mut seq_s, mut std_s) = (Vec::new(), Vec::new(), Vec::new());
        for (request, &fingerprint) in self.pool.iter().zip(&self.fingerprints) {
            let mut timed = |span: &'static str, sort: &mut dyn FnMut(&mut [u32])| {
                buf.copy_from_slice(request);
                let ((), s) = tracer.probe(span, || sort(&mut buf));
                if keys_ok(&buf, fingerprint) {
                    Ok(s)
                } else {
                    Err(format!(
                        "{}: probe {span} failed verification",
                        self.sizes.name
                    ))
                }
            };
            solo_s.push(timed("parallel.radix.sort[solo]", &mut |keys| {
                par_radix_sort_with_scratch(keys, &cfg, &mut scratch)
            })?);
            seq_s.push(timed("parallel.seq.radix_sort", &mut |keys| {
                seq_radix_sort(keys, 8)
            })?);
            std_s.push(timed("std.sort_unstable", &mut |keys| {
                keys.sort_unstable()
            })?);
        }
        let solo_us = median(&solo_s) * 1e6;
        out.set("service.engine_solo_us", solo_us);
        out.set("service.overhead_share", 1.0 - solo_us / op_p50_us);
        out.set("parallel.seq.sort_ms", median(&seq_s) * 1e3);
        out.set("calib.std_sort_ms", median(&std_s) * 1e3);
        Ok(())
    }
}
