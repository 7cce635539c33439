//! The measurement loop shared by all six workloads: repeated set-up, a
//! closed-loop timed window (or, traced, a fixed op count), and the
//! reduction of the samples to the registered metrics.

use std::path::PathBuf;
use std::time::Instant;

use crate::metrics::{LayerValues, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::{engine, procfs, service, sim, stats};

/// The six workloads, in the order `all` and `aa` run them. Why each
/// exists is in `BENCHMARK.json` and the README.
pub const WORKLOADS: &[&str] = &[
    "engine_u32_16m",
    "engine_pairs_skew_4m",
    "svc_lone_small",
    "svc_window_medium",
    "sim_radix_ccsas",
    "sim_sample_mpi",
];

/// Set-ups per untraced run; `setup_s` is their median, so one slow page-in
/// or a neighbour's burst during a single set-up does not move it.
const SETUPS: usize = 3;
/// Equal-op-count slices the timed window is cut into for `keys_per_s`.
const SLICES: usize = 10;
/// Fewest ops a full-size timed window is reported from. On a host too slow
/// to fit them into `--seconds` the window stays open until they are done,
/// or until `MAX_WINDOW_S`, when the run fails.
const MIN_OPS: usize = 50;
const MAX_WINDOW_S: f64 = 120.0;
/// Latency samples are kept in storage of this fixed size, allocated and
/// touched before the window opens, so `peak_rss_mb` does not grow with the
/// number of ops that happen to fit. A window that fills it ends early.
const SAMPLE_CAPACITY: usize = 1 << 20;
/// `slo_share` limit in `--smoke` mode, where sizes are too small for the
/// frozen limits to mean anything: only failed ops miss it.
pub const SMOKE_SLO_LIMIT_MS: f64 = 10_000.0;
/// The op whose output `--corrupt` damages. Not op 0: the simulator
/// workloads compare every op against the first.
const CORRUPT_OP: u32 = 1;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_file: Option<PathBuf>,
    pub smoke: bool,
    pub corrupt: bool,
}

/// One completed op: how long the caller waited and whether the output
/// passed the harness's checker.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub latency_ns: u64,
    pub ok: bool,
}

/// Per-op context handed to a workload.
pub struct OpCtx<'a> {
    pub index: u32,
    pub tracer: Option<&'a mut Tracer>,
    /// Damage this op's output before checking it (`--corrupt` self-test).
    pub corrupt: bool,
}

pub trait Workload {
    /// Keys one op sorts.
    fn keys_per_op(&self) -> u64;

    /// Latency limit behind `slo_share`: 2 × the seed commit's `op_p50_ms`,
    /// rounded to two significant figures and frozen.
    fn slo_limit_ms(&self) -> f64;

    /// Ops the traced run records spans for (it runs twice as many): a
    /// fixed count, so that counts taken there repeat exactly.
    fn trace_ops(&self) -> usize;

    /// Factor by which this run's times are multiplied before they are
    /// reported, for a workload that measures the host's speed while it
    /// runs; 1 for a workload that reports raw time.
    fn time_scale(&self) -> f64 {
        1.0
    }

    /// True when ops overlap in time (a window of outstanding requests):
    /// throughput is then taken against the wall clock instead of the sum
    /// of op latencies.
    fn overlapped(&self) -> bool {
        false
    }

    /// Run one op to completion, check its output outside the timed span,
    /// and report it.
    fn op(&mut self, ctx: OpCtx<'_>) -> OpSample;

    /// Complete one op that is still in flight after the window closed;
    /// `None` when nothing is. Sequential workloads never have any.
    fn drain_one(&mut self, _ctx: OpCtx<'_>) -> Option<OpSample> {
        None
    }

    /// Fill in this workload's per-layer metrics after the traced phase,
    /// running whatever extra probes they need. `Err` = a probe's output
    /// failed verification.
    fn layers(&mut self, tracer: &mut Tracer, out: &mut LayerValues) -> Result<(), String>;
}

fn set_up(opts: &Options) -> Result<Box<dyn Workload>, String> {
    let w: Box<dyn Workload> = match opts.workload.as_str() {
        "engine_u32_16m" => Box::new(engine::EngineWorkload::<engine::Keys>::set_up(
            opts.seed, opts.smoke,
        )?),
        "engine_pairs_skew_4m" => Box::new(engine::EngineWorkload::<engine::Pairs>::set_up(
            opts.seed, opts.smoke,
        )?),
        "svc_lone_small" => Box::new(service::ServiceWorkload::set_up(
            service::Shape::LoneSmall,
            opts.seed,
            opts.smoke,
        )?),
        "svc_window_medium" => Box::new(service::ServiceWorkload::set_up(
            service::Shape::WindowMedium,
            opts.seed,
            opts.smoke,
        )?),
        "sim_radix_ccsas" => Box::new(sim::SimWorkload::set_up(
            sim::Program::RadixCcsas,
            opts.seed,
            opts.smoke,
        )?),
        "sim_sample_mpi" => Box::new(sim::SimWorkload::set_up(
            sim::Program::SampleMpi,
            opts.seed,
            opts.smoke,
        )?),
        other => {
            return Err(format!(
                "unknown workload {other:?}; one of {}",
                WORKLOADS.join(", ")
            ))
        }
    };
    Ok(w)
}

/// What one run reports: the pipeline's result line plus the notes printed
/// above it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    if opts.trace {
        run_traced(opts)
    } else {
        run_timed(opts)
    }
}

struct Samples {
    latency_ns: Vec<u64>,
    /// The throughput clock when each op ended (see `Workload::overlapped`).
    end_ns: Vec<u64>,
    ok: Vec<bool>,
}

impl Samples {
    fn with_capacity(capacity: usize) -> Self {
        // vec![x; n] with x != 0 writes every page; clear() keeps them resident.
        fn touched<T: Clone>(fill: T, capacity: usize) -> Vec<T> {
            let mut v = vec![fill; capacity];
            v.clear();
            v
        }
        Samples {
            latency_ns: touched(1, capacity),
            end_ns: touched(1, capacity),
            ok: touched(true, capacity),
        }
    }

    fn push(&mut self, s: OpSample, end_ns: u64) {
        self.latency_ns.push(s.latency_ns);
        self.end_ns.push(end_ns);
        self.ok.push(s.ok);
    }

    fn len(&self) -> usize {
        self.latency_ns.len()
    }

    fn failed(&self) -> u64 {
        self.ok.iter().filter(|&&ok| !ok).count() as u64
    }
}

/// Run ops until `stop(ops done, seconds elapsed)`, then complete what is
/// still in flight. With a tracer, every other op records spans, so traced
/// and untraced ops see the same drift of the host and the gap between
/// their medians is what recording costs. Returns the wall time.
fn run_ops(
    w: &mut dyn Workload,
    samples: &mut Samples,
    mut tracer: Option<&mut Tracer>,
    corrupt: bool,
    mut stop: impl FnMut(usize, f64) -> bool,
) -> f64 {
    let overlapped = w.overlapped();
    let started = Instant::now();
    let mut clock_ns = 0u64;
    let mut draining = false;
    loop {
        let index = samples.len() as u32;
        draining |= stop(samples.len(), started.elapsed().as_secs_f64());
        let ctx = OpCtx {
            index,
            tracer: tracer.as_deref_mut().filter(|_| is_traced(index)),
            corrupt: corrupt && index == CORRUPT_OP,
        };
        let Some(s) = (if draining {
            w.drain_one(ctx)
        } else {
            Some(w.op(ctx))
        }) else {
            break;
        };
        clock_ns = if overlapped {
            started.elapsed().as_nanos() as u64
        } else {
            clock_ns + s.latency_ns
        };
        samples.push(s, clock_ns);
    }
    started.elapsed().as_secs_f64()
}

/// In a traced run the odd ops record spans and the even ones do not.
fn is_traced(index: u32) -> bool {
    index % 2 == 1
}

fn run_timed(opts: &Options) -> Result<Outcome, String> {
    let setups = if opts.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut workload = None;
    for _ in 0..setups {
        // The previous set-up's arrays go first, so peak memory is one set-up's.
        drop(workload.take());
        let t = Instant::now();
        workload = Some(set_up(opts)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up ran");
    let mut samples = Samples::with_capacity(SAMPLE_CAPACITY);

    let cpu_before = procfs::cpu_seconds();
    let min_ops = if opts.smoke { SLICES } else { MIN_OPS };
    let wall_s = run_ops(
        w.as_mut(),
        &mut samples,
        None,
        opts.corrupt,
        |done, elapsed| {
            (elapsed >= opts.seconds && done >= min_ops)
                || elapsed >= MAX_WINDOW_S
                || done >= SAMPLE_CAPACITY - 64
        },
    );
    let cpu_s = procfs::cpu_seconds() - cpu_before;

    let n = samples.len();
    if n < min_ops {
        return Err(format!(
            "only {n} ops fit in {wall_s:.0} s; {min_ops} are needed"
        ));
    }
    // Every time below is multiplied by the workload's scale (1 unless it
    // calibrates itself against the host's speed, see `Workload::time_scale`).
    let scale = w.time_scale();
    let failed = samples.failed();
    let keys = n as u64 * w.keys_per_op();
    let ms: Vec<f64> = samples
        .latency_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6 * scale)
        .collect();
    let slo_hits = ms
        .iter()
        .zip(&samples.ok)
        .filter(|&(&ms, &ok)| ok && ms <= w.slo_limit_ms())
        .count();
    let sorted_ms = stats::sorted(&ms);
    let (tail_q, tail_ms) = stats::tail_sorted(&sorted_ms);
    let value = |name: &str| match name {
        "keys_per_s" => stats::median_slice_rate(&samples.end_ns, w.keys_per_op(), SLICES) / scale,
        "op_p50_ms" => stats::median_sorted(&sorted_ms),
        "slo_share" => slo_hits as f64 / n as f64,
        "peak_rss_mb" => procfs::peak_rss_mib(),
        "setup_s" => stats::median(&setup_s) * scale,
        other => unreachable!("end-to-end metric {other} has no estimator"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect();
    let at = |q| stats::percentile_sorted(&sorted_ms, q);
    let notes = vec![
        format!("workload {} seed {} window {:.3} s (asked {} s)", opts.workload, opts.seed, wall_s, opts.seconds),
        format!("ops {n} failed {failed} fail_share {}", failed as f64 / n as f64),
        format!(
            "time scale {scale} (1 = raw wall time); cpu {cpu_s:.2} s raw over the window = {} us per key; set-ups {setup_s:?} s raw",
            cpu_s * 1e6 / keys as f64
        ),
        format!(
            "op latency ms from {n} samples: min {} p10 {} p25 {} p50 {} p75 {} p90 {} max {}",
            sorted_ms[0],
            at(0.10),
            at(0.25),
            at(0.50),
            at(0.75),
            at(0.90),
            sorted_ms[n - 1]
        ),
        format!("tail p{:.3} = {tail_ms} ms; latency limit {} ms", tail_q * 100.0, w.slo_limit_ms()),
    ];
    Ok(Outcome {
        correct: failed == 0,
        attempted: n as u64,
        failed,
        metrics,
        notes,
    })
}

fn run_traced(opts: &Options) -> Result<Outcome, String> {
    let mut w = set_up(opts)?;
    let ops = 2 * w.trace_ops();
    let mut samples = Samples::with_capacity(ops + 64);
    let mut tracer = Tracer::with_capacity(4 * ops + 1024);
    let cpu_before = procfs::cpu_seconds();
    run_ops(
        w.as_mut(),
        &mut samples,
        Some(&mut tracer),
        opts.corrupt,
        |done, _| done >= ops,
    );
    let cpu_s = procfs::cpu_seconds() - cpu_before;

    let half_ms = |traced: bool| -> Vec<f64> {
        let ns = samples
            .latency_ns
            .iter()
            .zip(0u32..)
            .filter(|&(_, i)| is_traced(i) == traced);
        stats::sorted(&ns.map(|(&ns, _)| ns as f64 / 1e6).collect::<Vec<_>>())
    };
    let (traced_ms, untraced_ms) = (half_ms(true), half_ms(false));
    let (tail_q, tail_ms) = stats::tail_sorted(&traced_ms);
    let mut layers = LayerValues::default();
    layers.set(
        "trace.overhead_share",
        stats::median_sorted(&traced_ms) / stats::median_sorted(&untraced_ms) - 1.0,
    );
    layers.set(
        "cpu_us_per_key",
        cpu_s * 1e6 / (samples.len() as u64 * w.keys_per_op()) as f64,
    );
    layers.set("op.samples", traced_ms.len() as f64);
    layers.set("op.tail_ms", tail_ms);
    layers.set("op.tail_quantile", tail_q);
    let failed = samples.failed();
    layers.set("fail_share", failed as f64 / samples.len() as f64);
    layers.set("calib.llc_mb", procfs::llc_mib());
    layers.set("calib.time_scale", w.time_scale());
    w.layers(&mut tracer, &mut layers)?;
    drop(w);

    let self_ms = tracer
        .self_time_by_name_ns()
        .map_err(|e| format!("trace does not nest: {e}"))?;
    let self_ms: Vec<String> = self_ms
        .iter()
        .map(|(name, ns)| format!("{name} {:.3}", *ns as f64 / 1e6))
        .collect();
    let mut notes = vec![format!(
        "workload {} seed {} traced: {} ops, every other one recorded, {} spans",
        opts.workload,
        opts.seed,
        samples.len(),
        tracer.spans().len()
    )];
    notes.push(format!(
        "self time ms by span (duration minus children): {}",
        self_ms.join(", ")
    ));
    if opts.workload.starts_with("sim_") {
        notes.push(
            "modelled caches start empty; statistics are collected from the first access"
                .to_string(),
        );
    }
    if let Some(path) = &opts.trace_file {
        std::fs::write(path, tracer.chrome_json(&opts.workload))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("Chrome trace written to {}", path.display()));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, layers.get(m.name), m.unit))
        .collect();
    Ok(Outcome {
        correct: failed == 0,
        attempted: samples.len() as u64,
        failed,
        metrics,
        notes,
    })
}
