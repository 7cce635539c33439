//! The two simulator workloads: one whole `run_experiment` per op — key
//! generation, a fresh `Machine`, the sort program over its `Communicator`,
//! and the driver's own verification — for CC-SAS radix sort (scattered
//! remote writes) and MPI sample sort (streamed local sorts plus bulk
//! messages).
//!
//! Two clocks appear here and must not be mixed: *host* time is what the
//! simulator takes to run (everything under `core.*` and `machine.*_ns_*`),
//! *simulated* time is what the modelled Origin 2000 would take (`sim.*`).
//! Modelled caches start empty and statistics are collected from the first
//! access.

use std::time::Instant;

use ccsort_algos::dist::{self, Dist};
use ccsort_algos::{run_experiment, Algorithm, ExpConfig, ExpResult};
use ccsort_machine::{EventCounters, Machine, MachineConfig, Placement};

use crate::metrics::LayerValues;
use crate::runner::{OpCtx, OpSample, Workload, SMOKE_SLO_LIMIT_MS};
use crate::stats::median;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    RadixCcsas,
    SampleMpi,
}

/// Experiments that end every set-up.
const WARMUP_EXPERIMENTS: usize = 2;
/// Machine scale the experiment driver uses by default (caches, pages and
/// fixed software costs divided by 16).
const SCALE: usize = 16;
const RADIX_BITS: u32 = 8;
/// Program sections with a metric of their own; any other lands in `other`.
const SECTIONS: &[&str] = &[
    "histogram",
    "combine",
    "permute",
    "local-sort-1",
    "sampling",
    "splitters",
    "exchange",
    "local-sort-2",
];

fn sum_events(per_pe: &[EventCounters]) -> EventCounters {
    let mut total = EventCounters::default();
    for e in per_pe {
        total.add(e);
    }
    total
}

pub struct SimWorkload {
    cfg: ExpConfig,
    slo_limit_ms: f64,
    /// `parallel_ns` bits and summed event counters of the first op; every
    /// later op of the run must reproduce them exactly.
    first: Option<(u64, EventCounters)>,
    last: Option<ExpResult>,
    machine_new_s: f64,
    generate_s: f64,
}

impl SimWorkload {
    /// The first `Machine`, a replay of the key generation, and a
    /// fixed-count warm-up of whole experiments.
    pub fn set_up(program: Program, seed: u64, smoke: bool) -> Result<Self, String> {
        let (name, algorithm, slo_limit_ms) = match program {
            Program::RadixCcsas => ("sim_radix_ccsas", Algorithm::RadixCcsas, 510.0),
            Program::SampleMpi => ("sim_sample_mpi", Algorithm::SampleMpiDirect, 460.0),
        };
        let (n, p) = if smoke { (1 << 12, 4) } else { (1 << 20, 64) };
        let cfg = ExpConfig::new(algorithm, n, p).seed(seed);

        let t = Instant::now();
        let machine = Machine::try_new(MachineConfig::origin2000(p).scaled_down(SCALE))?;
        let machine_new_s = t.elapsed().as_secs_f64();
        drop(machine);
        let t = Instant::now();
        let keys = dist::generate(Dist::Gauss, n, p, RADIX_BITS, seed);
        let generate_s = t.elapsed().as_secs_f64();
        if keys.len() != n {
            return Err(format!(
                "{name}: dist::generate returned {} keys for n = {n}",
                keys.len()
            ));
        }

        let mut w = SimWorkload {
            cfg,
            slo_limit_ms: if smoke {
                SMOKE_SLO_LIMIT_MS
            } else {
                slo_limit_ms
            },
            first: None,
            last: None,
            machine_new_s,
            generate_s,
        };
        for index in 0..WARMUP_EXPERIMENTS as u32 {
            if !w
                .op(OpCtx {
                    index,
                    tracer: None,
                    corrupt: false,
                })
                .ok
            {
                return Err(format!(
                    "{name}: warm-up experiment {index} failed verification"
                ));
            }
        }
        Ok(w)
    }
}

impl Workload for SimWorkload {
    /// Simulated keys: `keys_per_s` is host throughput, keys simulated per
    /// second of wall clock.
    fn keys_per_op(&self) -> u64 {
        self.cfg.n as u64
    }

    fn slo_limit_ms(&self) -> f64 {
        self.slo_limit_ms
    }

    fn trace_ops(&self) -> usize {
        10
    }

    fn op(&mut self, ctx: OpCtx<'_>) -> OpSample {
        let t0 = Instant::now();
        let result = run_experiment(&self.cfg);
        let t1 = Instant::now();
        let mut observed = (result.parallel_ns.to_bits(), sum_events(&result.events));
        if ctx.corrupt {
            observed.0 ^= 1;
        }
        // Deterministic model: the driver's own verdict, and simulated time
        // and every event count identical to the run's first op.
        let ok = result.verified && observed == *self.first.get_or_insert(observed);
        self.last = Some(result);
        if let Some(tracer) = ctx.tracer {
            let op = Some(ctx.index);
            tracer.record("core.driver.run_experiment", t0, t1, None, op, 0);
            tracer.record("harness.verify", t1, Instant::now(), None, op, 0);
        }
        OpSample {
            latency_ns: (t1 - t0).as_nanos() as u64,
            ok,
        }
    }

    fn layers(&mut self, tracer: &mut Tracer, out: &mut LayerValues) -> Result<(), String> {
        let result = self.last.as_ref().expect("layers() follows the traced ops");
        let experiment_s = median(&tracer.durations_s("core.driver.run_experiment"));
        let events = sum_events(&result.events);
        let touches = events.touches();
        out.set("core.driver.experiment_ms", experiment_s * 1e3);
        out.set("core.dist.generate_ms", self.generate_s * 1e3);
        out.set("machine.new_ms", self.machine_new_s * 1e3);
        out.set(
            "machine.host_ns_per_touch",
            experiment_s * 1e9 / touches as f64,
        );

        out.set("machine.touches", touches as f64);
        out.set("machine.cache.l1_hits", events.l1_hits as f64);
        out.set("machine.cache.l2_hits", events.cache_hits as f64);
        out.set("machine.misses_local", events.misses_local as f64);
        out.set("machine.misses_remote", events.misses_remote as f64);
        out.set(
            "machine.miss_share",
            events.misses() as f64 / touches as f64,
        );
        out.set("machine.tlb.misses", events.tlb_misses as f64);
        out.set(
            "machine.directory.invalidations",
            events.invalidations as f64,
        );
        out.set(
            "machine.directory.interventions",
            events.interventions as f64,
        );
        out.set("machine.protocol.upgrades", events.upgrades as f64);
        out.set("machine.cache.writebacks", events.writebacks as f64);
        out.set("models.comm.messages", events.messages as f64);
        out.set("models.comm.message_bytes", events.message_bytes as f64);

        let mean = result.mean_breakdown();
        let total = mean.total();
        out.set(
            "sim.parallel_ns_per_key",
            result.parallel_ns / self.cfg.n as f64,
        );
        out.set("sim.busy_share", mean.busy / total);
        out.set("sim.lmem_share", mean.lmem / total);
        out.set("sim.rmem_share", mean.rmem / total);
        out.set("sim.sync_share", mean.sync / total);
        out.set("sim.imbalance", result.imbalance());
        let mut other = 0.0;
        for (section, breakdown) in &result.sections {
            let share = breakdown.total() / total;
            if SECTIONS.contains(&section.as_str()) {
                out.set(&format!("sim.section.{section}_share"), share);
            } else {
                other += share;
            }
        }
        out.set("sim.section.other_share", other);

        let (streamed, scattered) = machine_probes(tracer, self.cfg.n, self.cfg.p)?;
        out.set("machine.streamed_ns_per_line", streamed);
        out.set("machine.scattered_ns_per_line", scattered);
        Ok(())
    }
}

/// Host nanoseconds per line touch on a harness-built `Machine`, for the two
/// walks the simulator has: every PE streaming over its own partition
/// (`touch_run`), and every PE gathering from and scattering to
/// pseudo-random indices of the whole array (`gather_run` / `scatter_run`).
fn machine_probes(tracer: &mut Tracer, n: usize, p: usize) -> Result<(f64, f64), String> {
    const SWEEPS: usize = 4;
    const BATCH: usize = 1 << 12;
    let mut m = Machine::try_new(MachineConfig::origin2000(p).scaled_down(SCALE))?;
    let array = m.alloc(n, Placement::Partitioned { parts: p }, "probe");
    let touches = |m: &Machine| (0..p).map(|pe| m.events(pe).touches()).sum::<u64>();
    let part = n / p;

    let before = touches(&m);
    let ((), streamed_s) = tracer.probe("machine.machine.touch_run", || {
        for sweep in 0..SWEEPS {
            for pe in 0..p {
                m.touch_run(pe, array, pe * part, part, sweep % 2 == 1);
            }
            m.barrier();
        }
    });
    let streamed_lines = touches(&m) - before;

    // One LCG stream shared by all PEs: full period modulo 2^64, top bits used.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut indices = vec![0usize; BATCH];
    let mut values = vec![0u32; BATCH];
    let before = touches(&m);
    let ((), scattered_s) = tracer.probe("machine.machine.gather_scatter_run", || {
        for _ in 0..SWEEPS {
            for pe in 0..p {
                for slot in indices.iter_mut() {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    *slot = (state >> 33) as usize % n;
                }
                m.gather_run(pe, array, &indices, &mut values);
                m.scatter_run(pe, array, &indices, &values);
            }
            m.barrier();
        }
    });
    let scattered_lines = touches(&m) - before;
    if streamed_lines == 0 || scattered_lines == 0 {
        return Err("machine probes touched no lines".to_string());
    }
    Ok((
        streamed_s * 1e9 / streamed_lines as f64,
        scattered_s * 1e9 / scattered_lines as f64,
    ))
}
