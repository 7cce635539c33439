//! The metric registry: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` repeats these tables for the pipeline; a test
//! holds the two in step.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see; gated by `bound`, the share of
/// the parent's median by which it may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "keys_per_s",
        unit: "keys/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "slo_share",
        unit: "share",
        better: Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

/// A metric of one layer, from the traced run. Ungated. `exact` marks
/// counts and model outputs that must repeat bit for bit under one seed.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// Simulated-time shares have no better or worse; "lower" is a placeholder
/// the schema requires.
pub const PER_LAYER: &[Layer] = &[
    // Harness calibration and the op distribution of the traced run.
    timed("calib.memcpy_gbps", "GB/s", Higher),
    timed("calib.time_scale", "share", Higher),
    timed("calib.std_sort_ms", "ms", Lower),
    exact("calib.llc_mb", "MiB", Higher),
    timed("trace.overhead_share", "share", Lower),
    exact("op.samples", "count", Higher),
    timed("op.tail_ms", "ms", Lower),
    exact("op.tail_quantile", "share", Higher),
    exact("fail_share", "share", Lower),
    timed("cpu_us_per_key", "us", Lower),
    // ccsort-parallel: radix.rs, histogram.rs, steal.rs, seq.rs.
    timed("parallel.radix.sort_ms", "ms", Lower),
    timed("parallel.radix.simple_ms", "ms", Lower),
    timed("parallel.radix.t1_ms", "ms", Lower),
    timed("parallel.radix.first_sort_ms", "ms", Lower),
    exact("parallel.radix.scratch_reallocs", "count", Lower),
    exact("parallel.radix.array_mb", "MiB", Lower),
    exact("parallel.radix.bytes_moved_computed", "bytes", Lower),
    timed("parallel.radix.roofline_share", "share", Higher),
    timed("parallel.histogram.multi_ms", "ms", Lower),
    timed("parallel.histogram.single_ms", "ms", Lower),
    timed("parallel.steal.claim_ns", "ns", Lower),
    exact("parallel.steal.claims", "count", Lower),
    timed("parallel.seq.sort_ms", "ms", Lower),
    // ccsort-service: service.rs, batch.rs.
    timed("service.start_ms", "ms", Lower),
    timed("service.shutdown_ms", "ms", Lower),
    timed("service.submit_us", "us", Lower),
    timed("service.queue_sort_us", "us", Lower),
    timed("service.reply_wake_us", "us", Lower),
    timed("service.engine_solo_us", "us", Lower),
    timed("service.overhead_share", "share", Lower),
    timed("service.inflight_mean", "count", Higher),
    timed("service.lat_p99_ms", "ms", Lower),
    timed("service.lat_p999_ms", "ms", Lower),
    timed("service.batch.mean_requests", "count", Higher),
    timed("service.batches", "count", Lower),
    timed("service.coalesced_requests", "count", Higher),
    exact("service.keys_sorted", "count", Higher),
    exact("service.rejected", "count", Lower),
    timed("service.scratch_reallocs", "count", Lower),
    // ccsort-algos (driver.rs, dist.rs) and the simulator's host time.
    timed("core.driver.experiment_ms", "ms", Lower),
    timed("core.dist.generate_ms", "ms", Lower),
    timed("machine.new_ms", "ms", Lower),
    timed("machine.host_ns_per_touch", "ns", Lower),
    timed("machine.streamed_ns_per_line", "ns", Lower),
    timed("machine.scattered_ns_per_line", "ns", Lower),
    // Modelled components: exact event counts summed over PEs.
    exact("machine.touches", "count", Lower),
    exact("machine.cache.l1_hits", "count", Higher),
    exact("machine.cache.l2_hits", "count", Higher),
    exact("machine.misses_local", "count", Lower),
    exact("machine.misses_remote", "count", Lower),
    exact("machine.miss_share", "share", Lower),
    exact("machine.tlb.misses", "count", Lower),
    exact("machine.directory.invalidations", "count", Lower),
    exact("machine.directory.interventions", "count", Lower),
    exact("machine.protocol.upgrades", "count", Lower),
    exact("machine.cache.writebacks", "count", Lower),
    exact("models.comm.messages", "count", Lower),
    exact("models.comm.message_bytes", "bytes", Lower),
    // Simulated time: a model output, exact, with no direction.
    exact("sim.parallel_ns_per_key", "ns", Lower),
    exact("sim.busy_share", "share", Lower),
    exact("sim.lmem_share", "share", Lower),
    exact("sim.rmem_share", "share", Lower),
    exact("sim.sync_share", "share", Lower),
    exact("sim.imbalance", "share", Lower),
    exact("sim.section.histogram_share", "share", Lower),
    exact("sim.section.combine_share", "share", Lower),
    exact("sim.section.permute_share", "share", Lower),
    exact("sim.section.local-sort-1_share", "share", Lower),
    exact("sim.section.sampling_share", "share", Lower),
    exact("sim.section.splitters_share", "share", Lower),
    exact("sim.section.exchange_share", "share", Lower),
    exact("sim.section.local-sort-2_share", "share", Lower),
    exact("sim.section.other_share", "share", Lower),
];

/// Values of the per-layer metrics for one traced run. Starts with every
/// registered name at 0 — the value a workload reports for layers it does
/// not touch — and refuses names the registry does not know.
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl Default for LayerValues {
    fn default() -> Self {
        LayerValues(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }
}

impl LayerValues {
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unregistered per-layer metric {name}"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_schema_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate metric name");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for name in names {
            assert!(
                name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
