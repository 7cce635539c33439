//! `svcbench` — sustained-load benchmark of the sorting service, the
//! service-layer counterpart of `realbench`.
//!
//! The grid drives the service with a deterministic open-loop load
//! generator across request-size mixes and measures the one claim the
//! coalescing batcher makes: merging many small concurrent sort requests
//! into shared batches amortises per-request fixed costs (executor
//! wake-ups, locking, histogram setup) and therefore raises sustained
//! throughput. Every cell is measured twice — `coalesced` (the batcher)
//! and `baseline` (coalescing off: one request per batch, served
//! immediately) — so the speedup is measured, not asserted.
//!
//! Two load shapes per mix:
//!
//! * `saturate` — submit the whole request set as fast as admission
//!   allows (queue sized to hold it) and time until the last reply; the
//!   peak-throughput cell. Latency percentiles in this shape are
//!   queue-depth-dominated and reported only for completeness.
//! * `rate:<R>` — arrivals on a fixed schedule of `R` requests/s with a
//!   bounded queue; rejected arrivals are load-shed (counted, not
//!   retried). Latency is measured from the *intended* arrival time, so
//!   coordinated omission cannot flatter a slow mode, and percentiles are
//!   reported in microseconds.
//!
//! Measurement discipline matches `realbench`: `reps` interleaved
//! repetitions per cell, best wall time wins, and on the first repetition
//! every request's reply is verified byte-identical to a solo
//! `ccsort-parallel` sort of the same input before any time is accepted.

use std::time::{Duration, Instant};

use ccsort_parallel::{par_radix_sort_pairs_with, par_radix_sort_with};
use ccsort_rng::SplitMix64;
use ccsort_service::{ServiceConfig, SortService, SubmitError, Ticket};

use crate::realbench::available_cores;

/// Key/payload shape of a mix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MixKind {
    /// Keys-only `u32` requests.
    U32,
    /// `u64` keys with `u64` payloads through the pairs lane.
    PairsU64,
}

/// A request-size mix: how large the individual sort requests are.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub name: &'static str,
    pub kind: MixKind,
    /// Request sizes are drawn deterministically from `min_keys..=max_keys`.
    pub min_keys: usize,
    pub max_keys: usize,
    /// Requests per repetition (full grid).
    pub requests: usize,
}

/// The mixes the committed artifact covers. `small` is the
/// high-concurrency/many-tiny-requests regime the batcher exists for.
/// `medium` and `large` sit above the service's size gate
/// (`COALESCE_GATE_KEYS`): their requests already amortise their own
/// fixed costs, so the service sorts each alone and the coalesced mode
/// must simply not lose to the baseline there.
pub const MIXES: &[Mix] = &[
    Mix {
        name: "small_u32",
        kind: MixKind::U32,
        min_keys: 16,
        max_keys: 128,
        requests: 8000,
    },
    Mix {
        name: "small_pairs",
        kind: MixKind::PairsU64,
        min_keys: 16,
        max_keys: 128,
        requests: 4000,
    },
    Mix {
        name: "medium_u32",
        kind: MixKind::U32,
        min_keys: 1024,
        max_keys: 4096,
        requests: 800,
    },
    Mix {
        name: "large_u32",
        kind: MixKind::U32,
        min_keys: 16384,
        max_keys: 65536,
        requests: 60,
    },
];

/// One measured grid cell.
#[derive(Clone, Debug)]
pub struct SvcRow {
    pub mix: &'static str,
    pub mode: &'static str,
    pub load: String,
    pub requests: usize,
    pub accepted: u64,
    pub rejected: u64,
    pub reps: usize,
    pub best_wall_s: f64,
    pub req_per_sec: f64,
    pub mkeys_per_sec: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub mean_batch_requests: f64,
    pub scratch_reallocations: u64,
    pub verified: bool,
}

/// Bench options: the grid and the measurement discipline.
pub struct SvcBenchOpts {
    /// Scale factor applied to every mix's request count (1 = full grid).
    pub scale: usize,
    /// Interleaved repetitions per cell; best wall time wins.
    pub reps: usize,
    /// Fixed arrival rates (requests/s) for the small_u32 latency cells.
    pub rates: Vec<u64>,
}

impl SvcBenchOpts {
    /// The committed-artifact grid.
    pub fn full() -> Self {
        SvcBenchOpts {
            scale: 1,
            reps: 3,
            rates: vec![5_000, 20_000],
        }
    }

    /// The CI grid: quarter-size request sets, one latency rate.
    pub fn quick() -> Self {
        SvcBenchOpts {
            scale: 4,
            reps: 3,
            rates: vec![5_000],
        }
    }
}

/// The service configuration under test: `ServiceConfig::default()` — batch
/// byte cap, flush window, size gate, engine entry and one executor as
/// shipped — plus the two things the grid itself decides: a queue deep
/// enough for the load shape, and the mode switch. A default that loses to
/// its own baseline shows up here, not behind a private tuning.
fn service_config(coalescing: bool, queue_limit: usize) -> ServiceConfig {
    ServiceConfig {
        queue_limit,
        coalescing,
        ..ServiceConfig::default()
    }
}

/// Deterministic per-request spec: size and content seed.
fn request_specs(mix: &Mix, scale: usize) -> Vec<(usize, u64)> {
    let count = (mix.requests / scale).max(8);
    let mut s =
        SplitMix64::seed_from_u64(0x5EED_0000 ^ (mix.name.len() as u64) << 32 ^ mix.min_keys as u64);
    (0..count)
        .map(|_| {
            let span = (mix.max_keys - mix.min_keys + 1) as u64;
            let n = mix.min_keys + (s.next_u64() % span) as usize;
            (n, s.next_u64())
        })
        .collect()
}

fn gen_keys_u32(n: usize, seed: u64) -> Vec<u32> {
    let mut s = SplitMix64::seed_from_u64(seed);
    (0..n).map(|_| s.random()).collect()
}

fn gen_pairs_u64(n: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let mut s = SplitMix64::seed_from_u64(seed);
    let keys: Vec<u64> = (0..n).map(|_| s.random()).collect();
    let vals: Vec<u64> = (0..n).map(|_| s.random()).collect();
    (keys, vals)
}

/// Latency percentile (microseconds) over sorted u64 nanosecond samples.
fn pct_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

/// What one repetition produced.
struct Rep {
    wall_s: f64,
    accepted: u64,
    rejected: u64,
    keys_completed: u64,
    /// Sorted request latencies, nanoseconds.
    latencies_ns: Vec<u64>,
}

/// The arrival schedule: `None` = saturate (submit as fast as admission
/// allows, retrying rejections), `Some(rate)` = fixed open-loop arrivals
/// with load shedding.
#[derive(Clone, Copy)]
enum Load {
    Saturate,
    Rate(u64),
}

impl Load {
    fn label(self) -> String {
        match self {
            Load::Saturate => "saturate".to_string(),
            Load::Rate(r) => format!("rate:{r}"),
        }
    }
}

/// Drive one repetition of one cell. `submit` hands a prebuilt request to
/// the service (retry/shed policy handled here via the returned ticket);
/// generic over lane shape so u32 and pairs cells share the loop.
fn drive<T, W>(
    specs: &[(usize, u64)],
    load: Load,
    mut submit: impl FnMut(usize) -> Result<T, ()>,
    mut wait: W,
) -> Rep
where
    W: FnMut(T) -> (Instant, u64),
{
    let start = Instant::now();
    let mut tickets: Vec<(Option<T>, Instant)> = Vec::with_capacity(specs.len());
    let mut rejected = 0u64;
    for i in 0..specs.len() {
        let intended = match load {
            Load::Saturate => Instant::now(),
            Load::Rate(r) => {
                let at = start + Duration::from_nanos(i as u64 * 1_000_000_000 / r);
                loop {
                    let now = Instant::now();
                    if now >= at {
                        break;
                    }
                    let gap = at - now;
                    if gap > Duration::from_micros(200) {
                        std::thread::sleep(gap - Duration::from_micros(100));
                    } else {
                        std::hint::spin_loop();
                    }
                }
                at
            }
        };
        match load {
            Load::Saturate => loop {
                match submit(i) {
                    Ok(t) => {
                        tickets.push((Some(t), intended));
                        break;
                    }
                    Err(()) => std::thread::sleep(Duration::from_micros(50)),
                }
            },
            Load::Rate(_) => match submit(i) {
                Ok(t) => tickets.push((Some(t), intended)),
                Err(()) => {
                    rejected += 1;
                    tickets.push((None, intended));
                }
            },
        }
    }
    let mut latencies_ns = Vec::with_capacity(tickets.len());
    let mut last_completed = start;
    let mut keys_completed = 0u64;
    let mut accepted = 0u64;
    for (t, intended) in tickets {
        let Some(t) = t else { continue };
        accepted += 1;
        let (completed, nkeys) = wait(t);
        keys_completed += nkeys;
        if completed > last_completed {
            last_completed = completed;
        }
        latencies_ns.push(completed.saturating_duration_since(intended).as_nanos() as u64);
    }
    latencies_ns.sort_unstable();
    Rep {
        wall_s: last_completed
            .saturating_duration_since(start)
            .as_secs_f64(),
        accepted,
        rejected,
        keys_completed,
        latencies_ns,
    }
}

/// Run one repetition of one (mix, mode, load) cell, with solo-sort
/// verification of every reply when `verify` is set.
fn run_rep(
    mix: &Mix,
    coalescing: bool,
    load: Load,
    specs: &[(usize, u64)],
    queue_limit: usize,
    verify: bool,
) -> (Rep, ccsort_service::ServiceStats) {
    let svc =
        SortService::start(service_config(coalescing, queue_limit)).expect("valid service config");
    let rep_out = match mix.kind {
        MixKind::U32 => {
            let inputs: Vec<Vec<u32>> = specs
                .iter()
                .map(|&(n, seed)| gen_keys_u32(n, seed))
                .collect();
            let mut pending: Vec<Option<Vec<u32>>> =
                inputs.iter().map(|v| Some(v.clone())).collect();
            let r = drive(
                specs,
                load,
                |i| {
                    let keys = pending[i].take().expect("submitted once");
                    svc.submit_u32(keys).map_err(|e| {
                        if let SubmitError::Rejected { keys, .. } = e {
                            pending[i] = Some(keys); // retry without realloc
                        }
                    })
                },
                |t: Ticket<u32>| {
                    let r = t.wait();
                    (r.completed, r.keys.len() as u64)
                },
            );
            if verify {
                // Byte-identity vs solo sorts, untimed: re-submit every
                // request and compare against the engine directly. Waves
                // sized under the queue limit so nothing is rejected,
                // but large enough that the batcher still coalesces.
                let cfg = service_config(coalescing, queue_limit).sort;
                for wave in inputs.chunks(queue_limit.min(512)) {
                    let tickets: Vec<_> = wave
                        .iter()
                        .map(|v| svc.submit_u32(v.clone()).unwrap())
                        .collect();
                    for (t, input) in tickets.into_iter().zip(wave) {
                        let mut solo = input.clone();
                        par_radix_sort_with(&mut solo, &cfg);
                        assert_eq!(t.wait().keys, solo, "service reply diverges from solo sort");
                    }
                }
            }
            r
        }
        MixKind::PairsU64 => {
            let inputs: Vec<(Vec<u64>, Vec<u64>)> = specs
                .iter()
                .map(|&(n, seed)| gen_pairs_u64(n, seed))
                .collect();
            let mut pending: Vec<Option<(Vec<u64>, Vec<u64>)>> =
                inputs.iter().map(|kv| Some(kv.clone())).collect();
            let r = drive(
                specs,
                load,
                |i| {
                    let (keys, vals) = pending[i].take().expect("submitted once");
                    svc.submit_pairs_u64(keys, vals).map_err(|e| {
                        if let SubmitError::Rejected { keys, vals, .. } = e {
                            pending[i] = Some((keys, vals));
                        }
                    })
                },
                |t: Ticket<u64, u64>| {
                    let r = t.wait();
                    (r.completed, r.keys.len() as u64)
                },
            );
            if verify {
                let cfg = service_config(coalescing, queue_limit).sort;
                for wave in inputs.chunks(queue_limit.min(512)) {
                    let tickets: Vec<_> = wave
                        .iter()
                        .map(|(k, v)| svc.submit_pairs_u64(k.clone(), v.clone()).unwrap())
                        .collect();
                    for (t, (k, v)) in tickets.into_iter().zip(wave) {
                        let (mut sk, mut sv) = (k.clone(), v.clone());
                        par_radix_sort_pairs_with(&mut sk, &mut sv, &cfg);
                        let reply = t.wait();
                        assert_eq!(
                            (reply.keys, reply.vals),
                            (sk, sv),
                            "service pairs reply diverges from solo sort"
                        );
                    }
                }
            }
            r
        }
    };
    let stats = svc.shutdown();
    (rep_out, stats)
}

/// Run one (mix, load) cell in both modes with *interleaved* repetitions
/// — coalesced rep 0, baseline rep 0, coalesced rep 1, ... — so a noise
/// burst on a timeshared host lands on both modes alike instead of
/// biasing whichever mode's block it hit. Best wall time per mode wins;
/// rep 0 of each mode verifies every reply against a solo engine sort.
/// Returns `[coalesced, baseline]`.
fn run_cell_pair(mix: &Mix, load: Load, opts: &SvcBenchOpts) -> [SvcRow; 2] {
    let specs = request_specs(mix, opts.scale);
    let queue_limit = match load {
        Load::Saturate => specs.len() + 8,
        Load::Rate(_) => 1024,
    };
    let mut best: [Option<Rep>; 2] = [None, None];
    let mut last_stats = [ccsort_service::ServiceStats::default(); 2];
    for rep in 0..opts.reps {
        for (slot, coalescing) in [true, false].into_iter().enumerate() {
            let (rep_out, stats) = run_rep(mix, coalescing, load, &specs, queue_limit, rep == 0);
            last_stats[slot] = stats;
            if best[slot]
                .as_ref()
                .is_none_or(|b| rep_out.wall_s < b.wall_s)
            {
                best[slot] = Some(rep_out);
            }
        }
    }
    [true, false].map(|coalescing| {
        let slot = if coalescing { 0 } else { 1 };
        let best = best[slot].take().expect("reps >= 1");
        let stats = last_stats[slot];
        let wall = best.wall_s.max(1e-9);
        SvcRow {
            mix: mix.name,
            mode: if coalescing { "coalesced" } else { "baseline" },
            load: load.label(),
            requests: specs.len(),
            accepted: best.accepted,
            rejected: best.rejected,
            reps: opts.reps,
            best_wall_s: best.wall_s,
            req_per_sec: best.accepted as f64 / wall,
            mkeys_per_sec: best.keys_completed as f64 / wall / 1e6,
            p50_us: pct_us(&best.latencies_ns, 0.50),
            p99_us: pct_us(&best.latencies_ns, 0.99),
            p999_us: pct_us(&best.latencies_ns, 0.999),
            mean_batch_requests: if stats.batches == 0 {
                0.0
            } else {
                stats.completed as f64 / stats.batches as f64
            },
            scratch_reallocations: stats.scratch_reallocations,
            verified: true, // run_rep asserts identity on rep 0, unconditionally
        }
    })
}

/// Run the whole grid: every mix × {coalesced, baseline} at saturation,
/// plus fixed-rate latency cells for the small_u32 mix.
pub fn run_grid(opts: &SvcBenchOpts, progress: bool) -> Vec<SvcRow> {
    let mut rows = Vec::new();
    let emit = |row: SvcRow, rows: &mut Vec<SvcRow>| {
        if progress {
            println!(
                "{:12} {:9} {:>10} req={:<5} acc={:<5} rej={:<4} best {:>8.4}s {:>9.0} req/s {:>8.2} Mkeys/s p50 {:>8.1}us p99 {:>9.1}us batch {:>6.1}",
                row.mix, row.mode, row.load, row.requests, row.accepted, row.rejected,
                row.best_wall_s, row.req_per_sec, row.mkeys_per_sec, row.p50_us, row.p99_us,
                row.mean_batch_requests
            );
        }
        rows.push(row);
    };
    for mix in MIXES {
        for row in run_cell_pair(mix, Load::Saturate, opts) {
            emit(row, &mut rows);
        }
    }
    let small = &MIXES[0];
    for &rate in &opts.rates {
        for row in run_cell_pair(small, Load::Rate(rate), opts) {
            emit(row, &mut rows);
        }
    }
    rows
}

fn find_row<'a>(rows: &'a [SvcRow], mix: &str, mode: &str, load: &str) -> &'a SvcRow {
    rows.iter()
        .find(|r| r.mix == mix && r.mode == mode && r.load == load)
        .unwrap_or_else(|| panic!("missing row {mix}/{mode}/{load}"))
}

/// The relations the service claims, machine-relative: at saturation the
/// default (coalescing) mode sustains at least the per-request baseline's
/// throughput on every mix — by amortising fixed costs on the small mixes,
/// and by getting out of the way (size gate: one request per batch) on the
/// medium and large ones. `tol` > 1 loosens the comparisons for noisy CI
/// runners.
pub fn check_assertions(rows: &[SvcRow], tol: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for mix in MIXES {
        let co = find_row(rows, mix.name, "coalesced", "saturate");
        let ba = find_row(rows, mix.name, "baseline", "saturate");
        if co.req_per_sec * tol < ba.req_per_sec {
            failures.push(format!(
                "coalesced vs baseline throughput ({}): {:.0} req/s vs {:.0} req/s (tol {tol})",
                mix.name, co.req_per_sec, ba.req_per_sec
            ));
        }
    }
    for r in rows {
        if r.requests > 0 && !r.verified {
            failures.push(format!(
                "row {}/{}/{} was never verified",
                r.mix, r.mode, r.load
            ));
        }
    }
    failures
}

/// One JSON number: plain decimal, never NaN/Inf.
fn num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{:.1}", x)
    } else {
        format!("{:.6}", x)
    }
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

/// Render the rows as the committed JSON artifact, with the same honest
/// machine block as `BENCH_real_sorts.json`.
pub fn to_json(rows: &[SvcRow], opts: &SvcBenchOpts) -> String {
    let cores = available_cores();
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string());
    let mem_kb: u64 = proc_field("/proc/meminfo", "MemTotal")
        .and_then(|v| v.split_whitespace().next().and_then(|x| x.parse().ok()))
        .unwrap_or(0);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"service\",\n");
    json.push_str("  \"metric\": \"sustained sort-service throughput (requests/s, best of reps) and completion latency (us, from intended arrival)\",\n");
    json.push_str("  \"machine\": {\n");
    json.push_str(&format!("    \"cpu\": \"{}\",\n", cpu.replace('"', "'")));
    json.push_str(&format!("    \"cores_available\": {},\n", cores));
    json.push_str(&format!("    \"mem_gb\": {},\n", mem_kb / (1 << 20)));
    if cores <= 2 {
        json.push_str(&format!(
            "    \"note\": \"{} core(s): the load generator, the executor, and the engine timeshare the same CPU, so the coalescing win measured here comes from amortised per-request fixed costs (executor wake-ups, locking, per-sort setup), not from parallel scaling\",\n",
            cores
        ));
    }
    json.push_str("    \"os\": \"linux\"\n  },\n");
    json.push_str(
        "  \"grid_note\": \"each mix runs coalesced (the batcher) and baseline (coalescing off: one request per batch, served immediately, no flush-window wait) through the identical service machinery; saturate rows submit the whole request set as fast as admission allows and their latency percentiles are queue-depth-dominated (reported for completeness only); rate rows use a fixed open-loop arrival schedule with load shedding and measure latency from intended arrival time; every request's reply on rep 0 is verified byte-identical to a solo ccsort-parallel sort; the service runs with ServiceConfig::default() in both modes; medium_u32 and large_u32 requests sit above the size gate, so the coalesced mode sorts each alone (mean_batch_requests 1) and is asserted not to lose to the baseline\",\n",
    );
    json.push_str(&format!("  \"reps\": {},\n", opts.reps));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mix\": \"{}\", \"mode\": \"{}\", \"load\": \"{}\", \"requests\": {}, \"accepted\": {}, \"rejected\": {}, \"reps\": {}, \"best_wall_s\": {}, \"req_per_sec\": {}, \"mkeys_per_sec\": {}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"mean_batch_requests\": {}, \"scratch_reallocations\": {}, \"verified\": {}}}{}\n",
            r.mix,
            r.mode,
            r.load,
            r.requests,
            r.accepted,
            r.rejected,
            r.reps,
            num(r.best_wall_s),
            num(r.req_per_sec),
            num(r.mkeys_per_sec),
            num(r.p50_us),
            num(r.p99_us),
            num(r.p999_us),
            num(r.mean_batch_requests),
            r.scratch_reallocations,
            r.verified,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_deterministic_and_in_range() {
        let mix = &MIXES[0];
        let a = request_specs(mix, 1);
        let b = request_specs(mix, 1);
        assert_eq!(a.len(), mix.requests);
        assert!(
            a.iter().zip(&b).all(|(x, y)| x == y),
            "specs must be deterministic"
        );
        assert!(a
            .iter()
            .all(|&(n, _)| (mix.min_keys..=mix.max_keys).contains(&n)));
    }

    #[test]
    fn percentiles_pick_the_right_samples() {
        let ns: Vec<u64> = (1..=1000).map(|i| i * 1000).collect();
        assert!((pct_us(&ns, 0.50) - 500.0).abs() < 2.0);
        assert!((pct_us(&ns, 0.99) - 990.0).abs() < 2.0);
        assert_eq!(pct_us(&[], 0.5), 0.0);
    }

    #[test]
    fn tiny_grid_rows_resolve_and_verify() {
        // A micro-grid: enough to exercise both modes, both load shapes,
        // and the rep-0 verification path end to end.
        let opts = SvcBenchOpts {
            scale: 100,
            reps: 1,
            rates: vec![50_000],
        };
        let rows = run_grid(&opts, false);
        assert_eq!(rows.len(), MIXES.len() * 2 + 2);
        assert!(
            rows.iter().all(|r| r.verified),
            "every cell must verify rep 0"
        );
        assert!(rows.iter().all(|r| r.accepted > 0));
        let failures = check_assertions(&rows, 1e6);
        assert!(failures.is_empty(), "{failures:?}");
        let json = to_json(&rows, &opts);
        assert!(json.contains("\"bench\": \"service\""));
        assert!(json.contains("small_pairs"));
    }
}
