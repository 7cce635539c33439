//! `aa`: the noise gate. Two sets of runs of the *same* binary, alternated
//! run by run so both sets see the same drift of a shared host, compared the
//! way the pipeline compares a change with its parent. A benchmark that
//! cannot tell itself from itself within its own bounds cannot judge a
//! change.

use crate::cli::{child_args, spawn_run};
use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END};
use crate::procfs;
use crate::stats::quartiles;

/// End-to-end metric values of one child run, in registry order.
fn one_run(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Result<Vec<f64>, String> {
    let (code, stdout) = spawn_run(&child_args(workload, seed, seconds, false, smoke))?;
    if code != 0 {
        return Err(format!("{workload} seed {seed}: exit code {code}"));
    }
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output"))?;
    let result = json::parse(line)?;
    END_TO_END
        .iter()
        .map(|m| {
            result
                .get("metrics")
                .and_then(|all| all.get(m.name))
                .and_then(|metric| metric.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}: result line lacks {}", m.name))
        })
        .collect()
}

/// Quartile spread as a share of the median — the pipeline's steadiness figure.
fn spread(q: [f64; 3]) -> f64 {
    (q[2] - q[0]) / q[1]
}

/// Runs `runs` A/B pairs per workload and prints one Markdown table row per
/// (workload, metric). Returns whether every gap between the sets' medians,
/// and every quartile spread except `setup_s`'s, stayed within the metric's
/// bound.
pub fn run(
    workloads: &[&str],
    runs: usize,
    base_seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<bool, String> {
    println!("Host: {}", procfs::host_description());
    println!();
    println!("`aa --sets 2 --runs {runs} --seed {base_seed} --seconds {seconds}`: per workload, {runs} pairs of runs of one binary,");
    println!("pair *i* on seed {base_seed} + *i*, the set that runs first alternating. *spread* = (q3 − q1) / median with");
    println!("Python's `statistics.quantiles(n=4)`; *gap* = how much worse set B's median is than set A's, as a share of A's.");
    println!();
    println!("| workload | metric | unit | bound | A median | A spread | B median | B spread | gap | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut all_within = true;
    for workload in workloads {
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for pair in 0..runs {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                let values = one_run(workload, base_seed + pair as u64, seconds, smoke)?;
                for (column, v) in sets[set].iter_mut().zip(values) {
                    column.push(v);
                }
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (quartiles(&sets[0][i]), quartiles(&sets[1][i]));
            let gap = match m.better {
                Better::Lower => (b[1] - a[1]) / a[1],
                Better::Higher => (a[1] - b[1]) / a[1],
            };
            let widest = spread(a).max(spread(b));
            // setup_s is gated on its medians only.
            let spread_ok = m.name == "setup_s" || widest <= m.bound;
            let within = gap.abs() <= m.bound && spread_ok;
            let verdict = match (
                within,
                gap.abs() <= m.bound / 2.0 && (m.name == "setup_s" || widest <= m.bound / 3.0),
            ) {
                (false, _) => "**exceeds bound**",
                (true, false) => "within bound, above the steadiness target",
                (true, true) => "steady",
            };
            println!(
                "| {workload} | {} | {} | {} | {:.6} | {:.4} | {:.6} | {:.4} | {:+.4} | {verdict} |",
                m.name,
                m.unit,
                m.bound,
                a[1],
                spread(a),
                b[1],
                spread(b),
                gap,
            );
            all_within &= within;
        }
    }
    println!();
    println!(
        "{}",
        if all_within {
            "A/A: every gap and spread is within its bound."
        } else {
            "A/A: FAILED, see the rows marked above."
        }
    );
    Ok(all_within)
}
