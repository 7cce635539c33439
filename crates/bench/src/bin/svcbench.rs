//! `svcbench` CLI — run the sorting-service load grid and emit
//! `BENCH_service.json`. See [`ccsort_bench::svcbench`] for the grid and
//! measurement discipline.
//!
//! ```text
//! svcbench [--out <path>] [--quick] [--assert] [--tol <factor>]
//!          [--rate <req_per_s>]... [--reps <n>]
//! ```
//!
//! `--quick` runs the CI grid (quarter-size request sets, one latency
//! rate); `--assert` exits non-zero if the coalescing mode falls below the
//! per-request baseline on sustained throughput for any mix (small,
//! medium or large), or if any cell skipped verification; `--tol` loosens the
//! throughput comparison by a multiplicative factor for noisy CI runners;
//! `--rate` (repeatable) replaces the fixed-arrival latency rates.

use std::io::Write;
use std::time::Instant;

use ccsort_bench::svcbench::{check_assertions, run_grid, to_json, SvcBenchOpts};

fn usage() -> ! {
    eprintln!(
        "usage: svcbench [--out <path>] [--quick] [--assert] [--tol <factor>] \
         [--rate <req_per_s>]... [--reps <n>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut out_path = String::from("BENCH_service.json");
    let mut quick = false;
    let mut check = false;
    let mut tol = 1.0f64;
    let mut rates: Vec<u64> = Vec::new();
    let mut reps: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().unwrap_or_else(|| usage()),
            "--quick" => quick = true,
            "--assert" => check = true,
            "--tol" => {
                tol = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t| t >= 1.0)
                    .unwrap_or_else(|| usage())
            }
            "--rate" => rates.push(
                args.next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r| r > 0)
                    .unwrap_or_else(|| usage()),
            ),
            "--reps" => {
                reps = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&r| r >= 1)
                        .unwrap_or_else(|| usage()),
                )
            }
            _ => usage(),
        }
    }

    let mut opts = if quick {
        SvcBenchOpts::quick()
    } else {
        SvcBenchOpts::full()
    };
    if !rates.is_empty() {
        opts.rates = rates;
    }
    if let Some(r) = reps {
        opts.reps = r;
    }

    let t0 = Instant::now();
    let rows = run_grid(&opts, true);
    let json = to_json(&rows, &opts);
    let mut f = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    f.write_all(json.as_bytes()).expect("write json");
    println!(
        "# wrote {} rows to {out_path} in {:.1}s",
        rows.len(),
        t0.elapsed().as_secs_f64()
    );

    if check {
        let failures = check_assertions(&rows, tol);
        if failures.is_empty() {
            println!("# all service performance relations hold (tol {tol})");
        } else {
            for f in &failures {
                eprintln!("ASSERTION FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
