//! `realbench` CLI — run the real-hardware sort grid and emit
//! `BENCH_real_sorts.json`. See [`ccsort_bench::realbench`] for the grid
//! and measurement discipline.
//!
//! ```text
//! realbench [--out <path>] [--quick] [--assert] [--tol <factor>]
//! ```
//!
//! `--quick` runs the pruned CI grid (16M keys, {1, max} threads);
//! `--assert` exits non-zero if the engine's internal performance
//! relations do not hold (on every cell of the grid the default is no
//! slower than the LSD-only schedule; on uniform and duplicate-heavy u32
//! and on duplicate-heavy pairs it beats the parallel merge sort); `--tol`
//! loosens those comparisons by a multiplicative factor for noisy CI
//! runners.

use std::io::Write;
use std::time::Instant;

use ccsort_bench::realbench::{check_assertions, run_grid, to_json, RealBenchOpts};

fn usage() -> ! {
    eprintln!("usage: realbench [--out <path>] [--quick] [--assert] [--tol <factor>]");
    std::process::exit(2);
}

fn main() {
    let mut out_path = String::from("BENCH_real_sorts.json");
    let mut quick = false;
    let mut check = false;
    let mut tol = 1.0f64;
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
            _ => usage(),
        }
    }

    let opts = if quick { RealBenchOpts::quick() } else { RealBenchOpts::full() };
    let t0 = Instant::now();
    let rows = run_grid(&opts, true);
    let json = to_json(&rows, &opts);
    let mut f = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    f.write_all(json.as_bytes()).expect("write json");
    println!("# wrote {} rows to {out_path} in {:.1}s", rows.len(), t0.elapsed().as_secs_f64());

    if check {
        let failures = check_assertions(&rows, &opts, tol);
        if failures.is_empty() {
            println!("# all performance relations hold (tol {tol})");
        } else {
            for f in &failures {
                eprintln!("ASSERTION FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
