//! `repro` — regenerate every table and figure of Shan & Singh (SC 1999).
//!
//! ```text
//! repro [OPTIONS] <ARTEFACT>...
//!
//! ARTEFACT: table1 | fig1 | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 |
//!           fig8 | fig9 | fig10 | table2 | predict | tradeoff | putget |
//!           phases | sampling | all | quick
//!
//! `quick` is the fast smoke pass behind `results/golden_quick.txt`: it
//! brings its own sizes, processor counts, key cap and seed, so it exits 2
//! if `--simkeys`, `--sizes`, `--procs` or `--seed` is given with it.
//!
//! OPTIONS:
//!   --simkeys N      cap on simulated keys per run (default 2097152); each
//!                    size label runs at scale = label/N (min 1)
//!   --sizes A,B,..   size labels to run (subset of 1M,4M,16M,64M,256M)
//!   --procs A,B,..   processor counts, at most 64 (default 16,32,64)
//!   --seed N         RNG seed (default 271828)
//!   --json FILE      dump all generated points as JSON
//!   --verbose        per-processor detail in breakdown figures
//! ```
//!
//! Default scale 16 simulates 64K–16M keys on a 1/16-capacity machine,
//! preserving every dataset-to-capacity ratio of the full-size runs.

use ccsort_bench::figures;
use ccsort_bench::runner::{Runner, RunnerOpts, SIZE_LABELS};

fn usage() -> ! {
    eprintln!(
        "usage: repro [--simkeys N] [--sizes 1M,4M,...] [--procs 16,32,64] [--seed N] \
         [--json FILE] [--verbose] <table1|fig1..fig10|table2|tradeoff|putget|all|quick>..."
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }

    let mut opts = RunnerOpts::default();
    let mut artefacts: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    // The first option given that `quick` sets itself.
    let mut scale_flag: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if ["--simkeys", "--seed", "--sizes", "--procs"].contains(&arg.as_str()) {
            scale_flag.get_or_insert_with(|| arg.clone());
        }
        match arg.as_str() {
            "--simkeys" => {
                let v = it.next().unwrap_or_else(|| usage());
                opts.max_sim_n = v.parse().unwrap_or_else(|_| usage());
                if !opts.max_sim_n.is_power_of_two() {
                    eprintln!("invalid --simkeys: {} is not a power of two", opts.max_sim_n);
                    std::process::exit(2);
                }
            }
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage());
                opts.seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--sizes" => {
                let v = it.next().unwrap_or_else(|| usage());
                opts.sizes = v
                    .split(',')
                    .map(|s| {
                        SIZE_LABELS.iter().position(|(l, _)| *l == s).unwrap_or_else(|| {
                            eprintln!("unknown size label {s}");
                            usage()
                        })
                    })
                    .collect();
            }
            "--procs" => {
                let v = it.next().unwrap_or_else(|| usage());
                opts.procs = v.split(',').map(|s| s.parse().unwrap_or_else(|_| usage())).collect();
                let max = ccsort_machine::MAX_PROCS;
                if let Some(p) = opts.procs.iter().find(|p| !(1..=max).contains(*p)) {
                    eprintln!("invalid --procs: processor count {p} outside 1..={max}");
                    std::process::exit(2);
                }
            }
            "--json" => {
                json_path = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--verbose" => opts.verbose = true,
            a if a.starts_with("--") => usage(),
            a => artefacts.push(a.to_string()),
        }
    }
    if artefacts.is_empty() {
        usage();
    }
    if artefacts.iter().any(|a| a == "quick") {
        if let Some(flag) = scale_flag {
            eprintln!("repro quick sets its own sizes, procs, simkeys and seed; drop {flag}");
            std::process::exit(2);
        }
        let v = opts.verbose;
        opts = RunnerOpts::quick();
        opts.verbose = v;
    }

    println!(
        "# machine: Origin 2000 preset; per-size scale = label/{} (min 1); sizes {:?}; procs {:?}",
        opts.max_sim_n,
        opts.sizes.iter().map(|&i| SIZE_LABELS[i].0).collect::<Vec<_>>(),
        opts.procs
    );

    let mut r = Runner::new(opts);
    for artefact in &artefacts {
        match artefact.as_str() {
            "table1" => figures::table1(&mut r),
            "fig1" => figures::fig1(&mut r),
            "fig2" => figures::fig2(&mut r),
            "fig3" => figures::fig3(&mut r),
            "fig4" => figures::fig4(&mut r),
            "fig5" => figures::fig5(&mut r),
            "fig6" => figures::fig6(&mut r),
            "fig7" => figures::fig7(&mut r),
            "fig8" => figures::fig8(&mut r),
            "fig9" => figures::fig9(&mut r),
            "fig10" => figures::fig10(&mut r),
            "table2" | "table3" => figures::table2_and_3(&mut r),
            "predict" => figures::predict(&mut r),
            "tradeoff" => figures::tradeoff(&mut r),
            "putget" => figures::putget(&mut r),
            "phases" => figures::phases(&mut r),
            "sampling" => figures::sampling(&mut r),
            "all" | "quick" => {
                figures::table1(&mut r);
                figures::fig1(&mut r);
                figures::fig2(&mut r);
                figures::fig3(&mut r);
                figures::fig4(&mut r);
                figures::fig5(&mut r);
                figures::fig6(&mut r);
                figures::fig7(&mut r);
                figures::fig8(&mut r);
                figures::fig9(&mut r);
                figures::fig10(&mut r);
                figures::table2_and_3(&mut r);
                figures::predict(&mut r);
                figures::tradeoff(&mut r);
                figures::phases(&mut r);
                figures::sampling(&mut r);
            }
            other => {
                eprintln!("unknown artefact {other}");
                usage();
            }
        }
    }

    if let Some(path) = json_path {
        let objects: Vec<String> = r.points.iter().map(|pt| pt.to_json()).collect();
        std::fs::write(&path, format!("[\n{}\n]\n", objects.join(",\n"))).expect("write json output");
        println!("\n# wrote {} points to {path}", r.points.len());
    }
}
