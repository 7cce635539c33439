//! Command line: `run` (the default, and the form the pipeline calls),
//! `all`, and `aa`. Exit code 0 = ran and every output verified, 1 = a run
//! failed or an output was wrong (or, for `aa`, a gap exceeded its bound),
//! 2 = usage.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::aa;
use crate::runner::{self, Options, WORKLOADS};

/// Timed window when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds` is what the pipeline passes.
pub const DEFAULT_SECONDS: f64 = 12.0;

pub const USAGE: &str = "\
usage: ccsort-benchmark [run] --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--trace-file <path>] [--smoke]
       ccsort-benchmark all [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--smoke]
       ccsort-benchmark aa [--sets 2] [--runs <n>] [--seed <u64>] [--seconds <s>] [--workload <name>]... [--smoke]
workloads: engine_u32_16m engine_pairs_skew_4m svc_lone_small svc_window_medium sim_radix_ccsas sim_sample_mpi";

#[derive(Debug, Default)]
struct Args {
    command: String,
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_file: Option<PathBuf>,
    smoke: bool,
    corrupt: bool,
    sets: usize,
    runs: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        sets: 2,
        runs: 5,
        ..Args::default()
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek().filter(|a| !a.starts_with("--")) {
        args.command = first.to_string();
        it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot read {text:?}"))
        }
        match flag.as_str() {
            "--workload" => args.workloads.push(value()?.clone()),
            "--seed" => args.seed = number(flag, value()?)?,
            "--seconds" => args.seconds = Some(number(flag, value()?)?),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-file" => args.trace_file = Some(PathBuf::from(value()?)),
            "--sets" => args.sets = number(flag, value()?)?,
            "--runs" => args.runs = number(flag, value()?)?,
            "--smoke" => args.smoke = true,
            "--corrupt" => args.corrupt = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(s) = args.seconds.filter(|s| !(*s > 0.0 && *s <= 600.0)) {
        return Err(format!("--seconds must be in (0, 600], not {s}"));
    }
    if let Some(unknown) = args
        .workloads
        .iter()
        .find(|w| !WORKLOADS.contains(&w.as_str()))
    {
        return Err(format!("unknown workload {unknown:?}"));
    }
    Ok(args)
}

/// Where a traced run writes its Chrome trace when `--trace-file` is not
/// given: beside the executable, which is inside the build directory.
fn default_trace_file(workload: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.join(format!("trace_{workload}.json")))
}

/// Arguments that make a child process repeat one run of this one.
pub fn child_args(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Vec<String> {
    let mut v = vec![
        "run".to_string(),
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--trace".to_string(),
        u8::from(trace).to_string(),
    ];
    if smoke {
        v.push("--smoke".to_string());
    }
    v
}

/// Run one workload in a process of its own — peak memory, CPU time and
/// set-up time are per process — and return its exit code and stdout.
pub fn spawn_run(args: &[String]) -> Result<(i32, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    Ok((
        out.status.code().unwrap_or(1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    ))
}

pub fn main(argv: &[String]) -> i32 {
    let args = match parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.3 } else { DEFAULT_SECONDS });
    match args.command.as_str() {
        "run" => {
            let [workload] = args.workloads.as_slice() else {
                eprintln!("error: run takes exactly one --workload\n{USAGE}");
                return 2;
            };
            let opts = Options {
                workload: workload.clone(),
                seed: args.seed,
                seconds,
                trace: args.trace,
                trace_file: if args.trace {
                    args.trace_file.or_else(|| default_trace_file(workload))
                } else {
                    None
                },
                smoke: args.smoke,
                corrupt: args.corrupt,
            };
            match runner::run(&opts) {
                Ok(outcome) => {
                    for note in &outcome.notes {
                        println!("# {note}");
                    }
                    for (name, value, unit) in &outcome.metrics {
                        println!("# {name} = {value} {unit}");
                    }
                    println!("{}", outcome.result_line());
                    i32::from(!outcome.correct)
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        // One process per workload, one after the other: never concurrently.
        "all" => {
            let mut worst = 0;
            for workload in WORKLOADS {
                match spawn_run(&child_args(
                    workload, args.seed, seconds, args.trace, args.smoke,
                )) {
                    Ok((code, stdout)) => {
                        print!("{stdout}");
                        worst = worst.max(code);
                    }
                    Err(e) => {
                        eprintln!("error: {workload}: {e}");
                        worst = 1;
                    }
                }
            }
            worst
        }
        "aa" => {
            let workloads: Vec<&str> = if args.workloads.is_empty() {
                WORKLOADS.to_vec()
            } else {
                args.workloads.iter().map(String::as_str).collect()
            };
            if args.sets != 2 || args.runs < 2 {
                eprintln!("error: aa compares exactly 2 sets of at least 2 runs\n{USAGE}");
                return 2;
            }
            match aa::run(&workloads, args.runs, args.seed, seconds, args.smoke) {
                Ok(within_bounds) => i32::from(!within_bounds),
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        other => {
            eprintln!("error: unknown command {other:?}\n{USAGE}");
            2
        }
    }
}
