//! Smoke tests for the harness itself: every workload in `--smoke` size
//! emits every registered metric, the names agree with `BENCHMARK.json`,
//! the trace is well formed, exact counts repeat, and a damaged output
//! fails the run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use ccsort_benchmark::json::{self, Json};
use ccsort_benchmark::metrics::{END_TO_END, PER_LAYER};
use ccsort_benchmark::runner::{self, Options, Outcome, WORKLOADS};

fn options(workload: &str, seed: u64, trace_file: Option<PathBuf>) -> Options {
    Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.3,
        trace: trace_file.is_some(),
        trace_file,
        smoke: true,
        corrupt: false,
    }
}

fn traced(workload: &str, seed: u64, tag: &str) -> (Outcome, Json) {
    let path =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("trace_{workload}_{tag}.json"));
    let outcome =
        runner::run(&options(workload, seed, Some(path.clone()))).expect("traced smoke run");
    let trace =
        json::parse(&std::fs::read_to_string(&path).expect("trace file")).expect("trace is JSON");
    (outcome, trace)
}

fn assert_reported(outcome: &Outcome, names: &[(&str, &str)], workload: &str) {
    assert!(
        outcome.correct && outcome.failed == 0 && outcome.attempted >= 1,
        "{workload}"
    );
    let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.0, m.2)).collect();
    assert_eq!(
        got, names,
        "{workload}: metric names and units, in registry order"
    );
    for (name, value, _) in &outcome.metrics {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    // The result line parses and carries exactly the contract's keys.
    let line = json::parse(&outcome.result_line()).expect("result line is JSON");
    let Json::Obj(keys) = &line else {
        panic!("result line is not an object")
    };
    assert_eq!(
        keys.keys().map(String::as_str).collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"]
    );
}

#[test]
fn untraced_smoke_runs_emit_every_end_to_end_metric() {
    let names: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for workload in WORKLOADS {
        let outcome = runner::run(&options(workload, 7, None)).expect("smoke run");
        assert_reported(&outcome, &names, workload);
        for (name, value, _) in &outcome.metrics {
            assert!(
                *value > 0.0,
                "{workload}: end-to-end metric {name} must never be 0"
            );
        }
        assert_eq!(outcome.value("slo_share"), Some(1.0), "{workload}");
    }
}

/// One Chrome-trace event: times in µs, `parent` an index into the event list.
struct Event {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
    op: Option<u64>,
}

fn events(trace: &Json) -> Vec<Event> {
    let list = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents");
    list.iter()
        .map(|e| {
            let num = |k: &str| e.get(k).and_then(Json::as_f64).expect("numeric field");
            let arg = |k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Json::as_f64);
            Event {
                name: e
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                start: num("ts"),
                end: num("ts") + num("dur"),
                parent: arg("parent").map(|p| p as usize),
                op: arg("op").map(|o| o as u64),
            }
        })
        .collect()
}

#[test]
fn traced_smoke_runs_emit_every_layer_metric_and_repeat_their_counts() {
    let names: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for workload in WORKLOADS {
        let (first, trace) = traced(workload, 7, "a");
        let (second, _) = traced(workload, 7, "b");
        assert_reported(&first, &names, workload);
        for layer in PER_LAYER.iter().filter(|l| l.exact) {
            assert_eq!(
                first.value(layer.name).map(f64::to_bits),
                second.value(layer.name).map(f64::to_bits),
                "{workload}: {} must repeat exactly under one seed",
                layer.name
            );
        }
        assert!(first.value("op.samples").unwrap() >= 5.0, "{workload}");
        assert_eq!(first.value("fail_share"), Some(0.0), "{workload}");

        // Children lie inside their parents (timestamps are rounded to the ns).
        let events = events(&trace);
        assert!(!events.is_empty(), "{workload}: empty trace");
        for e in &events {
            assert!(e.end >= e.start, "{workload}: {} runs backwards", e.name);
            if let Some(p) = e.parent {
                let parent = &events[p];
                assert!(
                    e.start >= parent.start - 1e-3 && e.end <= parent.end + 1e-3,
                    "{workload}: {} leaves {}",
                    e.name,
                    parent.name
                );
                assert_eq!(
                    e.op, parent.op,
                    "{workload}: spans of one op share its index"
                );
            }
        }
        if workload.starts_with("svc_") {
            assert_service_stages(workload, &first, &events);
        }
        if workload.starts_with("sim_") {
            assert_simulator_model(workload, &first);
        }
    }
}

/// The three stage spans of a request tile it, and the client keeps as many
/// requests in flight as the workload says.
fn assert_service_stages(workload: &str, outcome: &Outcome, events: &[Event]) {
    let mut request = BTreeMap::new();
    let mut stages = BTreeMap::new();
    for e in events {
        let Some(op) = e.op else { continue };
        match e.name.as_str() {
            "service.request" => *request.entry(op).or_insert(0.0) += e.end - e.start,
            "service.service.submit"
            | "service.service.queue_sort"
            | "service.service.reply_wake" => {
                *stages.entry(op).or_insert(0.0) += e.end - e.start;
            }
            _ => {}
        }
    }
    assert_eq!(
        request.len() as f64,
        outcome.value("op.samples").unwrap(),
        "{workload}"
    );
    for (op, latency) in &request {
        let sum = stages[op];
        assert!(
            (sum - latency).abs() <= 0.01 * latency,
            "{workload} op {op}: stages {sum} µs vs request {latency} µs"
        );
    }
    let inflight = outcome.value("service.inflight_mean").unwrap();
    if workload == "svc_lone_small" {
        assert_eq!(inflight, 1.0);
        assert_eq!(outcome.value("service.batch.mean_requests"), Some(1.0));
    } else {
        assert!(inflight > 12.0, "inflight_mean = {inflight}");
    }
}

/// Simulated time splits into the paper's four buckets, and only the
/// message-passing program sends messages.
fn assert_simulator_model(workload: &str, outcome: &Outcome) {
    let shares: f64 = ["busy", "lmem", "rmem", "sync"]
        .iter()
        .map(|b| outcome.value(&format!("sim.{b}_share")).unwrap())
        .sum();
    assert!(
        (shares - 1.0).abs() < 1e-9,
        "{workload}: BUSY+LMEM+RMEM+SYNC = {shares}"
    );
    assert!(
        outcome.value("machine.touches").unwrap() > 0.0,
        "{workload}"
    );
    let messages = outcome.value("models.comm.messages").unwrap();
    assert_eq!(messages > 0.0, workload == "sim_sample_mpi", "{workload}");
}

#[test]
fn simulator_counts_ignore_the_seed() {
    // The Gauss key stream is the paper's own recurrence: the seed is passed
    // through, the simulated counts stay put.
    let (a, _) = traced("sim_radix_ccsas", 1, "seed1");
    let (b, _) = traced("sim_radix_ccsas", 2, "seed2");
    assert_eq!(a.value("machine.touches"), b.value("machine.touches"));
}

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
}

#[test]
fn benchmark_json_agrees_with_the_registry() {
    let manifest = manifest();
    let list = |key: &str| {
        manifest
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key}"))
            .to_vec()
    };

    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| field(w, "name").to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert!(list("workloads")
        .iter()
        .all(|w| field(w, "why").len() <= 200 && !field(w, "why").contains('\n')));

    let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            (
                field(m, "name").to_string(),
                field(m, "unit").to_string(),
                field(m, "better").to_string(),
                bound,
            )
        })
        .collect();
    let expected: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(end_to_end, expected);

    let per_layer: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| {
            (
                field(m, "name").to_string(),
                field(m, "unit").to_string(),
                field(m, "better").to_string(),
            )
        })
        .collect();
    let expected: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
            )
        })
        .collect();
    assert_eq!(per_layer, expected);

    assert_eq!(list("paths"), [Json::Str("crates/benchmark".to_string())]);
    let seconds = manifest
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    // 4 + 22 runs per workload, each a few seconds of set-up plus the
    // window, must fit the pipeline's 3420 s with room for two builds.
    let runs = 4.0 + 22.0 * workloads.len() as f64;
    assert!(
        runs * (seconds + 6.0) < 3420.0 - 300.0,
        "{runs} runs of {seconds} s do not fit"
    );
}

fn run_binary(args: &[&str]) -> (i32, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_ccsort-benchmark"))
        .args(args)
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (
        out.status.code().expect("exit code"),
        json::parse(last).expect("result line"),
    )
}

#[test]
fn a_damaged_output_fails_the_run() {
    let args = |workload: &'static str| {
        [
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.3",
            "--trace",
            "0",
            "--smoke",
        ]
    };
    let (code, clean) = run_binary(&args("svc_lone_small"));
    assert_eq!(code, 0);
    assert_eq!(clean.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(clean.get("failed").and_then(Json::as_f64), Some(0.0));

    for workload in [
        "engine_u32_16m",
        "engine_pairs_skew_4m",
        "svc_window_medium",
        "sim_sample_mpi",
    ] {
        let (code, damaged) = run_binary(&[&args(workload)[..], &["--corrupt"]].concat());
        assert_ne!(code, 0, "{workload}: --corrupt must fail the run");
        assert_eq!(
            damaged.get("correct"),
            Some(&Json::Bool(false)),
            "{workload}"
        );
        let failed = damaged.get("failed").and_then(Json::as_f64).unwrap();
        let attempted = damaged.get("attempted").and_then(Json::as_f64).unwrap();
        assert_eq!(failed, 1.0, "{workload}: exactly the damaged op fails");
        // The failed op is a miss of the latency limit too.
        let slo = damaged
            .get("metrics")
            .and_then(|m| m.get("slo_share"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(slo, Some((attempted - 1.0) / attempted), "{workload}");
    }
}

#[test]
fn usage_errors_exit_2_and_print_no_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2", "--workload", "svc_lone_small"],
        &["frobnicate"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ccsort-benchmark"))
            .args(args)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
