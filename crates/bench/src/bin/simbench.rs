//! `simbench` — measure the simulator's own throughput and emit
//! `BENCH_simulator.json`, the perf trajectory future PRs regress against.
//!
//! ```text
//! simbench [--out <path>] [--quick]
//! ```
//!
//! The grid is {streamed, scattered, permutation} × race detector
//! {off, on} × p ∈ {1, 16, 64}, each measured twice — with the fast
//! path on (the machine's one walk, fed contiguous runs by the streamed
//! program and index batches by the other two) and off (the per-line
//! reference walk, i.e. the pre-optimization cost model). The metric is
//! simulated key touches per wall-clock second; the
//! `speedup_vs_reference` field of each fast-path row is its throughput
//! over the matching reference row, so the "≥ 2× on streamed-heavy
//! programs" claim is directly readable from the file (the scattered and
//! permutation rows run ~1.6–2.1×). The warm streamed cells with the
//! detector off at p ≥ 16 are the one place a dedicated sweep loop was
//! faster than the walk (DESIGN.md §10, corollary) — expected, not a
//! regression to fix. A final row re-runs the permutation program at
//! p = 64 under the Dragon update protocol (`protocol` field), tracking the
//! host-side cost of the update walk.
//!
//! The JSON is written by hand, so the format is identical on every
//! toolchain the repo builds against.

use std::io::Write;
use std::time::Instant;

use ccsort_bench::hotpath::{run_cell, HotpathResult, Program, GRID_PROCS};
use ccsort_machine::ProtocolMode;

fn usage() -> ! {
    eprintln!("usage: simbench [--out <path>] [--quick]");
    std::process::exit(2);
}

/// One JSON-escaped f64: plain decimal, never NaN/Inf (the inputs are
/// counts and positive wall-clock times).
fn num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{:.1}", x)
    } else {
        format!("{:.6}", x)
    }
}

fn main() {
    let mut out_path = String::from("BENCH_simulator.json");
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().unwrap_or_else(|| usage()),
            "--quick" => quick = true,
            _ => usage(),
        }
    }

    // Sized so the full grid stays in the tens of seconds on one core while
    // each cell still runs long enough (tens of ms) to time reliably. The
    // streamed program simulates an order of magnitude more keys per host
    // second than the scattered one, so it gets proportionally more passes.
    let n = 1 << 18;

    let passes_for = |program: Program| match program {
        Program::Streamed => {
            if quick {
                64
            } else {
                256
            }
        }
        Program::Scattered | Program::Permutation => {
            if quick {
                4
            } else {
                16
            }
        }
    };

    let t0 = Instant::now();
    let mut rows: Vec<(HotpathResult, f64)> = Vec::new();
    // Measure one (program, p, race, proto) cell both ways and keep each
    // variant's best of three interleaved reps: single-core turbo/thermal
    // drift otherwise biases whichever variant happens to run later.
    let mut measure = |program: Program, p: usize, race: bool, proto: ProtocolMode| {
        let passes = passes_for(program);
        let run = |fast: bool| run_cell(program, p, race, fast, n, passes, proto);
        let mut slow = run(false);
        let mut fast = run(true);
        for _ in 0..2 {
            let s = run(false);
            if s.keys_per_sec > slow.keys_per_sec {
                slow = s;
            }
            let f = run(true);
            if f.keys_per_sec > fast.keys_per_sec {
                fast = f;
            }
        }
        assert_eq!(
            fast.simulated_ns, slow.simulated_ns,
            "fast path must be exact: {} race={race} p={p} proto={proto}",
            program.name()
        );
        let speedup = fast.keys_per_sec / slow.keys_per_sec.max(1e-9);
        println!(
            "{:9}  race={:5}  p={:3}  proto={:13}  ref {:>10.0} keys/s  fast {:>10.0} keys/s  speedup {:>5.2}x",
            program.name(),
            race,
            p,
            proto.to_string(),
            slow.keys_per_sec,
            fast.keys_per_sec,
            speedup
        );
        rows.push((slow, 0.0));
        rows.push((fast, speedup));
    };

    for program in [Program::Streamed, Program::Scattered, Program::Permutation] {
        for race in [false, true] {
            for p in GRID_PROCS {
                measure(program, p, race, ProtocolMode::Invalidate);
            }
        }
    }
    // The same scattered-write-heavy program at the paper machine's p = 64
    // under the Dragon update protocol. Simulated time differs from the
    // default rows here (that is the point); the fast/reference exactness
    // assert still holds within the row pair.
    measure(Program::Permutation, 64, false, ProtocolMode::DragonUpdate);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"simulator\",\n");
    json.push_str("  \"metric\": \"simulated key touches per wall-clock second\",\n");
    json.push_str(&format!("  \"elements_per_cell\": {},\n", n));
    json.push_str("  \"results\": [\n");
    for (i, (r, speedup)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"program\": \"{}\", \"race_detector\": {}, \"p\": {}, \"protocol\": \"{}\", \"fast_path\": {}, \"keys\": {}, \"wall_s\": {}, \"keys_per_sec\": {}, \"simulated_ns\": {}{}}}{}\n",
            r.program.name(),
            r.race_detector,
            r.p,
            r.proto,
            r.fast_path,
            r.keys,
            num(r.wall_s),
            num(r.keys_per_sec),
            num(r.simulated_ns),
            if r.fast_path { format!(", \"speedup_vs_reference\": {}", num(*speedup)) } else { String::new() },
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let mut f = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    f.write_all(json.as_bytes()).expect("write json");
    println!("# wrote {} rows to {out_path} in {:.1}s", rows.len(), t0.elapsed().as_secs_f64());
}
