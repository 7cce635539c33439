//! `simbench` — measure the simulator's own throughput and emit
//! `BENCH_simulator.json`, the perf trajectory future PRs regress against.
//!
//! ```text
//! simbench [--out <path>] [--check <file>]
//! ```
//!
//! The grid is {streamed, scattered, permutation} × race detector
//! {off, on} × p ∈ {1, 16, 64} on the machine's one walk, fed contiguous
//! runs by the streamed program and index batches by the other two. The
//! metric is simulated key touches per wall-clock second, the best of
//! three runs per cell. A final row re-runs the permutation program at
//! p = 64 under the Dragon update protocol (`protocol` field), tracking
//! the host-side cost of the update walk.
//!
//! The JSON is written by hand, so the format is identical on every
//! toolchain the repo builds against.
//!
//! `--check <file>` compares every row's formatted `simulated_ns` with the
//! file's row for the same (program, race_detector, p, protocol) cell and
//! exits 1 naming the first that differs, before
//! anything is written: a change meant to leave the simulation alone
//! proves it on all rows at once. The file is read before the grid runs,
//! so it may also be the `--out` path.

use std::io::Write;
use std::time::Instant;

use ccsort_bench::hotpath::{
    first_simulated_ns_mismatch, json_num as num, parse_simulated_ns, run_cell, HotpathResult, Program,
    GRID_PROCS,
};
use ccsort_machine::ProtocolMode;

fn usage() -> ! {
    eprintln!("usage: simbench [--out <path>] [--check <file>]");
    std::process::exit(2);
}

fn main() {
    let mut out_path = String::from("BENCH_simulator.json");
    let mut check_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().unwrap_or_else(|| usage()),
            "--check" => check_path = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let check = check_path.map(|path| {
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|json| parse_simulated_ns(&json));
        let expected = parsed.unwrap_or_else(|e| {
            eprintln!("simbench: --check {path}: {e}");
            std::process::exit(2);
        });
        (path, expected)
    });

    // Sized so the full grid stays in the tens of seconds on one core while
    // each cell still runs long enough (tens of ms) to time reliably. The
    // streamed program simulates an order of magnitude more keys per host
    // second than the scattered one, so it gets proportionally more passes.
    let n = 1 << 18;

    let passes_for = |program: Program| match program {
        Program::Streamed => 256,
        Program::Scattered | Program::Permutation => 16,
    };

    let t0 = Instant::now();
    let mut rows: Vec<HotpathResult> = Vec::new();
    // Keep the best of three reps of each (program, p, race, proto) cell.
    let mut measure = |program: Program, p: usize, race: bool, proto: ProtocolMode| {
        let run = || run_cell(program, p, race, n, passes_for(program), proto);
        let mut best = run();
        for _ in 0..2 {
            let r = run();
            if r.keys_per_sec > best.keys_per_sec {
                best = r;
            }
        }
        println!(
            "{:9}  race={:5}  p={:3}  proto={:13}  {:>10.0} keys/s",
            program.name(),
            race,
            p,
            proto.to_string(),
            best.keys_per_sec
        );
        rows.push(best);
    };

    for program in [Program::Streamed, Program::Scattered, Program::Permutation] {
        for race in [false, true] {
            for p in GRID_PROCS {
                measure(program, p, race, ProtocolMode::Invalidate);
            }
        }
    }
    // The same scattered-write-heavy program at the paper machine's p = 64
    // under the Dragon update protocol.
    measure(Program::Permutation, 64, false, ProtocolMode::DragonUpdate);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"simulator\",\n");
    json.push_str("  \"metric\": \"simulated key touches per wall-clock second\",\n");
    json.push_str(&format!("  \"elements_per_cell\": {},\n", n));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"program\": \"{}\", \"race_detector\": {}, \"p\": {}, \"protocol\": \"{}\", \"keys\": {}, \"wall_s\": {}, \"keys_per_sec\": {}, \"simulated_ns\": {}}}{}\n",
            r.program.name(),
            r.race_detector,
            r.p,
            r.proto,
            r.keys,
            num(r.wall_s),
            num(r.keys_per_sec),
            num(r.simulated_ns),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    if let Some((path, expected)) = &check {
        let measured: Vec<_> = rows.iter().map(|r| (r.row_key(), num(r.simulated_ns))).collect();
        if let Some(diff) = first_simulated_ns_mismatch(expected, &measured) {
            eprintln!("simbench: --check {path}: {diff}");
            std::process::exit(1);
        }
        println!("# --check {path}: all {} rows have the file's simulated_ns", rows.len());
    }

    let mut f = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    f.write_all(json.as_bytes()).expect("write json");
    println!("# wrote {} rows to {out_path} in {:.1}s", rows.len(), t0.elapsed().as_secs_f64());
}
