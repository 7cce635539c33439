//! Simulator hot-loop microprograms.
//!
//! Three access programs — a streamed sweep (`touch_run` over each PE's
//! partition), a scattered walk (`gather_run`/`scatter_run` batches at
//! pseudo-random indices inside each PE's partition) and a radix-style
//! permutation (streamed reads of the local chunk, batched scattered
//! writes across the whole output array) — parameterised by processor
//! count, race detector on/off and protocol. They are the workload behind
//! the `simbench` binary that emits
//! `BENCH_simulator.json`: *host* throughput of the simulator itself,
//! reported as simulated key touches per wall-clock second.
//!
//! Everything here is deterministic: the scattered index stream is a fixed
//! LCG, the permutation's destination map is a fixed bijection, partitions
//! and destinations never overlap within a phase (so the race detector sees
//! a race-free program and pays only its bookkeeping).

use std::time::Instant;

use ccsort_machine::{Machine, MachineConfig, Placement, ProtocolMode};

/// Which access pattern a microprogram exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// Each PE sweeps its partition with `touch_run`, alternating read and
    /// write passes.
    Streamed,
    /// Each PE submits `gather_run`/`scatter_run` batches of LCG-generated
    /// indices inside its partition — the batched scattered coherence walk.
    Scattered,
    /// The radix permutation shape: each PE streams its own chunk with
    /// `read_run`, then `scatter_run`s the block to bijectively-mapped
    /// destinations across the whole output array (mostly remote writes).
    Permutation,
}

impl Program {
    pub fn name(self) -> &'static str {
        match self {
            Program::Streamed => "streamed",
            Program::Scattered => "scattered",
            Program::Permutation => "permutation",
        }
    }
}

/// One measured cell of the hot-path grid.
#[derive(Debug, Clone)]
pub struct HotpathResult {
    pub program: Program,
    pub p: usize,
    pub race_detector: bool,
    /// Coherence protocol the machine ran with.
    pub proto: ProtocolMode,
    /// Simulated element touches performed.
    pub keys: u64,
    /// Host wall-clock seconds for the touch loop (excludes machine setup).
    pub wall_s: f64,
    /// `keys / wall_s` — the trajectory metric.
    pub keys_per_sec: f64,
    /// Simulated parallel time: it must not depend on the race detector or
    /// host speed.
    pub simulated_ns: f64,
}

/// Processor counts the grid covers: 1, a mid point and the paper's full
/// machine.
pub const GRID_PROCS: [usize; 3] = [1, 16, 64];

/// Run one microprogram cell: `n` total elements across `p` partitions,
/// swept `passes` times, under coherence protocol `proto`. Returns the
/// measured throughput.
pub fn run_cell(
    program: Program,
    p: usize,
    race: bool,
    n: usize,
    passes: usize,
    proto: ProtocolMode,
) -> HotpathResult {
    let mut m = Machine::new(MachineConfig::origin2000(p).with_protocol(proto));
    m.set_race_detector(race);
    let arr = m.alloc(n, Placement::Partitioned { parts: p }, "hotpath");
    let chunk = n / p;
    assert!(chunk > 0, "n must be >= p");
    let mut keys: u64 = 0;
    const BLK: usize = 4096;

    // The access schedules (LCG index streams, permutation destination
    // maps) are generated *before* the timer starts: the cell reports host
    // throughput of the simulator engine, and schedule generation is
    // driver work.
    let wall_s = match program {
        Program::Streamed => {
            let t = Instant::now();
            for pass in 0..passes {
                let write = pass % 2 == 1;
                for pe in 0..p {
                    m.touch_run(pe, arr, pe * chunk, chunk, write);
                    keys += chunk as u64;
                }
                m.barrier();
            }
            m.resolve_phase();
            t.elapsed().as_secs_f64()
        }
        Program::Scattered => {
            // Fixed 64-bit LCG (Knuth's MMIX constants); each PE gets a
            // distinct stream but the whole schedule is deterministic.
            // Gather passes and scatter passes alternate so both batched
            // walks are exercised; a batch covers one block of indices.
            // (`% chunk` is a mask — chunk is a power of two in the grid —
            // so pre-generation stays cheap too.)
            assert!(chunk.is_power_of_two(), "scattered program needs power-of-two n/p");
            let mut idxs = vec![0usize; passes * n];
            let mut vals = vec![0u32; passes * n];
            for pass in 0..passes {
                for pe in 0..p {
                    let mut x = 0x9E37_79B9u64
                        .wrapping_add(pe as u64)
                        .wrapping_mul(0x2545_F491_4F6C_DD1D)
                        .wrapping_add(pass as u64);
                    let base = pass * n + pe * chunk;
                    for i in 0..chunk {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        idxs[base + i] = pe * chunk + ((x >> 33) as usize & (chunk - 1));
                        vals[base + i] = x as u32;
                    }
                }
            }
            let mut buf = vec![0u32; BLK];
            let t = Instant::now();
            for pass in 0..passes {
                for pe in 0..p {
                    let base = pass * n + pe * chunk;
                    let mut done = 0;
                    while done < chunk {
                        let blk = BLK.min(chunk - done);
                        let ix = &idxs[base + done..base + done + blk];
                        if pass % 2 == 0 {
                            m.gather_run(pe, arr, ix, &mut buf[..blk]);
                        } else {
                            m.scatter_run(pe, arr, ix, &vals[base + done..base + done + blk]);
                        }
                        keys += blk as u64;
                        done += blk;
                    }
                }
                m.barrier();
            }
            m.resolve_phase();
            t.elapsed().as_secs_f64()
        }
        Program::Permutation => {
            // Radix CC-SAS permutation shape: each PE streams its chunk and
            // scatters it into per-digit output regions, one interleaved
            // sequential cursor per digit (32 digit streams — a 5-bit radix
            // pass), with each PE's sub-slot rotating every pass so a
            // line's first touch of a pass is a remote intervention against
            // last pass's writer, like the key handoff between radix
            // passes. Destinations within a pass form a bijection
            // (race-free across PEs) scattered across the whole output —
            // mostly remote under `Partitioned` placement. The digit count
            // keeps the destination page working set TLB-resident, so
            // these cells measure the batched coherence walk rather than
            // the TLB-thrash regime the paper's remote/local distribution
            // experiments (and the streamed rows) already cover.
            let out = m.alloc(n, Placement::Partitioned { parts: p }, "hotpath-out");
            let digits = 32.min(chunk);
            let region = n / digits; // output elements per digit
            let sub = chunk / digits; // elements per (pe, digit) per pass
            assert_eq!(digits * sub, chunk, "chunk must be divisible by the digit count");
            assert!(digits.is_power_of_two(), "permutation program needs power-of-two n/p");
            let dshift = digits.trailing_zeros();
            let dmask = digits - 1;
            // One destination map per rotation slot; slot = (pe + pass) % p,
            // and p * chunk = n, so the whole table is one n-element array.
            let mut dest_maps = vec![0usize; n];
            for slot in 0..p {
                for (k, d) in dest_maps[slot * chunk..(slot + 1) * chunk].iter_mut().enumerate() {
                    *d = (k & dmask) * region + slot * sub + (k >> dshift);
                }
            }
            let mut buf = vec![0u32; BLK];
            let t = Instant::now();
            for pass in 0..passes {
                for pe in 0..p {
                    let slot = (pe + pass) % p;
                    let start = pe * chunk;
                    let dests = &dest_maps[slot * chunk..(slot + 1) * chunk];
                    let mut pos = 0;
                    while pos < chunk {
                        let blk = BLK.min(chunk - pos);
                        m.read_run(pe, arr, start + pos, &mut buf[..blk]);
                        m.scatter_run(pe, out, &dests[pos..pos + blk], &buf[..blk]);
                        keys += blk as u64;
                        pos += blk;
                    }
                }
                m.barrier();
            }
            m.resolve_phase();
            t.elapsed().as_secs_f64()
        }
    };

    HotpathResult {
        program,
        p,
        race_detector: race,
        proto,
        keys,
        wall_s,
        keys_per_sec: keys as f64 / wall_s.max(1e-9),
        simulated_ns: m.parallel_time(),
    }
}

/// `BENCH_simulator.json`'s number format: plain decimal, never NaN/Inf
/// (the inputs are counts and positive wall-clock times).
pub fn json_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{:.1}", x)
    } else {
        format!("{:.6}", x)
    }
}

impl HotpathResult {
    /// The cell a `BENCH_simulator.json` row is keyed by: (program,
    /// race_detector, p, protocol).
    pub fn row_key(&self) -> String {
        row_key(self.program.name(), self.race_detector, self.p, &self.proto.to_string())
    }
}

fn row_key(program: &str, race: bool, p: usize, protocol: &str) -> String {
    format!("({program}, race_detector={race}, p={p}, protocol={protocol})")
}

/// `(row key, formatted simulated_ns)` of every row of a
/// `BENCH_simulator.json` (one row per line, as `simbench` writes it).
pub fn parse_simulated_ns(json: &str) -> Result<Vec<(String, String)>, String> {
    let mut rows = Vec::new();
    for (i, line) in json.lines().enumerate().filter(|(_, l)| l.contains("\"program\":")) {
        let field = |name: &str| {
            let tail = line.split(&format!("\"{name}\": ")).nth(1);
            let value = tail.and_then(|t| t.split([',', '}']).next());
            value
                .map(|v| v.trim().trim_matches('"').to_string())
                .ok_or_else(|| format!("line {}: no {name:?} field", i + 1))
        };
        let race = field("race_detector")? == "true";
        let p = field("p")?.parse().map_err(|e| format!("line {}: p: {e}", i + 1))?;
        let (program, protocol) = (field("program")?, field("protocol")?);
        let key = row_key(&program, race, p, &protocol);
        rows.push((key, field("simulated_ns")?));
    }
    if rows.is_empty() {
        return Err("no result rows".into());
    }
    Ok(rows)
}

/// The first difference between a file's rows and a run's, in the run's
/// row order: a row whose formatted `simulated_ns` differs, a row the file
/// lacks, or (after all measured rows matched) a file row not measured.
pub fn first_simulated_ns_mismatch(
    file: &[(String, String)],
    measured: &[(String, String)],
) -> Option<String> {
    for (key, ns) in measured {
        match file.iter().find(|(k, _)| k == key) {
            None => return Some(format!("{key}: not in the file")),
            Some((_, want)) if want != ns => {
                return Some(format!("{key}: simulated_ns {ns}, the file has {want}"))
            }
            Some(_) => {}
        }
    }
    let missing = file.iter().find(|(k, _)| !measured.iter().any(|(m, _)| m == k));
    missing.map(|(key, _)| format!("{key}: in the file but not measured"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulated time must not depend on the race detector: the detector
    /// observes, it never charges time.
    #[test]
    fn race_detector_does_not_change_simulated_time() {
        for program in [Program::Streamed, Program::Scattered, Program::Permutation] {
            let off = run_cell(program, 4, false, 1 << 12, 2, ProtocolMode::Invalidate);
            let on = run_cell(program, 4, true, 1 << 12, 2, ProtocolMode::Invalidate);
            assert_eq!(off.simulated_ns, on.simulated_ns, "{program:?} diverged");
        }
    }

    /// `--check`'s comparison: rows are matched by cell key in any order,
    /// and the first differing formatted `simulated_ns` is named.
    #[test]
    fn simulated_ns_rows_compare_by_cell() {
        let file = concat!(
            "{\n  \"results\": [\n",
            "    {\"program\": \"streamed\", \"race_detector\": false, \"p\": 1, ",
            "\"protocol\": \"invalidate\", \"keys\": 8, \"wall_s\": 0.5, ",
            "\"simulated_ns\": 443046534.736842},\n",
            "    {\"program\": \"permutation\", \"race_detector\": true, \"p\": 64, ",
            "\"protocol\": \"dragon-update\", \"keys\": 8, \"simulated_ns\": 12.0}\n",
            "  ]\n}\n"
        );
        let rows = parse_simulated_ns(file).unwrap();
        let stream = "(streamed, race_detector=false, p=1, protocol=invalidate)";
        let perm = "(permutation, race_detector=true, p=64, protocol=dragon-update)";
        let want = [(stream.to_string(), "443046534.736842".to_string()), (perm.into(), "12.0".into())];
        assert_eq!(rows, want);

        let mut measured: Vec<_> = rows.iter().rev().cloned().collect();
        assert_eq!(first_simulated_ns_mismatch(&rows, &measured), None);
        measured[0].1 = json_num(12.5);
        assert_eq!(
            first_simulated_ns_mismatch(&rows, &measured).as_deref(),
            Some(&*format!("{perm}: simulated_ns 12.500000, the file has 12.0"))
        );
        measured[0].0 = perm.replace("p=64", "p=16");
        let diff = first_simulated_ns_mismatch(&rows, &measured).unwrap();
        assert!(diff.ends_with("p=16, protocol=dragon-update): not in the file"), "{diff}");
        let diff = first_simulated_ns_mismatch(&rows, &rows[..1]).unwrap();
        assert!(diff.starts_with(&format!("{perm}: in the file")), "{diff}");
        assert!(parse_simulated_ns("{}").is_err());
    }
}
