//! Simulator hot-loop microprograms.
//!
//! Three access programs — a streamed sweep (`touch_run` over each PE's
//! partition), a scattered walk (`gather_run`/`scatter_run` batches at
//! pseudo-random indices inside each PE's partition) and a radix-style
//! permutation (streamed reads of the local chunk, batched scattered
//! writes across the whole output array) — parameterised by processor
//! count, race detector on/off, fast path on/off and protocol. They are
//! the workload behind the `simbench` binary that emits
//! `BENCH_simulator.json`: *host* throughput of the simulator itself,
//! reported as simulated key touches per wall-clock second.
//!
//! Everything here is deterministic: the scattered index stream is a fixed
//! LCG, the permutation's destination map is a fixed bijection, partitions
//! and destinations never overlap within a phase (so the race detector sees
//! a race-free program and pays only its bookkeeping), and
//! `fast_path = false` runs the per-line reference walk — the
//! pre-optimization cost model — on the same submitted batches, which is
//! what makes the before/after ratio in `BENCH_simulator.json` meaningful.

use std::time::Instant;

use ccsort_machine::{Machine, MachineConfig, Placement, ProtocolMode};

/// Which access pattern a microprogram exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// Each PE sweeps its partition with `touch_run`, alternating read and
    /// write passes — the streamed pattern the fast path targets.
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
    pub fast_path: bool,
    /// Coherence protocol the machine ran with.
    pub proto: ProtocolMode,
    /// Simulated element touches performed.
    pub keys: u64,
    /// Host wall-clock seconds for the touch loop (excludes machine setup).
    pub wall_s: f64,
    /// `keys / wall_s` — the trajectory metric.
    pub keys_per_sec: f64,
    /// Simulated parallel time, for sanity checks: it must not depend on
    /// `fast_path` (asserted by the equivalence tests) or host speed.
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
    fast: bool,
    n: usize,
    passes: usize,
    proto: ProtocolMode,
) -> HotpathResult {
    let mut cfg = MachineConfig::origin2000(p).with_protocol(proto);
    cfg.fast_path = fast;
    let mut m = Machine::new(cfg);
    m.set_race_detector(race);
    let arr = m.alloc(n, Placement::Partitioned { parts: p }, "hotpath");
    let chunk = n / p;
    assert!(chunk > 0, "n must be >= p");
    let mut keys: u64 = 0;
    const BLK: usize = 4096;

    // The access schedules (LCG index streams, permutation destination
    // maps) are generated *before* the timer starts: the cell reports host
    // throughput of the simulator engine, and schedule generation is
    // driver work that would otherwise dilute the fast/reference ratio
    // equally on both sides.
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
        fast_path: fast,
        proto,
        keys,
        wall_s,
        keys_per_sec: keys as f64 / wall_s.max(1e-9),
        simulated_ns: m.parallel_time(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The microprograms must themselves be exact under the fast path:
    /// identical simulated time with `fast_path` on and off, for both
    /// programs, with and without the race detector.
    #[test]
    fn cells_are_fast_path_exact() {
        for program in [Program::Streamed, Program::Scattered, Program::Permutation] {
            for race in [false, true] {
                let fast = run_cell(program, 4, race, true, 1 << 12, 3, ProtocolMode::Invalidate);
                let slow = run_cell(program, 4, race, false, 1 << 12, 3, ProtocolMode::Invalidate);
                assert_eq!(
                    fast.simulated_ns, slow.simulated_ns,
                    "{program:?} race={race} diverged"
                );
                assert_eq!(fast.keys, slow.keys);
            }
        }
    }

    /// ... and under the Dragon update protocol: the fast path carries no
    /// protocol-specific logic (Dragon's written-shared lines re-enter the
    /// slow path by construction), so simulated time must stay
    /// bit-identical between the batched and reference walks.
    #[test]
    fn cells_are_fast_path_exact_under_dragon_update() {
        for program in [Program::Streamed, Program::Scattered, Program::Permutation] {
            let run = |fast| run_cell(program, 4, false, fast, 1 << 12, 2, ProtocolMode::DragonUpdate);
            let fast = run(true);
            let slow = run(false);
            assert_eq!(fast.simulated_ns, slow.simulated_ns, "{program:?} diverged");
            assert_eq!(fast.keys, slow.keys);
        }
    }

    /// Simulated time must not depend on the race detector either — the
    /// detector observes, it never charges time.
    #[test]
    fn race_detector_does_not_change_simulated_time() {
        for program in [Program::Streamed, Program::Scattered, Program::Permutation] {
            let off = run_cell(program, 4, false, true, 1 << 12, 2, ProtocolMode::Invalidate);
            let on = run_cell(program, 4, true, true, 1 << 12, 2, ProtocolMode::Invalidate);
            assert_eq!(off.simulated_ns, on.simulated_ns, "{program:?} diverged");
        }
    }
}
