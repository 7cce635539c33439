//! The parallel experiment grid must be a pure performance feature: for a
//! fixed configuration and seed, every simulated observable — parallel
//! time, per-PE breakdowns, event counters, per-phase sections — must be
//! bit-identical however the cells are scheduled.
//!
//! Coverage: [`Runner::prefetch`] and [`Runner::prefetch_seq`] fill the
//! memo caches on `default_workers()` real threads (one per core), while
//! plain `exp()` / `seq_ns()` run on the test thread. Comparing the two
//! run-to-run, against each other, and across submission orders pins the
//! "worker count and scheduling change nothing" contract from every side
//! we can observe in-process. On a one-core host the fill is inline and
//! the comparison is vacuous; `prefetch_agrees_with_sequential_exp` says so.

use ccsort_algos::{Algorithm, Dist};
use ccsort_bench::runner::{ExpKey, Runner, RunnerOpts};
use ccsort_parallel::default_workers;

/// Exact fingerprint of one experiment: every f64 via `to_bits`, every
/// counter verbatim, phase names included. Two results compare equal here
/// iff they are observably bit-identical.
fn fingerprint(runner: &mut Runner, key: ExpKey) -> Vec<u64> {
    let res = runner.exp(key.0, key.1, key.2, key.3, key.4);
    let mut fp = vec![res.parallel_ns.to_bits(), res.n as u64, res.p as u64, res.verified as u64];
    for b in &res.per_pe {
        fp.extend([b.busy.to_bits(), b.lmem.to_bits(), b.rmem.to_bits(), b.sync.to_bits()]);
    }
    for ev in &res.events {
        fp.extend([
            ev.l1_hits,
            ev.cache_hits,
            ev.misses_local,
            ev.misses_remote,
            ev.interventions,
            ev.invalidations,
            ev.upgrades,
            ev.writebacks,
        ]);
    }
    for (name, b) in &res.sections {
        fp.push(name.len() as u64);
        fp.extend(name.bytes().map(u64::from));
        fp.extend([b.busy.to_bits(), b.lmem.to_bits(), b.rmem.to_bits(), b.sync.to_bits()]);
    }
    fp
}

fn small_opts() -> RunnerOpts {
    RunnerOpts {
        max_sim_n: 1 << 12,
        sizes: vec![0],
        procs: vec![4, 8],
        seed: 271828,
        verbose: false,
    }
}

fn grid() -> Vec<ExpKey> {
    let mut keys = Vec::new();
    for alg in [Algorithm::RadixCcsas, Algorithm::SampleCcsas] {
        for p in [4usize, 8] {
            for dist in [Dist::Random, Dist::Gauss] {
                keys.push((alg, 0, p, 6, dist));
            }
        }
    }
    keys
}

/// Fill the memo cache through `Runner::prefetch` (one worker per core)
/// with the keys submitted in the given order, then fingerprint every cell
/// in canonical grid order.
fn run_prefetched(submit: &[ExpKey]) -> Vec<Vec<u64>> {
    let mut runner = Runner::new(small_opts());
    runner.prefetch(submit);
    grid().iter().map(|&k| fingerprint(&mut runner, k)).collect()
}

/// Same config + seed, repeated parallel fills: bit-identical observables.
#[test]
fn repeated_runs_are_bit_identical() {
    let a = run_prefetched(&grid());
    let b = run_prefetched(&grid());
    assert_eq!(a, b, "two identical prefetch runs disagreed");
}

/// The parallel fill must agree with the plain one-by-one path — this is
/// the one-worker vs many-workers comparison: `prefetch` / `prefetch_seq`
/// hand the cells to `default_workers()` threads while `exp()` / `seq_ns()`
/// run them on the test thread.
#[test]
fn prefetch_agrees_with_sequential_exp() {
    // What `par_map` will use: a worker per core, never more than cells.
    let workers = default_workers().min(grid().len());
    if workers < 2 {
        println!("skipped: one core, so prefetch runs inline and there is nothing to compare");
        return;
    }
    println!("prefetch fills {} cells on {workers} threads", grid().len());

    let mut seq_runner = Runner::new(small_opts());
    let direct: Vec<Vec<u64>> =
        grid().iter().map(|&k| fingerprint(&mut seq_runner, k)).collect();
    let prefetched = run_prefetched(&grid());
    assert_eq!(direct, prefetched, "prefetch path disagreed with sequential exp()");

    let seq_cells = [(0, Dist::Gauss), (0, Dist::Random)];
    let mut par_runner = Runner::new(small_opts());
    par_runner.prefetch_seq(&seq_cells);
    for (si, dist) in seq_cells {
        assert_eq!(
            par_runner.seq_ns(si, dist).to_bits(),
            seq_runner.seq_ns(si, dist).to_bits(),
            "prefetch_seq disagreed with seq_ns() on {dist:?}"
        );
    }
}

/// Submission order (and duplicate submissions) must not matter: each cell
/// builds its own seeded machine, so any schedule of independent cells
/// yields the same per-cell bits.
#[test]
fn submission_order_does_not_change_results() {
    let canonical = run_prefetched(&grid());
    let mut reversed = grid();
    reversed.reverse();
    // Duplicates exercise the dedup filter in front of the parallel fill.
    let doubled: Vec<ExpKey> = reversed.iter().chain(grid().iter()).copied().collect();
    let shuffled = run_prefetched(&doubled);
    assert_eq!(canonical, shuffled, "submission order changed simulated results");
}
