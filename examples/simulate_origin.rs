//! Run one of the paper's experiments on the simulated Origin 2000.
//!
//! ```text
//! cargo run --release --example simulate_origin [algorithm] [n] [p]
//! ```
//!
//! Simulates the chosen sorting program (default: radix sort under SHMEM)
//! on `p` processors (default 16) with `n` keys (default 256K, a 1/16-scale
//! stand-in for the paper's 4M configuration), verifies the sorted output,
//! and prints the speedup over the simulated sequential baseline along
//! with the per-processor BUSY/LMEM/RMEM/SYNC breakdown — the same numbers
//! behind the paper's Figures 3, 4, 7 and 8.

use ccsort::algos::{run_experiment, run_sequential_baseline, Algorithm, Dist, ExpConfig};

mod support;

fn main() {
    let alg = std::env::args()
        .nth(1)
        .map(|s| Algorithm::parse(&s).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }))
        .unwrap_or(Algorithm::RadixShmem);
    let n = support::count_arg(2, "n", 1 << 18);
    let p = support::count_arg(3, "p", 16);

    // Validate user-supplied parameters up front: a bad p or n is a usage
    // error with the offending field named, not a panic mid-simulation.
    let cfg = ExpConfig::new(alg, n, p);
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }

    println!("simulating {} on {p} processors, n = {n} Gauss keys (machine scale 1/16)", alg.name());

    let seq = run_sequential_baseline(n, 8, Dist::Gauss, 271828, 16, 1);
    assert!(seq.verified);
    println!("sequential baseline: {:>10.2} ms simulated", seq.time_ns / 1e6);

    let res = run_experiment(&cfg);
    assert!(res.verified, "output must be a sorted permutation of the input");
    println!("parallel time:       {:>10.2} ms simulated", res.parallel_ns / 1e6);
    println!("speedup:             {:>10.1}x", seq.time_ns / res.parallel_ns);

    let mean = res.mean_breakdown();
    println!("\nmean per-processor time breakdown (us):");
    println!(
        "  BUSY {:>10.0}   LMEM {:>10.0}   RMEM {:>10.0}   SYNC {:>10.0}",
        mean.busy / 1e3,
        mean.lmem / 1e3,
        mean.rmem / 1e3,
        mean.sync / 1e3
    );

    let ev0 = res.events[0];
    println!("\nprocessor 0 event counters:");
    println!(
        "  cache hits {:>10}   local misses {:>8}   remote misses {:>8}",
        ev0.cache_hits, ev0.misses_local, ev0.misses_remote
    );
    println!(
        "  invalidations {:>7}   interventions {:>7}   writebacks {:>10}",
        ev0.invalidations, ev0.interventions, ev0.writebacks
    );
    println!("  TLB misses {:>10}   messages {:>12}   bytes sent {:>10}", ev0.tlb_misses, ev0.messages, ev0.message_bytes);
}
