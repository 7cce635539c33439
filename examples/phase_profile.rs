//! Per-phase profiling: where does each sorting program spend its time?
//!
//! ```text
//! cargo run --release --example phase_profile [n] [p]
//! ```
//!
//! Runs the paper's main programs on the simulated Origin 2000 and prints
//! each one's per-phase BUSY/LMEM/RMEM/SYNC profile — the instrumentation
//! view behind the paper's Section 4 analysis. Watch the CC-SAS radix
//! permutation phase dwarf everything else while the SHMEM version splits
//! the same work into a cheap local permutation plus a bulk exchange.

use ccsort::algos::{run_experiment, Algorithm, ExpConfig};

mod support;

fn main() {
    let n = support::count_arg(1, "n", 1 << 19);
    let p = support::count_arg(2, "p", 32);

    println!("per-phase profiles, n = {n} Gauss keys, {p} simulated processors\n");
    for (alg, r) in [
        (Algorithm::RadixCcsas, 8),
        (Algorithm::RadixCcsasNew, 8),
        (Algorithm::RadixShmem, 8),
        (Algorithm::SampleShmem, 11),
    ] {
        let res = run_experiment(&ExpConfig::new(alg, n, p).radix_bits(r).scale(8));
        assert!(res.verified);
        println!("{} (total {:.2} ms):", alg.name(), res.parallel_ns / 1e6);
        println!(
            "  {:>14} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "phase", "BUSY us", "LMEM us", "RMEM us", "SYNC us", "TOTAL us"
        );
        for (name, t) in &res.sections {
            if t.total() < 1e3 {
                continue;
            }
            println!(
                "  {:>14} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0}",
                name,
                t.busy / 1e3,
                t.lmem / 1e3,
                t.rmem / 1e3,
                t.sync / 1e3,
                t.total() / 1e3
            );
        }
        println!();
    }
}
