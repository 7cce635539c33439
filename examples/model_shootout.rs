//! A miniature of the paper's headline comparison (Figures 3 and 7):
//! which (algorithm, programming model) combination wins where?
//!
//! ```text
//! cargo run --release --example model_shootout [p] [scale]
//! ```
//!
//! Sweeps data-set sizes on the simulated Origin 2000 with `p` processors
//! (default 16) at machine scale `1/scale` (default 64 — small and fast;
//! use 16 for the fidelity the paper-reproduction harness uses), printing
//! speedups over the shared sequential radix-sort baseline. Watch for the
//! paper's two regimes: sample sort / CC-SAS win while the per-processor
//! data is small, radix sort / SHMEM win once it is large.

use ccsort::algos::{run_experiment, run_sequential_baseline, Algorithm, Dist, ExpConfig};

mod support;

fn main() {
    let p = support::count_arg(1, "p", 16);
    let scale = support::count_arg(2, "scale", 64);

    let combos: &[(Algorithm, u32)] = &[
        (Algorithm::RadixCcsas, 8),
        (Algorithm::RadixCcsasNew, 8),
        (Algorithm::RadixMpiDirect, 8),
        (Algorithm::RadixShmem, 8),
        (Algorithm::SampleCcsas, 11),
        (Algorithm::SampleMpiDirect, 11),
        (Algorithm::SampleShmem, 11),
    ];

    println!("speedups on {p} simulated processors (machine scale 1/{scale}, Gauss keys)\n");
    print!("{:>10}", "keys");
    for (alg, _) in combos {
        print!(" {:>16}", alg.name());
    }
    println!();

    for shift in [14usize, 16, 18, 20] {
        let n = 1usize << shift;
        let seq = run_sequential_baseline(n, 8, Dist::Gauss, 271828, scale, 1);
        assert!(seq.verified);
        print!("{:>10}", n);
        let mut best = (f64::MIN, "");
        for &(alg, r) in combos {
            let res =
                run_experiment(&ExpConfig::new(alg, n, p).radix_bits(r).scale(scale));
            assert!(res.verified);
            let speedup = seq.time_ns / res.parallel_ns;
            if speedup > best.0 {
                best = (speedup, alg.name());
            }
            print!(" {speedup:>16.1}");
        }
        println!("   <- best: {}", best.1);
    }
}
