//! One sorting algorithm, three programming models, one trait.
//!
//! ```text
//! cargo run --release --example programming_models [n] [p]
//! ```
//!
//! The paper's comparison is *the same radix sort* written under CC-SAS,
//! MPI and SHMEM. After the communicator refactor that sentence is literal
//! code: one radix skeleton ([`ccsort::algos::radix`]: histogram → combine
//! → permute per pass) runs over each programming model's `Communicator`,
//! whose `permute` is that model's own data movement, and
//! [`ccsort::algos::Algorithm`] is the table of pairings. This example
//! runs the table's seven radix rows — the *identical* skeleton over seven
//! transports — on the simulated Origin 2000 and prints the
//! BUSY/LMEM/RMEM/SYNC breakdowns the paper compares, including the two
//! SHMEM exchange directions (`get` vs `put`, §2), each one `permute` body
//! over the runtimes in [`ccsort::models`].

use ccsort::algos::{run_experiment, Algorithm, ExpConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1 << 18);
    let p: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);

    // Every row is the same algorithm; only the transport differs.
    let variants = Algorithm::ALL.into_iter().filter(Algorithm::is_radix);
    if let Err(e) = ExpConfig::new(Algorithm::RadixCcsas, n, p).validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }

    println!("one radix-sort skeleton x {} communicators", variants.clone().count());
    println!("n = {n} Gauss keys, p = {p} simulated processors (machine scale 1/16)\n");
    println!(
        "{:>28} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "variant", "BUSY us", "LMEM us", "RMEM us", "SYNC us", "total ms"
    );

    for alg in variants {
        // Verified against `sort_unstable` of the one shared input, so the
        // output is bit-identical across models: the skeleton owns the
        // algorithm, the communicator only moves bytes.
        let res = run_experiment(&ExpConfig::new(alg, n, p));
        assert!(res.verified, "{} must sort", alg.name());
        let mean = res.mean_breakdown();
        println!(
            "{:>28} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.2}",
            alg.name(),
            mean.busy / 1e3,
            mean.lmem / 1e3,
            mean.rmem / 1e3,
            mean.sync / 1e3,
            res.parallel_ns / 1e6
        );
    }

    println!("\nall seven instantiations produced bit-identical sorted output");
}
