//! Quickstart: parallel sorting on this machine.
//!
//! ```text
//! cargo run --release --example quickstart [n]
//! ```
//!
//! Sorts `n` random 32-bit keys (default 4M) three ways — the thread-
//! parallel radix sort, the thread-parallel sample sort and the standard
//! library's `sort_unstable` — verifies they agree, and prints wall-clock
//! times.

use std::time::Instant;

use ccsort::parallel::{par_radix_sort, par_sample_sort, seq_radix_sort};

mod support;

fn main() {
    let n = support::count_arg(1, "n", 1 << 22);

    // Deterministic pseudo-random input.
    let mut rng = ccsort_rng::SplitMix64::seed_from_u64(1);
    let keys: Vec<u32> = (0..n).map(|_| rng.random()).collect();
    println!("sorting {n} random u32 keys with {} thread(s)", ccsort::parallel::default_workers());

    let mut reference = keys.clone();
    let t = Instant::now();
    reference.sort_unstable();
    println!("{:>22}: {:>8.1} ms", "std sort_unstable", t.elapsed().as_secs_f64() * 1e3);

    let mut a = keys.clone();
    let t = Instant::now();
    seq_radix_sort(&mut a, 8);
    println!("{:>22}: {:>8.1} ms", "sequential radix", t.elapsed().as_secs_f64() * 1e3);
    assert_eq!(a, reference);

    let mut b = keys.clone();
    let t = Instant::now();
    par_radix_sort(&mut b);
    println!("{:>22}: {:>8.1} ms", "parallel radix", t.elapsed().as_secs_f64() * 1e3);
    assert_eq!(b, reference);

    let mut c = keys.clone();
    let t = Instant::now();
    par_sample_sort(&mut c);
    println!("{:>22}: {:>8.1} ms", "parallel sample", t.elapsed().as_secs_f64() * 1e3);
    assert_eq!(c, reference);

    println!("all outputs verified identical");
}
