//! The eight key distributions of Section 3.3, visualized.
//!
//! ```text
//! cargo run --release --example distribution_gallery [n]
//! ```
//!
//! Prints an ASCII density histogram of each distribution (32 value
//! buckets) plus the first-pass communication volume it induces for the
//! radix sort — the property each was designed to exercise.

use ccsort::algos::dist::{generate, Dist, MAX_KEY};

mod support;

const BUCKETS: usize = 32;
const P: usize = 16;
const R: u32 = 8;

fn main() {
    let n = support::count_arg(1, "n", 1 << 18);

    for dist in Dist::ALL {
        let keys = generate(dist, n, P, R, 42);
        // Value-space density.
        let mut hist = [0usize; BUCKETS];
        for &k in &keys {
            hist[((k as u64 * BUCKETS as u64) / MAX_KEY) as usize] += 1;
        }
        let max = *hist.iter().max().unwrap() as f64;

        // First-pass movers: keys whose first digit leaves the home range.
        let per = n / P;
        let digits_per_proc = (1usize << R) / P;
        let movers = keys
            .iter()
            .enumerate()
            .filter(|(i, k)| {
                let src = i / per;
                let dst = ((**k as usize) & ((1 << R) - 1)) / digits_per_proc.max(1);
                src != dst.min(P - 1)
            })
            .count();

        println!(
            "\n{:>8} — {} keys, first-pass movers: {:.0}%",
            dist.name(),
            n,
            100.0 * movers as f64 / n as f64
        );
        for (b, &c) in hist.iter().enumerate() {
            let bar = "#".repeat(((c as f64 / max) * 48.0).round() as usize);
            let lo = b as u64 * MAX_KEY / BUCKETS as u64;
            println!("  {lo:>10} |{bar}");
        }
    }
}
