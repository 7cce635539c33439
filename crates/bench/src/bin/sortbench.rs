//! `sortbench` — generate, sort and verify files of binary u32/u64 keys
//! with the real threaded library. A self-contained driver for wall-clock
//! benchmarking (e.g. under `hyperfine`) and for sanity-checking the sorts
//! on data that lives outside the process.
//!
//! ```text
//! sortbench gen <file> <n> [dist] [seed]     # write n little-endian u32 keys
//! sortbench sort <file> [algo]               # sort the file in place
//! sortbench check <file>                     # verify the file is sorted
//!
//! dist: gauss | random | zero | bucket | stagger | half | remote | local
//! algo: par-radix | par-sample | msd | merge | seq-radix | msg | shmem | std
//! ```

use std::io::{Read, Write};
use std::time::Instant;

use ccsort_algos::dist::{generate, Dist};
use ccsort_parallel::msg::radix_sort_msg;
use ccsort_parallel::sym::radix_sort_shmem;
use ccsort_parallel::{
    default_workers, par_merge_sort, par_msd_radix_sort, par_radix_sort, par_sample_sort,
    seq_radix_sort,
};

fn usage() -> ! {
    eprintln!(
        "usage:\n  sortbench gen <file> <n> [dist] [seed]\n  sortbench sort <file> [algo]\n  sortbench check <file>\n\
         \nalgo: par-radix | par-sample | msd | merge | seq-radix | msg | shmem | std"
    );
    std::process::exit(2);
}

fn read_keys(path: &str) -> Vec<u32> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(1);
        })
        .read_to_end(&mut bytes)
        .expect("read file");
    assert!(bytes.len() % 4 == 0, "file length must be a multiple of 4 bytes");
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
}

fn write_keys(path: &str, keys: &[u32]) {
    let mut bytes = Vec::with_capacity(keys.len() * 4);
    for k in keys {
        bytes.extend_from_slice(&k.to_le_bytes());
    }
    std::fs::File::create(path).expect("create file").write_all(&bytes).expect("write file");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            let dist = args
                .get(3)
                .map(|s| Dist::parse(s).unwrap_or_else(|| usage()))
                .unwrap_or(Dist::Random);
            let seed: u64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(271828);
            let t = Instant::now();
            let keys = generate(dist, n, 1, 8, seed);
            write_keys(path, &keys);
            println!(
                "wrote {n} {} keys to {path} in {:.1} ms",
                dist.name(),
                t.elapsed().as_secs_f64() * 1e3
            );
        }
        Some("sort") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let algo = args.get(2).map(String::as_str).unwrap_or("par-radix");
            let mut keys = read_keys(path);
            let t = Instant::now();
            match algo {
                "par-radix" => par_radix_sort(&mut keys),
                "par-sample" => par_sample_sort(&mut keys),
                "msd" => par_msd_radix_sort(&mut keys),
                "merge" => par_merge_sort(&mut keys),
                "seq-radix" => seq_radix_sort(&mut keys, 8),
                "msg" => radix_sort_msg(&mut keys, default_workers().max(2), 8),
                "shmem" => radix_sort_shmem(&mut keys, default_workers().max(2), 8),
                "std" => keys.sort_unstable(),
                other => {
                    eprintln!("unknown algorithm {other}");
                    usage();
                }
            }
            let elapsed = t.elapsed().as_secs_f64();
            write_keys(path, &keys);
            println!(
                "sorted {} keys with {algo} in {:.1} ms ({:.1} Mkeys/s)",
                keys.len(),
                elapsed * 1e3,
                keys.len() as f64 / elapsed / 1e6
            );
        }
        Some("check") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let keys = read_keys(path);
            match keys.windows(2).position(|w| w[0] > w[1]) {
                None => println!("{path}: sorted ({} keys)", keys.len()),
                Some(i) => {
                    eprintln!("{path}: NOT sorted at index {i}: {} > {}", keys[i], keys[i + 1]);
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}
