//! `ablate` — mechanism on/off studies for the simulator's design choices.
//!
//! ```text
//! cargo run --release -p ccsort-bench --bin ablate [-- n p scale]
//! ```
//!
//! DESIGN.md attributes each of the paper's headline effects to a specific
//! modelled mechanism. This binary re-runs five radix-sort variants
//! (the most mechanism-sensitive programs) with one mechanism disabled at a
//! time and prints how each variant's time moves — evidence that the
//! reproduced shapes come from the intended causes and not from tuning
//! accidents:
//!
//! * **no-retry** — scattered remote writes pay the plain scattered stall
//!   instead of the NACK/retry storm (`write_stall_scattered_remote`);
//!   expected: original CC-SAS recovers, others unchanged.
//! * **no-contention** — controller occupancy priced at zero; expected:
//!   CC-SAS recovers further, bulk-transfer models barely move.
//! * **no-tlb** — TLB refills free; expected: CC-SAS (whose permutation
//!   walks 2^r scattered pages) speeds up most.
//! * **virtual-cache** — disable physically-indexed set selection;
//!   expected: CC-SAS's page-strided write cursors alias (a slowdown a
//!   real OS's page scatter prevents), bulk-transfer models barely move.
//! * **free-messages** — software overheads of MPI/SHMEM set to zero;
//!   expected: MPI/SHMEM gain, CC-SAS untouched, small sizes most of all.
//!
//! A second table swaps the coherence protocol (invalidate → Dragon
//! update) instead of zeroing a mechanism, against the same baseline.

use ccsort_algos::dist::{generate, Dist};
use ccsort_algos::{load_keys, Algorithm, ExpConfig, SamplingStrategy};
use ccsort_machine::{Machine, MachineConfig, ProtocolMode};

const VARIANTS: [(Algorithm, &str); 5] = [
    (Algorithm::RadixCcsas, "CC-SAS"),
    (Algorithm::RadixCcsasNew, "CC-SAS-NEW"),
    (Algorithm::RadixMpiDirect, "MPI(NEW)"),
    (Algorithm::RadixShmem, "SHMEM"),
    (Algorithm::RadixShmemPut, "SHMEM(PUT)"),
];

fn run(cfg: MachineConfig, variant: Algorithm, n: usize, p: usize, r: u32) -> f64 {
    let mut m = Machine::new(cfg);
    let input = generate(Dist::Gauss, n, p, r, 271828);
    let keys = load_keys(&mut m, &input);
    let out = variant.sort(&mut m, keys, n, r, SamplingStrategy::default());
    let mut expect = input;
    expect.sort_unstable();
    assert_eq!(m.raw(out), &expect[..], "ablated run must still sort");
    m.parallel_time()
}

/// Positional argument `i` as a count, `default` when absent. A value that
/// does not parse is a usage error: exit 2 naming `name`.
fn count_arg(i: usize, name: &str, default: usize) -> usize {
    let Some(s) = std::env::args().nth(i) else { return default };
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid {name}: {s:?} is not a non-negative integer");
        std::process::exit(2)
    })
}

fn main() {
    let n = count_arg(1, "n", 1 << 19);
    let p = count_arg(2, "p", 32);
    let scale = count_arg(3, "scale", 4);
    let r = 8;
    // The ablated machines are built by hand below, so check what the
    // experiment driver would have checked.
    if let Err(e) = ExpConfig::new(VARIANTS[0].0, n, p).scale(scale).validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }

    let base_cfg = || MachineConfig::origin2000(p).scaled_down(scale);

    let ablations: Vec<(&str, MachineConfig)> = vec![
        ("baseline", base_cfg()),
        ("no-retry", {
            let mut c = base_cfg();
            c.write_stall_scattered_remote = c.write_stall_scattered;
            c
        }),
        ("no-contention", {
            let mut c = base_cfg();
            c.ctrl_occ_ns = 0.0;
            c.data_occ_ns = 0.0;
            c
        }),
        ("no-tlb", {
            let mut c = base_cfg();
            c.tlb_miss_ns = 0.0;
            c
        }),
        ("virtual-cache", {
            let mut c = base_cfg();
            c.physical_cache_indexing = false;
            c
        }),
        ("free-messages", {
            let mut c = base_cfg();
            c.mpi_send_overhead_ns = 0.0;
            c.mpi_recv_overhead_ns = 0.0;
            c.mpi_staged_extra_ns = 0.0;
            c.shmem_overhead_ns = 0.0;
            c
        }),
    ];

    println!("radix sort ablations: n = {n}, p = {p}, machine scale 1/{scale}, radix {r}");
    println!("(cell = time relative to that variant's baseline; < 1.0 means the mechanism was costing time)\n");
    print!("{:>16}", "ablation");
    for (_, name) in VARIANTS {
        print!(" {name:>12}");
    }
    println!();

    let baselines: Vec<f64> =
        VARIANTS.iter().map(|&(v, _)| run(base_cfg(), v, n, p, r)).collect();
    for (label, cfg) in &ablations {
        print!("{label:>16}");
        for (k, &(v, _)) in VARIANTS.iter().enumerate() {
            let t = run(cfg.clone(), v, n, p, r);
            print!(" {:>12.3}", t / baselines[k]);
        }
        println!();
    }

    println!("\nabsolute baseline times (ms):");
    for (k, (_, name)) in VARIANTS.iter().enumerate() {
        println!("{name:>12}: {:>10.2}", baselines[k] / 1e6);
    }

    // Protocol ablation: swap the coherence protocol instead of zeroing a
    // cost. The invalidate row is the default machine above, so every cell
    // reads as "time under this protocol relative to the paper machine".
    println!("\nprotocol modes (same relative-to-baseline cells):");
    print!("{:>16}", "mode");
    for (_, name) in VARIANTS {
        print!(" {name:>12}");
    }
    println!();
    for proto in [ProtocolMode::Invalidate, ProtocolMode::DragonUpdate] {
        let cfg = base_cfg().with_protocol(proto);
        print!("{:>16}", proto.to_string());
        for (k, &(v, _)) in VARIANTS.iter().enumerate() {
            let t = run(cfg.clone(), v, n, p, r);
            print!(" {:>12.3}", t / baselines[k]);
        }
        println!();
    }
}
