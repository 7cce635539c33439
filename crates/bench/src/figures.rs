//! Generators for every table and figure of the paper's evaluation section.
//!
//! Each function reruns the corresponding experiment grid on the simulator,
//! prints the same rows/series the paper reports and records the points in
//! the [`Runner`] for the JSON dump. The speedup figures use radix 8 for
//! radix sort and radix 11 for sample sort — the sizes the paper identifies
//! as good defaults — and measure speedup against the shared sequential
//! radix-sort baseline, exactly as the paper does.

//! Each grid's cells are mutually independent, so every generator first
//! *prefetches* its full experiment grid through [`Runner::prefetch`] —
//! filling the memo cache on one thread per core — and then prints from
//! the cache in the original sequential order. Output (stdout and recorded
//! JSON points) is byte-identical to sequential execution.

use ccsort_algos::{Algorithm, Dist};
use ccsort_parallel::{default_workers, par_map};

use crate::runner::{ExpKey, Runner};

/// Radix size used for radix-sort speedup figures.
const RADIX_R: u32 = 8;
/// Radix size used for sample-sort speedup figures (best for sample sort,
/// Section 4.3.2).
const SAMPLE_R: u32 = 11;

fn print_header(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Generic speedup grid: one column per algorithm.
fn speedup_grid(r: &mut Runner, artefact: &str, title: &str, algs: &[(Algorithm, u32, &str)]) {
    print_header(title);
    print!("{:>6} {:>4}", "size", "P");
    for (_, _, name) in algs {
        print!(" {name:>12}");
    }
    println!();
    let sizes = r.opts.sizes.clone();
    let procs = r.opts.procs.clone();
    let seq_cells: Vec<(usize, Dist)> = sizes.iter().map(|&si| (si, Dist::Gauss)).collect();
    r.prefetch_seq(&seq_cells);
    let keys: Vec<ExpKey> = sizes
        .iter()
        .flat_map(|&si| {
            procs.iter().flat_map(move |&p| {
                algs.iter().map(move |&(alg, rad, _)| (alg, si, p, rad, Dist::Gauss))
            })
        })
        .collect();
    r.prefetch(&keys);
    for &si in &sizes {
        let label = r.opts.label_for(si);
        let seq = r.seq_ns(si, Dist::Gauss);
        for &p in &procs {
            print!("{label:>6} {p:>4}");
            for &(alg, rad, _) in algs {
                let speedup = seq / r.exp(alg, si, p, rad, Dist::Gauss).parallel_ns;
                r.record_key(artefact, (alg, si, p, rad, Dist::Gauss), Some(speedup), None);
                print!(" {speedup:>12.1}");
            }
            println!();
        }
    }
}

/// Table 1: sequential radix-sort execution time, Gauss keys.
pub fn table1(r: &mut Runner) {
    print_header("Table 1: sequential radix sort time (Gauss), simulated");
    println!("{:>6} {:>12} {:>8} {:>14} {:>18}", "size", "n (simulated)", "scale", "time (us)", "x scale (us)");
    let seq_cells: Vec<(usize, Dist)> = r.opts.sizes.iter().map(|&si| (si, Dist::Gauss)).collect();
    r.prefetch_seq(&seq_cells);
    for &si in &r.opts.sizes.clone() {
        let n = r.opts.n_for(si);
        let scale = r.opts.scale_for(si);
        let label = r.opts.label_for(si);
        let t = r.seq_ns(si, Dist::Gauss);
        println!("{:>6} {:>12} {:>8} {:>14.0} {:>18.0}", label, n, scale, t / 1e3, t * scale as f64 / 1e3);
    }
}

/// Figure 1: radix-sort speedups, SGI (staged) vs NEW (direct) MPI.
pub fn fig1(r: &mut Runner) {
    speedup_grid(
        r,
        "fig1",
        "Figure 1: radix sort speedups for the two MPI implementations",
        &[(Algorithm::RadixMpiStaged, RADIX_R, "SGI"), (Algorithm::RadixMpiDirect, RADIX_R, "NEW")],
    );
}

/// Figure 2: sample-sort speedups, SGI vs NEW MPI.
pub fn fig2(r: &mut Runner) {
    speedup_grid(
        r,
        "fig2",
        "Figure 2: sample sort speedups for the two MPI implementations",
        &[(Algorithm::SampleMpiStaged, SAMPLE_R, "SGI"), (Algorithm::SampleMpiDirect, SAMPLE_R, "NEW")],
    );
}

/// Figure 3: radix-sort speedups for the three models (+ CC-SAS-NEW).
pub fn fig3(r: &mut Runner) {
    speedup_grid(
        r,
        "fig3",
        "Figure 3: radix sort speedups for the three models",
        &[
            (Algorithm::RadixShmem, RADIX_R, "SHMEM"),
            (Algorithm::RadixCcsas, RADIX_R, "CC-SAS"),
            (Algorithm::RadixMpiDirect, RADIX_R, "MPI"),
            (Algorithm::RadixCcsasNew, RADIX_R, "CC-SAS-NEW"),
        ],
    );
}

/// Per-processor time breakdown printer (Figures 4 and 8). Prints the mean
/// across processors plus min/max of the totals.
fn breakdown_grid(r: &mut Runner, artefact: &str, title: &str, size_idx: usize, p: usize, algs: &[(Algorithm, u32, &str)]) {
    print_header(title);
    let label = r.opts.label_for(size_idx);
    println!("(size {label}, {p} processors; mean per-processor time, us)");
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "variant", "BUSY", "LMEM", "RMEM", "SYNC", "TOTAL"
    );
    let keys: Vec<ExpKey> =
        algs.iter().map(|&(alg, rad, _)| (alg, size_idx, p, rad, Dist::Gauss)).collect();
    r.prefetch(&keys);
    for &(alg, rad, name) in algs {
        let m = r.exp(alg, size_idx, p, rad, Dist::Gauss).mean_breakdown();
        println!(
            "{:>12} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            name,
            m.busy / 1e3,
            m.lmem / 1e3,
            m.rmem / 1e3,
            m.sync / 1e3,
            m.total() / 1e3
        );
        r.record_key(artefact, (alg, size_idx, p, rad, Dist::Gauss), None, None);
        if r.opts.verbose {
            let res = r.exp(alg, size_idx, p, rad, Dist::Gauss);
            for (pe, b) in res.per_pe.iter().enumerate() {
                println!(
                    "    pe{pe:<3} busy {:>9.0} lmem {:>9.0} rmem {:>9.0} sync {:>9.0}",
                    b.busy / 1e3,
                    b.lmem / 1e3,
                    b.rmem / 1e3,
                    b.sync / 1e3
                );
            }
        }
    }
}

/// Figure 4: radix-sort per-processor time breakdown (64M keys, 64 procs).
pub fn fig4(r: &mut Runner) {
    let si = breakdown_size(r);
    let p = breakdown_procs(r);
    breakdown_grid(
        r,
        "fig4",
        "Figure 4: time breakdown for radix sort",
        si,
        p,
        &[
            (Algorithm::RadixCcsas, RADIX_R, "CC-SAS"),
            (Algorithm::RadixCcsasNew, RADIX_R, "CC-SAS-NEW"),
            (Algorithm::RadixMpiDirect, RADIX_R, "MPI"),
            (Algorithm::RadixShmem, RADIX_R, "SHMEM"),
        ],
    );
}

/// Figure 8: sample-sort per-processor time breakdown (64M keys, 64 procs).
pub fn fig8(r: &mut Runner) {
    let si = breakdown_size(r);
    let p = breakdown_procs(r);
    breakdown_grid(
        r,
        "fig8",
        "Figure 8: time breakdown for sample sort",
        si,
        p,
        &[
            (Algorithm::SampleCcsas, SAMPLE_R, "CC-SAS"),
            (Algorithm::SampleMpiDirect, SAMPLE_R, "MPI"),
            (Algorithm::SampleShmem, SAMPLE_R, "SHMEM"),
        ],
    );
}

/// The 64M-key size index if available in the configured size set, else
/// the largest configured size.
fn breakdown_size(r: &Runner) -> usize {
    r.opts.sizes.iter().copied().find(|&i| i == 3).unwrap_or_else(|| *r.opts.sizes.last().unwrap())
}

/// The paper's breakdown figures are drawn at 64 processors, the largest
/// count the machine takes: pick the largest configured count.
fn breakdown_procs(r: &Runner) -> usize {
    r.opts.procs.iter().copied().max().expect("at least one processor count")
}

/// Relative-time-by-distribution grid (Figures 5 and 9).
fn dist_grid(r: &mut Runner, artefact: &str, title: &str, alg: Algorithm, rad: u32) {
    print_header(title);
    let p = breakdown_procs(r);
    println!("({} on {p} processors; execution time relative to gauss)", alg.name());
    let sizes = r.opts.sizes.clone();
    print!("{:>8}", "dist");
    for &si in &sizes {
        print!(" {:>8}", r.opts.label_for(si));
    }
    println!();
    let keys: Vec<ExpKey> = Dist::ALL
        .iter()
        .flat_map(|&dist| sizes.iter().map(move |&si| (alg, si, p, rad, dist)))
        .collect();
    r.prefetch(&keys);
    let base: Vec<f64> =
        sizes.iter().map(|&si| r.exp(alg, si, p, rad, Dist::Gauss).parallel_ns).collect();
    for dist in Dist::ALL {
        print!("{:>8}", dist.name());
        for (k, &si) in sizes.iter().enumerate() {
            let rel = r.exp(alg, si, p, rad, dist).parallel_ns / base[k];
            r.record_key(artefact, (alg, si, p, rad, dist), None, Some(rel));
            print!(" {rel:>8.2}");
        }
        println!();
    }
}

/// Figure 5: radix sort, SHMEM, 64 procs — effect of key distribution.
pub fn fig5(r: &mut Runner) {
    dist_grid(
        r,
        "fig5",
        "Figure 5: effect of key distribution on radix sort (SHMEM)",
        Algorithm::RadixShmem,
        RADIX_R,
    );
}

/// Figure 9: sample sort, CC-SAS, 64 procs — effect of key distribution.
pub fn fig9(r: &mut Runner) {
    dist_grid(
        r,
        "fig9",
        "Figure 9: effect of key distribution on sample sort (CC-SAS)",
        Algorithm::SampleCcsas,
        SAMPLE_R,
    );
}

/// Radix-size sweep grid (Figures 6 and 10): time relative to radix 8.
fn radix_size_grid(r: &mut Runner, artefact: &str, title: &str, alg: Algorithm) {
    print_header(title);
    let p = breakdown_procs(r);
    println!("({} on {p} processors; time relative to radix 8)", alg.name());
    let sizes = r.opts.sizes.clone();
    print!("{:>6}", "r");
    for &si in &sizes {
        print!(" {:>8}", r.opts.label_for(si));
    }
    println!();
    let keys: Vec<ExpKey> = (6..=12u32)
        .flat_map(|rad| sizes.iter().map(move |&si| (alg, si, p, rad, Dist::Gauss)))
        .collect();
    r.prefetch(&keys);
    let base: Vec<f64> =
        sizes.iter().map(|&si| r.exp(alg, si, p, 8, Dist::Gauss).parallel_ns).collect();
    for rad in 6..=12u32 {
        print!("{rad:>6}");
        for (k, &si) in sizes.iter().enumerate() {
            let rel = r.exp(alg, si, p, rad, Dist::Gauss).parallel_ns / base[k];
            r.record_key(artefact, (alg, si, p, rad, Dist::Gauss), None, Some(rel));
            print!(" {rel:>8.2}");
        }
        println!();
    }
}

/// Figure 6: effect of radix size on radix sort (SHMEM, 64 procs).
pub fn fig6(r: &mut Runner) {
    radix_size_grid(r, "fig6", "Figure 6: effect of radix size on radix sort (SHMEM)", Algorithm::RadixShmem);
}

/// Figure 10: effect of radix size on sample sort (CC-SAS, 64 procs).
pub fn fig10(r: &mut Runner) {
    radix_size_grid(r, "fig10", "Figure 10: effect of radix size on sample sort (CC-SAS)", Algorithm::SampleCcsas);
}

/// Figure 7: sample-sort speedups for the three models.
pub fn fig7(r: &mut Runner) {
    speedup_grid(
        r,
        "fig7",
        "Figure 7: sample sort speedups for the three models",
        &[
            (Algorithm::SampleShmem, SAMPLE_R, "SHMEM"),
            (Algorithm::SampleCcsas, SAMPLE_R, "CC-SAS"),
            (Algorithm::SampleMpiDirect, SAMPLE_R, "MPI"),
        ],
    );
}

/// Section 3.2's sampling-strategy space: the paper notes that how samples
/// and splitters are chosen "affect\[s\] load balance and program complexity"
/// and picks 128 regular samples per process as best on its system. This
/// artefact compares strategies by time and by load imbalance.
pub fn sampling(r: &mut Runner) {
    use ccsort_algos::sample::SamplingStrategy;
    use ccsort_algos::{run_experiment, ExpConfig};
    print_header("Section 3.2: sampling strategies for sample sort (SHMEM)");
    let si = breakdown_size(r);
    let p = breakdown_procs(r);
    let n = r.opts.n_for(si);
    let scale = r.opts.scale_for(si);
    let seed = r.opts.seed;
    println!("(size {}, {p} processors; zero distribution stresses balance)", r.opts.label_for(si));
    println!("{:>24} {:>12} {:>12} {:>12} {:>12}", "strategy", "gauss ms", "imbalance", "zero ms", "imbalance");
    let strategies: [(&str, SamplingStrategy); 5] = [
        ("regular 32/pe", SamplingStrategy::Regular { per_pe: 32 }),
        ("regular 128/pe (paper)", SamplingStrategy::Regular { per_pe: 128 }),
        ("regular 512/pe", SamplingStrategy::Regular { per_pe: 512 }),
        ("random 128/pe", SamplingStrategy::Random { per_pe: 128, seed: 7 }),
        ("oversample 8p/pe", SamplingStrategy::Oversample { factor: 8 }),
    ];
    // Sampling strategies are not part of the runner's memo key, so this
    // grid parallelizes its independent cells directly; results are
    // collected in configuration order before printing.
    let cfgs: Vec<ExpConfig> = strategies
        .iter()
        .flat_map(|&(_, strat)| {
            [Dist::Gauss, Dist::Zero].into_iter().map(move |dist| {
                ExpConfig::new(Algorithm::SampleShmem, n, p)
                    .radix_bits(SAMPLE_R)
                    .dist(dist)
                    .seed(seed)
                    .scale(scale)
                    .sampling(strat)
            })
        })
        .collect();
    let results = par_map(default_workers(), &cfgs, run_experiment);
    let mut cells = results.iter();
    for (name, _) in strategies {
        print!("{name:>24}");
        for _ in [Dist::Gauss, Dist::Zero] {
            let res = cells.next().unwrap();
            assert!(res.verified);
            print!(" {:>12.1} {:>12.3}", res.parallel_ns / 1e6, res.imbalance());
        }
        println!();
    }
}

/// Per-phase profiles (the paper's instrumentation view): where each
/// program spends its time, phase by phase.
pub fn phases(r: &mut Runner) {
    print_header("Per-phase profiles (mean per-processor time, us)");
    let si = breakdown_size(r);
    let p = breakdown_procs(r);
    println!("(size {}, {p} processors)", r.opts.label_for(si));
    let algs =
        [(Algorithm::RadixCcsas, RADIX_R), (Algorithm::RadixShmem, RADIX_R), (Algorithm::SampleShmem, SAMPLE_R)];
    let keys: Vec<ExpKey> = algs.iter().map(|&(alg, rad)| (alg, si, p, rad, Dist::Gauss)).collect();
    r.prefetch(&keys);
    for (alg, rad) in algs {
        let res = r.exp(alg, si, p, rad, Dist::Gauss);
        println!("\n{}:", alg.name());
        println!("{:>14} {:>10} {:>10} {:>10} {:>10} {:>10}", "phase", "BUSY", "LMEM", "RMEM", "SYNC", "TOTAL");
        for (name, t) in &res.sections {
            if t.total() < 1.0 {
                continue;
            }
            println!(
                "{:>14} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
                name,
                t.busy / 1e3,
                t.lmem / 1e3,
                t.rmem / 1e3,
                t.sync / 1e3,
                t.total() / 1e3
            );
        }
    }
}

/// The Section-3.1 implementation tradeoff: one message per
/// contiguously-destined chunk (the paper's choice) versus one coalesced
/// IS-style message per destination with receiver-side reorganization.
pub fn tradeoff(r: &mut Runner) {
    speedup_grid(
        r,
        "tradeoff",
        "Section 3.1 tradeoff: chunk-per-message vs coalesced MPI radix sort",
        &[
            (Algorithm::RadixMpiDirect, RADIX_R, "per-chunk"),
            (Algorithm::RadixMpiCoalesced, RADIX_R, "coalesced"),
        ],
    );
}

/// The Section-2 get-vs-put experiment the paper argues from but does not
/// plot: SHMEM radix sort with receiver-initiated `get` (the paper's
/// program) against sender-initiated `put`. A `get` deposits the exchanged
/// keys in the destination cache, so the exchange pays remote time the next
/// pass never repays; a `put` charges the exchange less but leaves the
/// destination cold, shifting the cost into the next histogram sweep's
/// local misses. The per-phase rows make the shift visible.
pub fn putget(r: &mut Runner) {
    print_header("Section 2 get vs put: SHMEM radix-sort exchange direction");
    let si = breakdown_size(r);
    let p = breakdown_procs(r);
    println!("(size {}, {p} processors; mean per-processor phase time, us)", r.opts.label_for(si));
    let algs = [
        (Algorithm::RadixShmem, "get (shmem)"),
        (Algorithm::RadixShmemPut, "put (shmem-put)"),
    ];
    let keys: Vec<ExpKey> =
        algs.iter().map(|&(alg, _)| (alg, si, p, RADIX_R, Dist::Gauss)).collect();
    r.prefetch(&keys);
    for (alg, name) in algs {
        let res = r.exp(alg, si, p, RADIX_R, Dist::Gauss).clone();
        r.record_key("putget", (alg, si, p, RADIX_R, Dist::Gauss), None, None);
        println!("\n{name}: total {:.2} ms", res.parallel_ns / 1e6);
        println!("{:>14} {:>10} {:>10} {:>10} {:>10} {:>10}", "phase", "BUSY", "LMEM", "RMEM", "SYNC", "TOTAL");
        for (phase, t) in &res.sections {
            if t.total() < 1.0 {
                continue;
            }
            println!(
                "{:>14} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
                phase,
                t.busy / 1e3,
                t.lmem / 1e3,
                t.rmem / 1e3,
                t.sync / 1e3,
                t.total() / 1e3
            );
        }
    }
}

/// The future-work artefact: the closed-form prediction formula versus the
/// simulator, per model and size (radix sort, largest configured processor
/// count).
pub fn predict(r: &mut Runner) {
    use ccsort_algos::predict::{predict_radix, PredictModel};
    use ccsort_machine::MachineConfig;
    print_header("Prediction: closed-form formula vs simulation (radix sort)");
    let p = breakdown_procs(r);
    println!("({p} processors; cell = predicted ms / simulated ms)");
    print!("{:>6}", "size");
    for m in PredictModel::ALL {
        print!(" {:>22}", m.name());
    }
    println!();
    let keys: Vec<ExpKey> = r
        .opts
        .sizes
        .iter()
        .flat_map(|&si| {
            PredictModel::ALL.iter().map(move |m| (m.algorithm(), si, p, RADIX_R, Dist::Gauss))
        })
        .collect();
    r.prefetch(&keys);
    for &si in &r.opts.sizes.clone() {
        let n = r.opts.n_for(si);
        let scale = r.opts.scale_for(si);
        let label = r.opts.label_for(si);
        print!("{label:>6}");
        for model in PredictModel::ALL {
            let cfg = MachineConfig::origin2000(p).scaled_down(scale);
            let predicted = predict_radix(&cfg, model, n, p, RADIX_R).total();
            let simulated = r.exp(model.algorithm(), si, p, RADIX_R, Dist::Gauss).parallel_ns;
            print!(" {:>10.1} /{:>9.1}", predicted / 1e6, simulated / 1e6);
        }
        println!();
    }
}

/// Radix sizes searched when computing "best" times (Tables 2 and 3). The
/// paper's own best sizes all fall in this set.
const BEST_RADIX_SET: [u32; 4] = [8, 10, 11, 12];

const RADIX_MODELS: [(Algorithm, &str); 4] = [
    (Algorithm::RadixCcsas, "CC-SAS"),
    (Algorithm::RadixCcsasNew, "CC-SAS"),
    (Algorithm::RadixMpiDirect, "MPI"),
    (Algorithm::RadixShmem, "SHMEM"),
];

const SAMPLE_MODELS: [(Algorithm, &str); 3] = [
    (Algorithm::SampleCcsas, "CC-SAS"),
    (Algorithm::SampleMpiDirect, "MPI"),
    (Algorithm::SampleShmem, "SHMEM"),
];

fn best_of(r: &mut Runner, models: &[(Algorithm, &'static str)], si: usize, p: usize) -> (f64, Algorithm, &'static str, u32) {
    let mut best: Option<(f64, Algorithm, &'static str, u32)> = None;
    for &(alg, model_name) in models {
        for &rad in &BEST_RADIX_SET {
            let t = r.exp(alg, si, p, rad, Dist::Gauss).parallel_ns;
            if best.is_none_or(|(bt, _, _, _)| t < bt) {
                best = Some((t, alg, model_name, rad));
            }
        }
    }
    best.unwrap()
}

/// Tables 2 and 3: best execution time per (size, procs) for each
/// algorithm, and the (model, radix) combination that achieves it.
pub fn table2_and_3(r: &mut Runner) {
    print_header("Table 2: best execution time (us) with Gauss keys");
    println!(
        "{:>6} {:>4} | {:>12} {:>18} | {:>12} {:>18}",
        "size", "P", "radix (us)", "radix best", "sample (us)", "sample best"
    );
    let sizes = r.opts.sizes.clone();
    let procs = r.opts.procs.clone();
    let keys: Vec<ExpKey> = sizes
        .iter()
        .flat_map(|&si| {
            procs.iter().flat_map(move |&p| {
                RADIX_MODELS.iter().chain(SAMPLE_MODELS.iter()).flat_map(move |&(alg, _)| {
                    BEST_RADIX_SET.iter().map(move |&rad| (alg, si, p, rad, Dist::Gauss))
                })
            })
        })
        .collect();
    r.prefetch(&keys);
    for &si in &sizes {
        let label = r.opts.label_for(si);
        for &p in &procs {
            let (rt, ralg, rmodel, rr) = best_of(r, &RADIX_MODELS, si, p);
            let (st, salg, smodel, sr) = best_of(r, &SAMPLE_MODELS, si, p);
            r.record_key("table2-radix", (ralg, si, p, rr, Dist::Gauss), None, None);
            r.record_key("table2-sample", (salg, si, p, sr, Dist::Gauss), None, None);
            println!(
                "{:>6} {:>4} | {:>12.0} {:>12} r={:<3} | {:>12.0} {:>12} r={:<3}",
                label,
                p,
                rt / 1e3,
                rmodel,
                rr,
                st / 1e3,
                smodel,
                sr
            );
        }
    }
    println!();
    println!("(Table 3 is the 'best' columns above: winning model and radix size per cell.)");
}
