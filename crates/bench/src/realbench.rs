//! `realbench` — head-to-head sorting benchmarks on the actual host, the
//! real-hardware counterpart of `BENCH_simulator.json`.
//!
//! The grid pits this library's parallel radix sorts against
//! `slice::sort_unstable` and a parallel `sort_unstable` + merge across input
//! distributions (uniform, zipf-skewed, nearly-sorted, duplicate-heavy, one
//! outlier), key kinds (u32, u64, key+payload pairs) and thread counts, with the
//! best-of-N discipline of `simbench`: every cell is measured `reps`
//! times interleaved and the fastest wall time wins, so turbo/thermal
//! drift cannot bias late-running variants.
//!
//! Two radix rows run the one engine on its two schedules:
//!
//! * `radix_lsd` — [`RadixSortConfig::simple`]: one coalesced permute per
//!   live pass, the paper's parallel radix sort;
//! * `radix` — the default configuration, which partitions once on the top
//!   live digit, finishes the buckets in cache (MSD-first) and sends a
//!   bucket too big for that back through the engine.
//!
//! The `u32` combos also carry the `spmd` block ([`SPMD`]): the paper's
//! radix and sample sorts, each over the direct, message and symmetric
//! transports — the comparison the paper makes, next to the engine.
//!
//! Which pass schedule the engine chose for a radix row ([`Schedule`],
//! with the number of heavy top-level buckets) is printed at the end of its
//! progress line, so `radix` vs `radix_lsd` measures exactly the schedule
//! choice, and under it the fastest repetition's wall time phase by phase
//! ([`Phases`]): where the row's time went, not just how much of it.
//! Every timed sort is verified (untimed) to be a sorted permutation of
//! its input — and bit-identical, stable order for pairs — before its time
//! is accepted.
//!
//! The JSON is written by hand (like `simbench`) so the format is
//! identical on every toolchain, and includes a `machine` block: thread
//! counts above the host's available cores are honest oversubscription,
//! not parallel speedup, and the file says so.

use std::collections::BTreeMap;
use std::time::Instant;

use ccsort_parallel::radix::Phases;
use ccsort_parallel::spmd::programs;
use ccsort_parallel::{
    is_sorted, multiset_fingerprint, par_radix_sort_pairs_with_scratch,
    par_radix_sort_with_scratch, RadixKey, RadixSortConfig, Schedule, SortScratch,
};
use ccsort_rng::SplitMix64;

/// Input distribution of the keys to sort.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dist {
    /// Independent uniform keys.
    Uniform,
    /// Zipf-skewed key popularity (YCSB-style, theta = 0.99): a handful of
    /// hot keys dominate, so a few radix buckets hold most of the input.
    Zipf,
    /// Ascending keys with 1% random swaps.
    NearlySorted,
    /// Sixteen distinct values.
    DupHeavy,
    /// Uniform keys below 2^24 and one key with bit 31 set: the top digit
    /// is live, and all keys but one share it.
    OneOutlier,
}

impl Dist {
    pub fn name(self) -> &'static str {
        match self {
            Dist::Uniform => "uniform",
            Dist::Zipf => "zipf",
            Dist::NearlySorted => "nearly_sorted",
            Dist::DupHeavy => "dup_heavy",
            Dist::OneOutlier => "one_outlier",
        }
    }
}

/// YCSB-style zipfian rank sampler over `0..n` with parameter `theta`.
pub struct Zipf {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 1 && theta > 0.0 && theta < 1.0);
        let mut zetan = 0.0f64;
        for i in 1..=n {
            zetan += 1.0 / (i as f64).powf(theta);
        }
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        Zipf {
            n: n as f64,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Map a uniform sample in [0, 1) to a zipf-distributed rank (0 is the
    /// hottest).
    pub fn sample(&self, u: f64) -> usize {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        r.min(self.n as usize - 1)
    }
}

/// Generate `n` keys of `dist` as u64 ranks/values; kind-specific widths
/// map these down. Seeded, so every run of the bench sorts the same arrays.
fn gen_raw(n: usize, dist: Dist, seed: u64, zipf_cache: &mut BTreeMap<usize, Zipf>) -> Vec<u64> {
    let mut s = SplitMix64::seed_from_u64(seed);
    match dist {
        Dist::Uniform => (0..n).map(|_| s.next_u64()).collect(),
        Dist::Zipf => {
            let z = zipf_cache.entry(n).or_insert_with(|| Zipf::new(n, 0.99));
            (0..n)
                .map(|_| {
                    let u = (s.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    // Spread the rank over the key space with an odd
                    // multiplier: a bijection, so the popularity skew (and
                    // the huge radix buckets it creates) is preserved while
                    // every digit position still varies.
                    (z.sample(u) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                })
                .collect()
        }
        Dist::NearlySorted => {
            let mut v: Vec<u64> = (0..n as u64).collect();
            let swaps = n / 100;
            for _ in 0..swaps {
                let i = (s.next_u64() as usize) % n;
                let j = (s.next_u64() as usize) % n;
                v.swap(i, j);
            }
            v
        }
        Dist::DupHeavy => {
            let pool: Vec<u64> = (0..16).map(|_| s.next_u64()).collect();
            (0..n).map(|_| pool[(s.next_u64() & 15) as usize]).collect()
        }
        Dist::OneOutlier => {
            let mut v: Vec<u64> = (0..n).map(|_| s.next_u64() & 0xFF_FFFF).collect();
            v[n / 3] |= 1 << 31;
            v
        }
    }
}

/// The algorithms under test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    /// `slice::sort_unstable` — the single-threaded comparison baseline.
    Std,
    /// [`par_sort_unstable_baseline`] — the parallel comparison baseline.
    ParMerge,
    /// [`RadixSortConfig::simple`]: the engine held to its LSD schedule.
    RadixLsd,
    /// The default configuration: the schedule chosen from the data.
    Radix,
    /// One of [`SPMD`]: a paper program over a transport.
    Spmd(usize),
}

/// The `spmd` block, the paper's Fig 3 / Fig 7 axis on real threads: its
/// two programs × the three transports, in the order of
/// [`ccsort_parallel::spmd::programs`], each with the digit width the paper
/// settles on — 8 bits for radix sort, 11 for sample sort's local sorts.
pub const SPMD: [(&str, u32); 6] = [
    ("spmd_radix_direct", 8),
    ("spmd_radix_message", 8),
    ("spmd_radix_symmetric", 8),
    ("spmd_sample_direct", 11),
    ("spmd_sample_message", 11),
    ("spmd_sample_symmetric", 11),
];

impl Algo {
    pub fn name(self) -> &'static str {
        match self {
            Algo::Std => "std_sort_unstable",
            Algo::ParMerge => "par_sort_unstable_baseline",
            Algo::RadixLsd => "radix_lsd",
            Algo::Radix => "radix",
            Algo::Spmd(i) => SPMD[i].0,
        }
    }

    /// The radix configuration for this algorithm pinned to `threads`
    /// workers, or `None` for the comparison-sort baselines.
    fn radix_config(self, threads: usize) -> Option<RadixSortConfig> {
        let base = match self {
            Algo::Std | Algo::ParMerge | Algo::Spmd(_) => return None,
            Algo::RadixLsd => RadixSortConfig::simple(),
            Algo::Radix => RadixSortConfig::default(),
        };
        Some(RadixSortConfig { chunks: Some(threads), ..base })
    }
}

/// The parallel comparison baseline: `threads` sorted runs built with
/// `sort_unstable` in parallel, then pairwise parallel merges, on
/// `std::thread`.
pub fn par_sort_unstable_baseline<T: Copy + Ord + Default + Send + Sync>(
    v: &mut [T],
    threads: usize,
) {
    let n = v.len();
    let t = threads.clamp(1, n.max(1));
    if t <= 1 || n < 2 {
        v.sort_unstable();
        return;
    }
    let chunk = n.div_ceil(t);
    std::thread::scope(|s| {
        for part in v.chunks_mut(chunk) {
            s.spawn(move || part.sort_unstable());
        }
    });
    let mut runs: Vec<(usize, usize)> = (0..t)
        .map(|i| (i * chunk, ((i + 1) * chunk).min(n)))
        .filter(|r| r.0 < r.1)
        .collect();
    let mut scratch = vec![T::default(); n];
    let mut in_v = true;
    while runs.len() > 1 {
        let (src, dst): (&[T], &mut [T]) =
            if in_v { (&*v, &mut scratch) } else { (&*scratch, v) };
        let mut next_runs = Vec::with_capacity(runs.len().div_ceil(2));
        std::thread::scope(|s| {
            let mut tail = dst;
            for pair in runs.chunks(2) {
                let (start, end) = (pair[0].0, pair.last().unwrap().1);
                let (seg, rest) = tail.split_at_mut(end - start);
                tail = rest;
                next_runs.push((start, end));
                if let [a, b] = pair {
                    let (a, b) = (&src[a.0..a.1], &src[b.0..b.1]);
                    s.spawn(move || merge_into(a, b, seg));
                } else {
                    seg.copy_from_slice(&src[start..end]);
                }
            }
        });
        runs = next_runs;
        in_v = !in_v;
    }
    if !in_v {
        v.copy_from_slice(&scratch);
    }
}

fn merge_into<T: Copy + Ord>(a: &[T], b: &[T], out: &mut [T]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut i, mut j) = (0usize, 0usize);
    for slot in out.iter_mut() {
        *slot = if j >= b.len() || (i < a.len() && a[i] <= b[j]) {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
    }
}

/// Key layout of a row.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    U32,
    U64,
    /// u32 keys with u32 payloads (original index), sorted stably.
    PairsU32,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::U32 => "u32",
            Kind::U64 => "u64",
            Kind::PairsU32 => "pairs_u32",
        }
    }
}

/// One measured grid cell.
#[derive(Clone, Debug)]
pub struct Row {
    pub kind: &'static str,
    pub algo: &'static str,
    pub dist: &'static str,
    pub n: usize,
    pub threads: usize,
    pub reps: usize,
    pub best_wall_s: f64,
    pub mkeys_per_sec: f64,
    /// How the radix engine ran the sort (`None` for every other algorithm):
    /// which schedule a row measured is printed, not inferred.
    pub schedule: Option<Schedule>,
    /// The engine's phase breakdown of the fastest repetition (`None` for
    /// every other algorithm).
    pub phases: Option<Phases>,
}

/// What the radix engine reports about a cell's sorts: the schedule, and
/// the phases of the fastest one.
#[derive(Default)]
struct EngineReport {
    schedule: Option<Schedule>,
    phases: Option<Phases>,
}

impl EngineReport {
    fn record<K: Copy + Default, V: Copy + Default>(&mut self, scratch: &SortScratch<K, V>) {
        self.schedule = scratch.last_schedule();
        match (self.phases, scratch.last_phases()) {
            (Some(best), Some(p)) if best.total <= p.total => {}
            (_, p) => self.phases = p,
        }
    }
}

/// The phases of an engine sort on one line, in ms, with the serial glue
/// the parts leave out.
fn phase_line(p: &Phases) -> String {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let count = p.first_count.map_or("fused".to_string(), |d| format!("{:.1}", ms(d)));
    format!(
        "fold {:.1} · first count {count} · permute {:.1} · buckets {:.1} · deeper {:.1} · glue {:.1} = {:.1} ms",
        ms(p.fold),
        ms(p.permute),
        ms(p.buckets),
        ms(p.deeper),
        ms(p.total - p.parts()),
        ms(p.total)
    )
}

/// Bench options: the grid and the measurement discipline.
pub struct RealBenchOpts {
    /// Input sizes per combo (largest drives the headline assertions).
    pub sizes: Vec<usize>,
    /// Thread counts for the parallel algorithms.
    pub threads: Vec<usize>,
    /// Interleaved repetitions per cell; best (minimum) wall time wins.
    pub reps: usize,
}

impl RealBenchOpts {
    /// The committed-artifact grid: 1M and 16M keys, thread sweep to 8.
    pub fn full() -> Self {
        let mut threads = vec![1, 2, 4, 8];
        let avail = available_cores();
        if avail > 8 {
            threads.push(avail);
        }
        RealBenchOpts { sizes: vec![1 << 20, 1 << 24], threads, reps: 3 }
    }

    /// The CI grid: 16M keys (the size where the asserted relations are
    /// out-of-cache and robust), {1, max} threads — minutes, not tens of
    /// them.
    pub fn quick() -> Self {
        RealBenchOpts { sizes: vec![1 << 24], threads: vec![1, available_cores().max(2)], reps: 3 }
    }
}

pub fn available_cores() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Best-of-`reps` wall time for one closure over a cloneable input. The
/// clone and the verification run outside the timed region.
fn best_of<T: Clone, F: FnMut(&mut T)>(input: &T, reps: usize, mut sort: F, verify: impl Fn(&T)) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let mut v = input.clone();
        let t0 = Instant::now();
        sort(&mut v);
        let dt = t0.elapsed().as_secs_f64();
        if rep == 0 {
            verify(&v);
        }
        best = best.min(dt);
    }
    best
}

/// Measure one keys-only cell: `input` sorted by `algo` on `threads`.
fn run_keys<K: RadixKey + Default + Send>(
    input: Vec<K>,
    algo: Algo,
    threads: usize,
    reps: usize,
    report: &mut EngineReport,
) -> f64 {
    let fp = multiset_fingerprint(&input);
    let verify = |v: &Vec<K>| {
        assert!(is_sorted(v), "{} produced unsorted output", algo.name());
        assert_eq!(fp, multiset_fingerprint(v), "{} lost keys", algo.name());
    };
    match algo {
        Algo::Std => best_of(&input, reps, |v| v.sort_unstable(), verify),
        Algo::ParMerge => best_of(&input, reps, |v| par_sort_unstable_baseline(v, threads), verify),
        Algo::Spmd(i) => {
            let (sort, radix_bits) = (programs()[i].1, SPMD[i].1);
            best_of(&input, reps, |v| sort(v, threads, radix_bits), verify)
        }
        Algo::RadixLsd | Algo::Radix => {
            let cfg = algo.radix_config(threads).expect("a radix row");
            best_of(
                &input,
                reps,
                |v| {
                    let mut scratch = SortScratch::<_, ()>::new();
                    par_radix_sort_with_scratch(v, &cfg, &mut scratch);
                    report.record(&scratch);
                },
                verify,
            )
        }
    }
}

/// Measure one `(kind, algo, dist, n, threads)` cell. `raw` is the
/// distribution sample as u64. The radix rows sort through a fresh
/// [`SortScratch`] inside the timed region — what `par_radix_sort_with`
/// does internally — so the engine's schedule and phases can be read back.
fn run_cell(
    kind: Kind,
    algo: Algo,
    raw: &[u64],
    threads: usize,
    reps: usize,
) -> (f64, EngineReport) {
    let n = raw.len();
    let mut report = EngineReport::default();
    let best = match kind {
        Kind::U32 => {
            run_keys(raw.iter().map(|&x| x as u32).collect(), algo, threads, reps, &mut report)
        }
        Kind::U64 => run_keys(raw.to_vec(), algo, threads, reps, &mut report),
        Kind::PairsU32 => {
            let keys: Vec<u32> = raw.iter().map(|&x| x as u32).collect();
            // Payload = original index, so the stable order is unique and
            // equals the lexicographic tuple order.
            let mut reference: Vec<(u32, u32)> = keys.iter().copied().zip(0..n as u32).collect();
            reference.sort_unstable();
            match algo.radix_config(threads) {
                None => {
                    let tuples: Vec<(u32, u32)> = keys.iter().copied().zip(0..n as u32).collect();
                    let verify = |v: &Vec<(u32, u32)>| {
                        assert_eq!(v, &reference, "{} pairs order diverges", algo.name());
                    };
                    match algo {
                        Algo::Std => best_of(&tuples, reps, |v| v.sort_unstable(), verify),
                        Algo::ParMerge => {
                            best_of(&tuples, reps, |v| par_sort_unstable_baseline(v, threads), verify)
                        }
                        _ => unreachable!("the spmd block is keys-only"),
                    }
                }
                Some(cfg) => {
                    let vals: Vec<u32> = (0..n as u32).collect();
                    let input = (keys, vals);
                    let verify = |kv: &(Vec<u32>, Vec<u32>)| {
                        let got: Vec<(u32, u32)> =
                            kv.0.iter().copied().zip(kv.1.iter().copied()).collect();
                        assert_eq!(got, reference, "{} breaks stability", algo.name());
                    };
                    best_of(
                        &input,
                        reps,
                        |kv| {
                            let mut scratch = SortScratch::new();
                            par_radix_sort_pairs_with_scratch(
                                &mut kv.0,
                                &mut kv.1,
                                &cfg,
                                &mut scratch,
                            );
                            report.record(&scratch);
                        },
                        verify,
                    )
                }
            }
        }
    };
    (best, report)
}

/// Which (kind, dist) combos the grid covers. u32 takes the full
/// distribution sweep (the outlier shape is a statement about one key
/// width's top digit, so it runs there only); u64 and pairs are pruned to
/// the shapes that add information (u64: bandwidth; pairs: payload
/// movement + stability under duplicates). The pruning is recorded in the
/// JSON's `grid_note`.
pub const COMBOS: &[(Kind, Dist)] = &[
    (Kind::U32, Dist::Uniform),
    (Kind::U32, Dist::Zipf),
    (Kind::U32, Dist::NearlySorted),
    (Kind::U32, Dist::DupHeavy),
    (Kind::U32, Dist::OneOutlier),
    (Kind::U64, Dist::Uniform),
    (Kind::U64, Dist::Zipf),
    (Kind::PairsU32, Dist::Uniform),
    (Kind::PairsU32, Dist::DupHeavy),
];

/// Run the whole grid and return the rows.
pub fn run_grid(opts: &RealBenchOpts, progress: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut zipf_cache = BTreeMap::new();
    for &(kind, dist) in COMBOS {
        for &n in &opts.sizes {
            let raw = gen_raw(n, dist, 0xC0FF_EE00 ^ n as u64, &mut zipf_cache);
            let mut algos = vec![Algo::Std, Algo::ParMerge, Algo::RadixLsd, Algo::Radix];
            if kind == Kind::U32 {
                algos.extend((0..SPMD.len()).map(Algo::Spmd));
            }
            for algo in algos {
                // std is single-threaded: one row, at threads = 1. A rank
                // of an SPMD program spins in no barrier, but p ranks on
                // fewer cores measure the scheduler: those rows stop at the
                // host's cores.
                let thread_list: Vec<usize> = match algo {
                    Algo::Std => vec![1],
                    Algo::Spmd(_) => opts.threads.iter().copied().filter(|&t| t <= available_cores()).collect(),
                    _ => opts.threads.clone(),
                };
                for t in thread_list {
                    let (best, report) = run_cell(kind, algo, &raw, t, opts.reps);
                    let row = Row {
                        kind: kind.name(),
                        algo: algo.name(),
                        dist: dist.name(),
                        n,
                        threads: t,
                        reps: opts.reps,
                        best_wall_s: best,
                        mkeys_per_sec: n as f64 / best / 1e6,
                        schedule: report.schedule,
                        phases: report.phases,
                    };
                    if progress {
                        println!(
                            "{:9} {:24} {:13} n={:<9} t={:<3} best {:>8.4}s  {:>8.2} Mkeys/s  {}",
                            row.kind, row.algo, row.dist, row.n, row.threads,
                            row.best_wall_s, row.mkeys_per_sec,
                            row.schedule.map_or(String::new(), |s| format!("{s:?}"))
                        );
                        if let Some(p) = &row.phases {
                            println!("{:>9} {}", "", phase_line(p));
                        }
                    }
                    rows.push(row);
                }
            }
        }
    }
    rows
}

fn find_row<'a>(rows: &'a [Row], kind: &str, algo: &str, dist: &str, n: usize, t: usize) -> &'a Row {
    rows.iter()
        .find(|r| r.kind == kind && r.algo == algo && r.dist == dist && r.n == n && r.threads == t)
        .unwrap_or_else(|| panic!("missing row {kind}/{algo}/{dist}/n={n}/t={t}"))
}

/// The (kind, dist) cells on which the default must beat the parallel
/// merge sort. Zipf `u64` is reported, not asserted: eight live digits
/// leave seven in-cache LSD passes per bucket where two more splits would
/// do, and the merge sort wins that row until the bucket kernel for wide
/// keys exists (ROADMAP item 3a).
const BEATS_MERGE: &[(Kind, Dist)] =
    &[(Kind::U32, Dist::Uniform), (Kind::U32, Dist::DupHeavy), (Kind::PairsU32, Dist::DupHeavy)];

/// The engine's internal relations, checked at the grid's largest size and
/// its largest thread count the host has cores for — above that a row
/// measures timesharing, not the schedule (machine-relative, so they are
/// meaningful on any host). `tol` > 1 loosens the comparisons for noisy CI
/// runners; 1.0 demands strict wins. Returns human-readable failures.
pub fn check_assertions(rows: &[Row], opts: &RealBenchOpts, tol: f64) -> Vec<String> {
    let n = *opts.sizes.iter().max().expect("non-empty sizes");
    let cores = available_cores();
    let t = opts.threads.iter().copied().filter(|&t| t <= cores).max();
    let t = t.unwrap_or_else(|| *opts.threads.iter().min().expect("non-empty thread list"));
    let mut failures = Vec::new();
    let mut require = |label: &str, kind: Kind, dist: Dist, rhs: Algo| {
        let lhs = find_row(rows, kind.name(), Algo::Radix.name(), dist.name(), n, t);
        let rhs = find_row(rows, kind.name(), rhs.name(), dist.name(), n, t);
        if lhs.best_wall_s > rhs.best_wall_s * tol {
            failures.push(format!(
                "{label} ({} {}): {} {:.4}s vs {} {:.4}s (tol {tol})",
                kind.name(),
                dist.name(),
                lhs.algo,
                lhs.best_wall_s,
                rhs.algo,
                rhs.best_wall_s
            ));
        }
    };
    // The data-chosen schedule pays, or at least costs nothing, whatever the
    // data: skew sends heavy buckets back through the engine, it does not
    // send the sort back to one permute per pass.
    for &(kind, dist) in COMBOS {
        require("default vs LSD-only", kind, dist, Algo::RadixLsd);
    }
    for &(kind, dist) in BEATS_MERGE {
        require("radix vs parallel merge", kind, dist, Algo::ParMerge);
    }
    failures
}

/// One JSON number: plain decimal, never NaN/Inf.
fn num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{:.1}", x)
    } else {
        format!("{:.6}", x)
    }
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

/// Render the rows as the committed JSON artifact, with an honest machine
/// description (oversubscribed thread counts are called out, not hidden).
pub fn to_json(rows: &[Row], opts: &RealBenchOpts) -> String {
    let cores = available_cores();
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string());
    let mem_kb: u64 = proc_field("/proc/meminfo", "MemTotal")
        .and_then(|v| v.split_whitespace().next().and_then(|x| x.parse().ok()))
        .unwrap_or(0);
    let max_t = opts.threads.iter().max().copied().unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"real_sorts\",\n");
    json.push_str("  \"metric\": \"million keys sorted per wall-clock second (best of reps)\",\n");
    json.push_str("  \"machine\": {\n");
    json.push_str(&format!("    \"cpu\": \"{}\",\n", cpu.replace('"', "'")));
    json.push_str(&format!("    \"cores_available\": {},\n", cores));
    json.push_str(&format!("    \"mem_gb\": {},\n", mem_kb / (1 << 20)));
    if max_t > cores {
        json.push_str(&format!(
            "    \"note\": \"thread counts above {} are oversubscribed on this host: those rows measure scheduling robustness under timesharing, not parallel scaling\",\n",
            cores
        ));
    }
    json.push_str("    \"os\": \"linux\"\n  },\n");
    json.push_str(
        "  \"grid_note\": \"u32 runs all five distributions (one_outlier: uniform below 2^24 plus one key with bit 31 set) and carries the spmd block: the paper's radix sort (8-bit digits) and sample sort (128 regular samples per rank, 11-bit local sorts) of ccsort_parallel::spmd, each over the direct, message and symmetric transports, at the thread counts the host has cores for; u64 is pruned to uniform+zipf and pairs to uniform+dup_heavy (the shapes that add information); std_sort_unstable is single-threaded and reported once per combo; the par_sort_unstable_baseline row is parallel sort_unstable runs + pairwise parallel merges on std::thread\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kind\": \"{}\", \"algo\": \"{}\", \"dist\": \"{}\", \"n\": {}, \"threads\": {}, \"reps\": {}, \"best_wall_s\": {}, \"mkeys_per_sec\": {}}}{}\n",
            r.kind,
            r.algo,
            r.dist,
            r.n,
            r.threads,
            r.reps,
            num(r.best_wall_s),
            num(r.mkeys_per_sec),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut s = SplitMix64::seed_from_u64(7);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            let u = (s.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            counts[z.sample(u)] += 1;
        }
        // Rank 0 must dominate any mid-popularity rank by a wide margin.
        assert!(counts[0] > 20 * counts[500].max(1), "zipf not skewed: {:?}", &counts[..4]);
    }

    #[test]
    fn distributions_have_the_claimed_shape() {
        let mut cache = BTreeMap::new();
        // The inputs behind the committed BENCH_real_sorts.json rows.
        assert_eq!(
            gen_raw(4, Dist::Uniform, 1, &mut cache),
            [10451216379200822465, 13757245211066428519, 17911839290282890590, 8196980753821780235]
        );
        let dup = gen_raw(10_000, Dist::DupHeavy, 1, &mut cache);
        let distinct: std::collections::BTreeSet<u64> = dup.iter().copied().collect();
        assert!(distinct.len() <= 16);
        let ns = gen_raw(10_000, Dist::NearlySorted, 1, &mut cache);
        let sorted_adjacent = ns.windows(2).filter(|w| w[0] <= w[1]).count();
        assert!(sorted_adjacent > 9_500, "nearly-sorted input too shuffled");
        let outlier = gen_raw(10_000, Dist::OneOutlier, 1, &mut cache);
        assert_eq!(outlier.iter().filter(|&&k| k >> 24 != 0).count(), 1);
        assert_eq!(outlier.iter().max(), Some(&(outlier[3333])));
    }

    #[test]
    fn tiny_grid_produces_verified_rows_and_assertions_resolve() {
        let opts = RealBenchOpts { sizes: vec![1 << 14], threads: vec![1, 2], reps: 1 };
        let rows = run_grid(&opts, false);
        // std once + 3 parallel algos × 2 thread counts, per combo; the
        // spmd block on the five u32 combos, at the threads that have cores.
        let spmd_threads = [1, 2].iter().filter(|&&t| t <= available_cores()).count();
        assert_eq!(rows.len(), COMBOS.len() * (1 + 3 * 2) + 5 * SPMD.len() * spmd_threads);
        assert!(rows.iter().all(|r| r.best_wall_s > 0.0));
        // The relations must at least be *resolvable* (rows present); at
        // this toy size the timings themselves are noise, so use a huge
        // tolerance and only require that nothing is pathologically off.
        let failures = check_assertions(&rows, &opts, 1e6);
        assert!(failures.is_empty(), "{failures:?}");
        let json = to_json(&rows, &opts);
        assert!(json.contains("\"bench\": \"real_sorts\""));
        assert!(json.contains("\"radix_lsd\"") && json.contains("\"radix\""));
        assert!(SPMD.iter().all(|(name, _)| json.contains(name)));
    }
}
