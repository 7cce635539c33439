//! Experiment runner with memoisation and the paper's size/processor grid.
//!
//! Grid cells are independent — each builds its own seeded `Machine` — so
//! the runner can fill its memo cache in parallel ([`Runner::prefetch`])
//! with results bit-identical to sequential execution.

// BTree collections, not Hash (`clippy.toml`): the runner's contract is
// bit-identical output regardless of fill order
// (`crates/bench/tests/determinism.rs`).
use std::collections::{BTreeMap, BTreeSet};

use ccsort_algos::{run_experiment, run_sequential_baseline, Algorithm, Dist, ExpConfig, ExpResult};
use ccsort_parallel::{default_workers, par_map};

/// The paper's data-set labels (key counts at full scale).
pub const SIZE_LABELS: [(&str, usize); 5] =
    [("1M", 1 << 20), ("4M", 1 << 22), ("16M", 1 << 24), ("64M", 1 << 26), ("256M", 1 << 28)];

/// Processor counts of the speedup figures: the paper's 16, 32 and 64.
pub const PROCS: [usize; 3] = [16, 32, 64];

/// Options shared by all figure generators.
#[derive(Debug, Clone)]
pub struct RunnerOpts {
    /// Cap on simulated keys per experiment. Each size label runs at the
    /// mildest machine scale that fits the cap: scale = label / max_sim_n
    /// (min 1), with machine capacities and fixed per-event costs scaled
    /// identically (`MachineConfig::scaled_down`). Small labels therefore
    /// run at *full* fidelity and only the largest are scaled — each
    /// column is self-consistent (its speedup baseline uses the same
    /// scale).
    pub max_sim_n: usize,
    /// Subset of size labels to run (indices into [`SIZE_LABELS`]).
    pub sizes: Vec<usize>,
    /// Processor counts to run.
    pub procs: Vec<usize>,
    /// Base RNG seed.
    pub seed: u64,
    /// Print per-processor detail where applicable.
    pub verbose: bool,
}

impl Default for RunnerOpts {
    fn default() -> Self {
        RunnerOpts {
            max_sim_n: 1 << 21,
            sizes: (0..SIZE_LABELS.len()).collect(),
            procs: PROCS.to_vec(),
            seed: 271828,
            verbose: false,
        }
    }
}

impl RunnerOpts {
    /// A fast configuration for smoke tests: tiny simulations, three
    /// sizes, small processor counts.
    pub fn quick() -> Self {
        RunnerOpts {
            max_sim_n: 1 << 14,
            sizes: vec![0, 1, 2],
            procs: vec![4, 8, 16],
            seed: 271828,
            verbose: false,
        }
    }

    /// Machine scale denominator for a size label index.
    pub fn scale_for(&self, size_idx: usize) -> usize {
        (SIZE_LABELS[size_idx].1 / self.max_sim_n).max(1)
    }

    /// Simulated key count for a size label index.
    pub fn n_for(&self, size_idx: usize) -> usize {
        SIZE_LABELS[size_idx].1 / self.scale_for(size_idx)
    }

    /// Human label for a size index.
    pub fn label_for(&self, size_idx: usize) -> &'static str {
        SIZE_LABELS[size_idx].0
    }
}

/// One emitted data point (written into the JSON dump by [`Point::to_json`]).
#[derive(Debug, Clone)]
pub struct Point {
    pub artefact: String,
    pub size_label: String,
    pub scale: usize,
    pub n: usize,
    pub p: usize,
    pub algorithm: String,
    pub radix_bits: u32,
    pub dist: String,
    /// Simulated parallel time, ns.
    pub time_ns: f64,
    /// Speedup over the sequential baseline (when meaningful).
    pub speedup: Option<f64>,
    /// Value relative to the figure's reference series (when meaningful).
    pub relative: Option<f64>,
    pub busy_ns: f64,
    pub lmem_ns: f64,
    pub rmem_ns: f64,
    pub sync_ns: f64,
    pub verified: bool,
}

impl Point {
    /// The point as a JSON object, one field per line in declaration order,
    /// indented as an element of `repro --json`'s top-level array.
    pub fn to_json(&self) -> String {
        fn string(s: &str) -> String {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out + "\""
        }
        // JSON has no NaN or infinity; like a missing value, they are null.
        fn number(x: f64) -> String {
            if x.is_finite() { format!("{x:?}") } else { "null".to_string() }
        }
        let optional = |x: Option<f64>| x.map_or("null".to_string(), number);
        let fields = [
            ("artefact", string(&self.artefact)),
            ("size_label", string(&self.size_label)),
            ("scale", self.scale.to_string()),
            ("n", self.n.to_string()),
            ("p", self.p.to_string()),
            ("algorithm", string(&self.algorithm)),
            ("radix_bits", self.radix_bits.to_string()),
            ("dist", string(&self.dist)),
            ("time_ns", number(self.time_ns)),
            ("speedup", optional(self.speedup)),
            ("relative", optional(self.relative)),
            ("busy_ns", number(self.busy_ns)),
            ("lmem_ns", number(self.lmem_ns)),
            ("rmem_ns", number(self.rmem_ns)),
            ("sync_ns", number(self.sync_ns)),
            ("verified", self.verified.to_string()),
        ];
        let lines: Vec<String> = fields.iter().map(|(k, v)| format!("    \"{k}\": {v}")).collect();
        format!("  {{\n{}\n  }}", lines.join(",\n"))
    }
}

/// Memo key of one experiment cell: `(algorithm, size index, p, radix
/// bits, distribution)`.
pub type ExpKey = (Algorithm, usize, usize, u32, Dist);

/// Page-size multiplier for a size label: the paper runs the 256M-key
/// configurations with 256 KB pages (4x the 64 KB used for 1M-64M) to
/// get the best performance.
fn page_mult_for(size_idx: usize) -> usize {
    if SIZE_LABELS[size_idx].1 >= SIZE_LABELS[4].1 {
        4
    } else {
        1
    }
}

/// Run one experiment cell. Panics if verification fails — a figure must
/// never be generated from an unsorted output.
fn run_cell(opts: &RunnerOpts, key: ExpKey) -> ExpResult {
    let (alg, size_idx, p, r, dist) = key;
    let n = opts.n_for(size_idx);
    let res = run_experiment(
        &ExpConfig::new(alg, n, p)
            .radix_bits(r)
            .dist(dist)
            .seed(opts.seed)
            .scale(opts.scale_for(size_idx))
            .page_mult(page_mult_for(size_idx)),
    );
    assert!(res.verified, "experiment {alg:?} n={n} p={p} r={r} {dist:?} produced unsorted output");
    res
}

/// Memoising experiment runner.
pub struct Runner {
    pub opts: RunnerOpts,
    cache: BTreeMap<ExpKey, ExpResult>,
    seq_cache: BTreeMap<(usize, u32, Dist), f64>,
    /// Every point emitted so far (for the JSON dump).
    pub points: Vec<Point>,
}

impl Runner {
    pub fn new(opts: RunnerOpts) -> Self {
        Runner { opts, cache: BTreeMap::new(), seq_cache: BTreeMap::new(), points: Vec::new() }
    }

    /// Run (or recall) one experiment at size label `size_idx`. Panics if
    /// verification fails — a figure must never be generated from an
    /// unsorted output.
    pub fn exp(&mut self, alg: Algorithm, size_idx: usize, p: usize, r: u32, dist: Dist) -> &ExpResult {
        let key = (alg, size_idx, p, r, dist);
        let opts = &self.opts;
        self.cache.entry(key).or_insert_with(|| run_cell(opts, key))
    }

    /// Run every not-yet-cached cell among `keys` in parallel and memoise
    /// the results. Each cell constructs its own seeded `Machine`, so a
    /// parallel fill is bit-identical to running the cells one by one;
    /// results are zipped back in `keys` order, keeping the cache fill
    /// deterministic regardless of worker count or scheduling.
    pub fn prefetch(&mut self, keys: &[ExpKey]) {
        let mut seen = BTreeSet::new();
        let todo: Vec<ExpKey> = keys
            .iter()
            .copied()
            .filter(|key| !self.cache.contains_key(key) && seen.insert(*key))
            .collect();
        if todo.is_empty() {
            return;
        }
        let opts = &self.opts;
        let results = par_map(default_workers(), &todo, |&key| run_cell(opts, key));
        for (key, res) in todo.into_iter().zip(results) {
            self.cache.insert(key, res);
        }
    }

    /// Parallel fill of the sequential-baseline cache for `(size index,
    /// distribution)` pairs, mirroring [`Self::prefetch`].
    pub fn prefetch_seq(&mut self, cells: &[(usize, Dist)]) {
        let r = 8;
        let mut seen = BTreeSet::new();
        let todo: Vec<(usize, Dist)> = cells
            .iter()
            .copied()
            .filter(|&(si, d)| !self.seq_cache.contains_key(&(si, r, d)) && seen.insert((si, d)))
            .collect();
        if todo.is_empty() {
            return;
        }
        let opts = &self.opts;
        let times = par_map(default_workers(), &todo, |&(si, dist)| {
            let res = run_sequential_baseline(
                opts.n_for(si),
                r,
                dist,
                opts.seed,
                opts.scale_for(si),
                page_mult_for(si),
            );
            assert!(res.verified);
            res.time_ns
        });
        for ((si, d), t) in todo.into_iter().zip(times) {
            self.seq_cache.insert((si, r, d), t);
        }
    }

    /// Sequential baseline time for size label `size_idx` (radix 8 — the
    /// pass count the paper calls "quite good across all the data set
    /// sizes"), at the same machine scale as the parallel runs of this
    /// size.
    pub fn seq_ns(&mut self, size_idx: usize, dist: Dist) -> f64 {
        let r = 8;
        let seed = self.opts.seed;
        let scale = self.opts.scale_for(size_idx);
        let n = self.opts.n_for(size_idx);
        let pm = page_mult_for(size_idx);
        *self.seq_cache.entry((size_idx, r, dist)).or_insert_with(|| {
            let res = run_sequential_baseline(n, r, dist, seed, scale, pm);
            assert!(res.verified);
            res.time_ns
        })
    }

    /// Record a point for an experiment already in the memo cache,
    /// avoiding the `ExpResult` clone that [`Self::record`] forces on
    /// callers holding only a cache reference.
    pub fn record_key(
        &mut self,
        artefact: &str,
        key: ExpKey,
        speedup: Option<f64>,
        relative: Option<f64>,
    ) {
        let res = self.cache.get(&key).expect("record_key: experiment not cached");
        let pt = make_point(&self.opts, artefact, key.1, res, speedup, relative);
        self.points.push(pt);
    }

    /// Record a point for the JSON dump.
    pub fn record(
        &mut self,
        artefact: &str,
        size_idx: usize,
        res: &ExpResult,
        speedup: Option<f64>,
        relative: Option<f64>,
    ) {
        let pt = make_point(&self.opts, artefact, size_idx, res, speedup, relative);
        self.points.push(pt);
    }
}

/// Build the serialisable [`Point`] for one recorded experiment.
fn make_point(
    opts: &RunnerOpts,
    artefact: &str,
    size_idx: usize,
    res: &ExpResult,
    speedup: Option<f64>,
    relative: Option<f64>,
) -> Point {
    let mean = res.mean_breakdown();
    Point {
        artefact: artefact.to_string(),
        size_label: opts.label_for(size_idx).to_string(),
        scale: opts.scale_for(size_idx),
        n: res.n,
        p: res.p,
        algorithm: res.algorithm.name().to_string(),
        radix_bits: res.radix_bits,
        dist: res.dist.name().to_string(),
        time_ns: res.parallel_ns,
        speedup,
        relative,
        busy_ns: mean.busy,
        lmem_ns: mean.lmem,
        rmem_ns: mean.rmem,
        sync_ns: mean.sync,
        verified: res.verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_scale_per_label() {
        let opts = RunnerOpts { max_sim_n: 1 << 21, ..Default::default() };
        // 1M and up: scale = label / 2M, min 1.
        assert_eq!(opts.scale_for(0), 1); // 1M
        assert_eq!(opts.scale_for(1), 2); // 4M
        assert_eq!(opts.scale_for(2), 8); // 16M
        assert_eq!(opts.scale_for(3), 32); // 64M
        assert_eq!(opts.scale_for(4), 128); // 256M
        // n * scale always reconstructs the label.
        for si in 0..SIZE_LABELS.len() {
            assert_eq!(opts.n_for(si) * opts.scale_for(si), SIZE_LABELS[si].1);
        }
    }

    #[test]
    fn quick_opts_are_small() {
        let q = RunnerOpts::quick();
        assert!(q.n_for(0) <= 1 << 14);
        assert!(q.procs.iter().all(|&p| p <= 16));
    }

    #[test]
    fn runner_memoizes_experiments() {
        let mut r = Runner::new(RunnerOpts {
            max_sim_n: 1 << 12,
            sizes: vec![0],
            procs: vec![4],
            seed: 7,
            verbose: false,
        });
        let t1 = r.exp(Algorithm::RadixShmem, 0, 4, 8, Dist::Gauss).parallel_ns;
        let t2 = r.exp(Algorithm::RadixShmem, 0, 4, 8, Dist::Gauss).parallel_ns;
        assert_eq!(t1, t2);
        // Different radix is a different experiment.
        let t3 = r.exp(Algorithm::RadixShmem, 0, 4, 11, Dist::Gauss).parallel_ns;
        assert_ne!(t1, t3);
    }

    #[test]
    fn seq_baseline_exceeds_parallel_time() {
        let mut r = Runner::new(RunnerOpts {
            max_sim_n: 1 << 13,
            sizes: vec![0],
            procs: vec![8],
            seed: 7,
            verbose: false,
        });
        let seq = r.seq_ns(0, Dist::Gauss);
        let par = r.exp(Algorithm::SampleShmem, 0, 8, 11, Dist::Gauss).parallel_ns;
        assert!(seq > par, "seq {seq} should exceed 8-way parallel {par}");
    }

    #[test]
    fn prefetch_matches_sequential_exp() {
        let opts = RunnerOpts {
            max_sim_n: 1 << 12,
            sizes: vec![0],
            procs: vec![4],
            seed: 7,
            verbose: false,
        };
        let keys: Vec<ExpKey> = vec![
            (Algorithm::RadixShmem, 0, 4, 8, Dist::Gauss),
            (Algorithm::SampleShmem, 0, 4, 11, Dist::Gauss),
            (Algorithm::RadixShmem, 0, 4, 8, Dist::Gauss), // duplicate: deduped
        ];
        let mut par = Runner::new(opts.clone());
        par.prefetch(&keys);
        par.prefetch_seq(&[(0, Dist::Gauss)]);
        let mut seq = Runner::new(opts);
        for &(alg, si, p, r, d) in &keys {
            assert_eq!(par.exp(alg, si, p, r, d).parallel_ns, seq.exp(alg, si, p, r, d).parallel_ns);
        }
        assert_eq!(par.seq_ns(0, Dist::Gauss), seq.seq_ns(0, Dist::Gauss));
    }

    #[test]
    fn record_key_matches_record() {
        let mut r = Runner::new(RunnerOpts {
            max_sim_n: 1 << 12,
            sizes: vec![0],
            procs: vec![4],
            seed: 7,
            verbose: false,
        });
        let key: ExpKey = (Algorithm::RadixShmem, 0, 4, 8, Dist::Gauss);
        let res = r.exp(key.0, key.1, key.2, key.3, key.4).clone();
        r.record("a", key.1, &res, Some(1.0), None);
        r.record_key("a", key, Some(1.0), None);
        assert_eq!(r.points[0].to_json(), r.points[1].to_json());
    }

    #[test]
    fn point_json_is_pinned() {
        let pt = Point {
            artefact: "fig\"1\"".to_string(),
            size_label: "1M\\\n".to_string(),
            scale: 1,
            n: 1048576,
            p: 16,
            algorithm: "radix-mpi-sgi".to_string(),
            radix_bits: 8,
            dist: "gauss".to_string(),
            time_ns: 186241900.15618572,
            speedup: Some(5.053557280108726),
            relative: None,
            busy_ns: 71343908.0,
            lmem_ns: f64::NAN,
            rmem_ns: f64::INFINITY,
            sync_ns: 0.5,
            verified: true,
        };
        let expect = r#"  {
    "artefact": "fig\"1\"",
    "size_label": "1M\\\u000a",
    "scale": 1,
    "n": 1048576,
    "p": 16,
    "algorithm": "radix-mpi-sgi",
    "radix_bits": 8,
    "dist": "gauss",
    "time_ns": 186241900.15618572,
    "speedup": 5.053557280108726,
    "relative": null,
    "busy_ns": 71343908.0,
    "lmem_ns": null,
    "rmem_ns": null,
    "sync_ns": 0.5,
    "verified": true
  }"#;
        assert_eq!(pt.to_json(), expect);
    }

    #[test]
    fn record_captures_scale_and_label() {
        let mut r = Runner::new(RunnerOpts {
            max_sim_n: 1 << 12,
            sizes: vec![2],
            procs: vec![4],
            seed: 7,
            verbose: false,
        });
        let res = r.exp(Algorithm::RadixShmem, 2, 4, 8, Dist::Gauss).clone();
        r.record("test", 2, &res, Some(1.0), None);
        let pt = &r.points[0];
        assert_eq!(pt.size_label, "16M");
        assert_eq!(pt.scale, (1 << 24) / (1 << 12));
        assert_eq!(pt.n * pt.scale, 1 << 24);
        assert!(pt.verified);
    }
}
