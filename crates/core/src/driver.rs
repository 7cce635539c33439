//! One-call experiment runner: configure, simulate, verify, report.
//!
//! Every experiment in the paper's evaluation section reduces to "run one
//! (algorithm, model) pair on one (n, p, r, distribution) point and read
//! the clock / the per-processor breakdown". This module provides exactly
//! that, with output verification built in: an experiment whose output is
//! not a sorted permutation of its input reports `verified == false` and
//! the harness refuses to use it.

use ccsort_machine::{
    ArrayId, EventCounters, Machine, MachineConfig, Placement, ProtocolMode, TimeBreakdown,
    MAX_PROCS,
};
use crate::comm::{CcsasComm, Communicator, MpiComm, Permute, ShmemComm};
use crate::dist::{generate, Dist, KEY_BITS, MAX_RADIX_BITS};
use crate::runtime::MpiMode;
use crate::sample::SamplingStrategy;
use crate::{radix, sample, seq};

/// Algorithm × programming-model combinations under study.
///
/// `Ord` so the variants can key deterministic `BTreeMap` memo caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Algorithm {
    RadixCcsas,
    RadixCcsasNew,
    RadixMpiStaged,
    RadixMpiDirect,
    RadixMpiCoalesced,
    RadixShmem,
    RadixShmemPut,
    SampleCcsas,
    SampleMpiStaged,
    SampleMpiDirect,
    SampleShmem,
}

impl Algorithm {
    pub const ALL: [Algorithm; 11] = [
        Algorithm::RadixCcsas,
        Algorithm::RadixCcsasNew,
        Algorithm::RadixMpiStaged,
        Algorithm::RadixMpiDirect,
        Algorithm::RadixMpiCoalesced,
        Algorithm::RadixShmem,
        Algorithm::RadixShmemPut,
        Algorithm::SampleCcsas,
        Algorithm::SampleMpiStaged,
        Algorithm::SampleMpiDirect,
        Algorithm::SampleShmem,
    ];

    /// Kebab-case name used by the `repro` harness.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::RadixCcsas => "radix-ccsas",
            Algorithm::RadixCcsasNew => "radix-ccsas-new",
            Algorithm::RadixMpiStaged => "radix-mpi-sgi",
            Algorithm::RadixMpiDirect => "radix-mpi-new",
            Algorithm::RadixMpiCoalesced => "radix-mpi-coalesced",
            Algorithm::RadixShmem => "radix-shmem",
            Algorithm::RadixShmemPut => "radix-shmem-put",
            Algorithm::SampleCcsas => "sample-ccsas",
            Algorithm::SampleMpiStaged => "sample-mpi-sgi",
            Algorithm::SampleMpiDirect => "sample-mpi-new",
            Algorithm::SampleShmem => "sample-shmem",
        }
    }

    pub fn parse(s: &str) -> Result<Algorithm, String> {
        Algorithm::ALL.iter().copied().find(|a| a.name() == s).ok_or_else(|| {
            let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
            format!("unknown algorithm {s:?}; valid names: {}", names.join(", "))
        })
    }

    /// Is this a radix-sort variant (as opposed to sample sort)?
    pub fn is_radix(&self) -> bool {
        matches!(
            self,
            Algorithm::RadixCcsas
                | Algorithm::RadixCcsasNew
                | Algorithm::RadixMpiStaged
                | Algorithm::RadixMpiDirect
                | Algorithm::RadixMpiCoalesced
                | Algorithm::RadixShmem
                | Algorithm::RadixShmemPut
        )
    }

    /// The transport this algorithm instantiates its skeleton with — the
    /// (skeleton, communicator) pair IS the algorithm, and this match is
    /// the only place the pairing is written down; [`crate::radix`] says
    /// which program of the paper each row reproduces. (Sample sort moves
    /// contiguous per-pair blocks whatever the `Permute` style, which only
    /// selects the radix permutation.)
    pub(crate) fn communicator(&self) -> Box<dyn Communicator> {
        use Algorithm::*;
        match self {
            RadixCcsas | SampleCcsas => Box::new(CcsasComm::new(Permute::DirectScatter)),
            RadixCcsasNew => Box::new(CcsasComm::new(Permute::ContiguousCopy)),
            RadixMpiStaged | SampleMpiStaged => Box::new(MpiComm::new(MpiMode::Staged, Permute::ChunkMessages)),
            RadixMpiDirect | SampleMpiDirect => Box::new(MpiComm::new(MpiMode::Direct, Permute::ChunkMessages)),
            RadixMpiCoalesced => Box::new(MpiComm::new(MpiMode::Direct, Permute::CoalescedMessages)),
            RadixShmem | SampleShmem => Box::new(ShmemComm::new(Permute::ReceiverGet)),
            RadixShmemPut => Box::new(ShmemComm::new(Permute::SenderPut)),
        }
    }

    /// Run this algorithm's program on `m`: sort the `n` keys in `keys[0]`
    /// (see [`load_keys`]) with `r`-bit digits and return the array holding
    /// the sorted result. `sampling` is ignored by the radix sorts. This is
    /// the entry for callers that bring their own [`MachineConfig`];
    /// [`run_experiment`] builds the machine too, and verifies.
    pub fn sort(
        self,
        m: &mut Machine,
        keys: [ArrayId; 2],
        n: usize,
        r: u32,
        sampling: SamplingStrategy,
    ) -> ArrayId {
        let mut comm = self.communicator();
        if self.is_radix() {
            radix::sort(m, comm.as_mut(), keys, n, r, KEY_BITS)
        } else {
            sample::sort_with_comm(m, comm.as_mut(), keys, n, r, KEY_BITS, sampling)
        }
    }
}

/// Allocate the two key arrays every program toggles between, partitioned
/// over all of `m`'s processors, and put `input` in the first. `input` needs
/// at least one key per processor ([`ExpConfig::validate`] says so by name).
pub fn load_keys(m: &mut Machine, input: &[u32]) -> [ArrayId; 2] {
    let parts = m.n_procs();
    let a = m.alloc(input.len(), Placement::Partitioned { parts }, "keys0");
    let b = m.alloc(input.len(), Placement::Partitioned { parts }, "keys1");
    m.raw_mut(a).copy_from_slice(input);
    [a, b]
}

/// Full description of one experiment.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    pub algorithm: Algorithm,
    /// Number of keys actually simulated.
    pub n: usize,
    /// Number of processors.
    pub p: usize,
    /// Radix size in bits.
    pub radix_bits: u32,
    pub dist: Dist,
    pub seed: u64,
    /// Machine scale denominator (see `MachineConfig::scaled_down`); the
    /// paper-labelled key count is `n * scale_denom`.
    pub scale_denom: usize,
    /// Page-size multiplier: the paper runs its largest (256M-key) configs
    /// with 256 KB pages instead of 64 KB for best performance.
    pub page_mult: usize,
    /// Sampling strategy for the sample-sort variants (ignored by radix).
    pub sampling: SamplingStrategy,
    /// Warm the caches and TLBs with an untimed streaming pass over the key
    /// arrays before measuring (the paper times sorting after
    /// initialisation, so its first-pass reads are warm-ish; cold is the
    /// conservative default here).
    pub warm_caches: bool,
    /// Fault injection for the race-detector tests: skip the happens-before
    /// edge of the `k`-th global barrier (1-based) of the audited run. The
    /// barrier's timing is untouched — output and measurements are identical
    /// — but the detector sees the missing edge, exactly as if the program
    /// had forgotten that barrier. Only honoured by
    /// [`run_experiment_audited`] (the plain path has no detector).
    pub inject_missing_barrier: Option<usize>,
    /// The simulator's fast coherence walk (`MachineConfig::fast_path`).
    /// On by default; turning it off forces the per-line reference walk —
    /// results are bit-identical either way (the equivalence tests assert
    /// it), only wall-clock differs.
    pub fast_path: bool,
    /// Run the happens-before race detector without the rest of the audit
    /// machinery (section-boundary audits). [`run_experiment_audited`]
    /// implies it; this flag exists so benchmarks can measure the
    /// detector's cost in isolation.
    pub race_detector: bool,
    /// Coherence protocol for writes to shared lines
    /// ([`ccsort_machine::ProtocolMode`]). MESI-style invalidation by
    /// default; the Dragon-style update mode exists for the
    /// invalidate-vs-update ablation. Sorted output is bit-identical across
    /// modes — only protocol events and timing change.
    pub protocol: ProtocolMode,
    /// Unused: keeps the config at its size from before two 16-byte fields
    /// left it. `peak_rss_mb` on the `sim_radix_ccsas` benchmark workload
    /// is bimodal in host heap layout (≈ 37.0 / 39.2 MiB), and the boxed
    /// workload 32 bytes smaller moves it to the high mode, like the pads
    /// in `comm.rs`. ROADMAP 1(b) deletes all three.
    _heap_layout: [u64; 4],
}

impl ExpConfig {
    pub fn new(algorithm: Algorithm, n: usize, p: usize) -> Self {
        ExpConfig {
            algorithm,
            n,
            p,
            radix_bits: 8,
            dist: Dist::Gauss,
            seed: 271828,
            scale_denom: 16,
            page_mult: 1,
            sampling: SamplingStrategy::default(),
            warm_caches: false,
            inject_missing_barrier: None,
            fast_path: true,
            race_detector: false,
            protocol: ProtocolMode::Invalidate,
            _heap_layout: [0; 4],
        }
    }

    pub fn radix_bits(mut self, r: u32) -> Self {
        self.radix_bits = r;
        self
    }

    pub fn dist(mut self, d: Dist) -> Self {
        self.dist = d;
        self
    }

    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    pub fn scale(mut self, denom: usize) -> Self {
        self.scale_denom = denom;
        self
    }

    pub fn page_mult(mut self, mult: usize) -> Self {
        self.page_mult = mult;
        self
    }

    pub fn sampling(mut self, s: SamplingStrategy) -> Self {
        self.sampling = s;
        self
    }

    pub fn warm_caches(mut self, warm: bool) -> Self {
        self.warm_caches = warm;
        self
    }

    pub fn inject_missing_barrier(mut self, nth: usize) -> Self {
        self.inject_missing_barrier = Some(nth);
        self
    }

    pub fn fast_path(mut self, on: bool) -> Self {
        self.fast_path = on;
        self
    }

    pub fn race_detector(mut self, on: bool) -> Self {
        self.race_detector = on;
        self
    }

    pub fn protocol(mut self, proto: ProtocolMode) -> Self {
        self.protocol = proto;
        self
    }

    /// Check the configuration against the machine's and the algorithms'
    /// hard limits before any simulation state is built. Pure host-side
    /// arithmetic: a valid config runs byte-identically with or without the
    /// check.
    pub fn validate(&self) -> Result<(), String> {
        if self.p == 0 {
            return Err("p = 0: need at least one processor".to_string());
        }
        if self.p > MAX_PROCS {
            return Err(format!(
                "p = {}: at most {MAX_PROCS} processors are supported",
                self.p
            ));
        }
        if self.n < self.p {
            return Err(format!(
                "n = {} < p = {}: every process needs at least one key",
                self.n, self.p
            ));
        }
        // `scaled_down` asserts this; every other machine constraint
        // (page size, geometry) is checked on the machine the run builds.
        if !self.scale_denom.is_power_of_two() {
            return Err(format!("scale_denom = {}: must be a power of two", self.scale_denom));
        }
        self.machine_config().validate()?;
        if self.radix_bits == 0 {
            return Err("radix_bits = 0: each pass must consume at least one bit".to_string());
        }
        if self.radix_bits > MAX_RADIX_BITS {
            return Err(format!(
                "radix_bits = {}: 2^{} histogram bins per processor would \
                 dwarf the keys being sorted; r is at most {MAX_RADIX_BITS}",
                self.radix_bits, self.radix_bits
            ));
        }
        Ok(())
    }

    fn machine_config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::origin2000(self.p).scaled_down(self.scale_denom);
        cfg.page_size *= self.page_mult.max(1);
        cfg.fast_path = self.fast_path;
        cfg.race_detector = self.race_detector;
        cfg.protocol = self.protocol;
        cfg
    }
}

/// Everything measured in one experiment.
#[derive(Debug, Clone)]
pub struct ExpResult {
    pub algorithm: Algorithm,
    pub n: usize,
    pub p: usize,
    pub radix_bits: u32,
    pub dist: Dist,
    /// Parallel execution time: the slowest processor's clock, ns.
    pub parallel_ns: f64,
    /// Per-processor BUSY/LMEM/RMEM/SYNC.
    pub per_pe: Vec<TimeBreakdown>,
    /// Per-processor protocol/event counters.
    pub events: Vec<EventCounters>,
    /// Output was a sorted permutation of the input.
    pub verified: bool,
    /// Per-program-phase mean per-processor breakdowns, in execution order
    /// (e.g. histogram / combine / permute / exchange for radix sort).
    pub sections: Vec<(String, TimeBreakdown)>,
}

impl ExpResult {
    /// Machine-wide sums of the per-processor breakdowns.
    pub fn total(&self) -> TimeBreakdown {
        let mut t = TimeBreakdown::default();
        for b in &self.per_pe {
            t.add(b);
        }
        t
    }

    /// Load imbalance: the slowest processor's non-SYNC time over the mean
    /// (1.0 = perfectly balanced). SYNC is excluded because barrier waiting
    /// is the *consequence* of imbalance, not work.
    pub fn imbalance(&self) -> f64 {
        let work: Vec<f64> = self.per_pe.iter().map(|b| b.busy + b.lmem + b.rmem).collect();
        let mean = work.iter().sum::<f64>() / work.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        work.iter().cloned().fold(0.0_f64, f64::max) / mean
    }

    /// Mean per-processor breakdown (the bars of Figures 4 and 8).
    pub fn mean_breakdown(&self) -> TimeBreakdown {
        let mut t = self.total();
        let k = self.per_pe.len() as f64;
        t.busy /= k;
        t.lmem /= k;
        t.rmem /= k;
        t.sync /= k;
        t
    }
}

/// Run one experiment: generate keys, simulate the chosen program, verify
/// the output.
pub fn run_experiment(cfg: &ExpConfig) -> ExpResult {
    execute(cfg, false).0
}

/// Like [`run_experiment`], but with the machine-invariant audit enabled:
/// [`ccsort_machine::Machine::audit`] runs at every program `section()`
/// boundary (panicking on protocol bugs mid-run) and once more after the
/// sort, and the happens-before race detector
/// ([`ccsort_machine::RaceDetector`]) checks every timed access against the
/// program's synchronization; the final audit's violations — including one
/// line per detected race class — are returned alongside the result. An
/// empty list means every coherence, time-accounting, capacity and
/// synchronization invariant held. Slower than [`run_experiment`] — meant
/// for the conformance tooling and tests, not timing sweeps.
pub fn run_experiment_audited(cfg: &ExpConfig) -> (ExpResult, Vec<String>) {
    execute(cfg, true)
}

fn execute(cfg: &ExpConfig, audit: bool) -> (ExpResult, Vec<String>) {
    if let Err(e) = cfg.validate() {
        panic!("invalid experiment config: {e}");
    }
    let mut m = Machine::new(cfg.machine_config());
    m.set_section_audit(audit);
    if audit {
        m.set_race_detector(true);
    }
    if audit {
        if let Some(nth) = cfg.inject_missing_barrier {
            m.inject_missing_barrier(nth);
        }
    }
    let n = cfg.n;
    let p = cfg.p;
    let r = cfg.radix_bits;
    let input = generate(cfg.dist, n, p, r, cfg.seed);
    let keys = load_keys(&mut m, &input);

    if cfg.warm_caches {
        // Each process streams over its own partition (the state
        // initialisation would leave behind), then statistics reset. The
        // barrier orders the warm-up reads before the sort for the race
        // detector (initialisation is sequential on the real machine too);
        // its time charges are zeroed by the reset, so measurements are
        // unchanged.
        for pe in 0..p {
            let range = crate::common::part_range(n, p, pe);
            let mut buf = vec![0u32; range.len()];
            m.read_run(pe, keys[0], range.start, &mut buf);
        }
        m.barrier();
        m.reset_stats();
    }

    let out = cfg.algorithm.sort(&mut m, keys, n, r, cfg.sampling);

    let mut expect = input;
    expect.sort_unstable();
    let verified = m.raw(out) == &expect[..];
    let mut violations = if audit { m.audit() } else { Vec::new() };
    violations.extend(m.race_reports().iter().map(|race| race.to_string()));
    if m.race_suppressed() > 0 {
        violations.push(format!(
            "{} further racy access(es) in already-reported classes",
            m.race_suppressed()
        ));
    }

    let res = ExpResult {
        algorithm: cfg.algorithm,
        n,
        p,
        radix_bits: r,
        dist: cfg.dist,
        parallel_ns: m.parallel_time(),
        per_pe: (0..p).map(|pe| m.breakdown(pe)).collect(),
        events: (0..p).map(|pe| m.events(pe)).collect(),
        verified,
        sections: m.section_profile().into_iter().map(|(n, t)| (n.to_string(), t)).collect(),
    };
    (res, violations)
}

/// Run the sequential radix-sort baseline for speedup computations
/// (Table 1). Uses the same machine scaling as the parallel experiments.
pub fn run_sequential_baseline(
    n: usize,
    radix_bits: u32,
    dist: Dist,
    seed: u64,
    scale_denom: usize,
    page_mult: usize,
) -> seq::SeqResult {
    let input = generate(dist, n, 1, radix_bits, seed);
    let mut cfg = MachineConfig::origin2000(1).scaled_down(scale_denom);
    cfg.page_size *= page_mult.max(1);
    seq::run_on(cfg, &input, radix_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_verifies() {
        for alg in Algorithm::ALL {
            let cfg = ExpConfig::new(alg, 4096, 8).scale(64);
            let res = run_experiment(&cfg);
            assert!(res.verified, "{alg:?} failed verification");
            assert!(res.parallel_ns > 0.0);
            assert_eq!(res.per_pe.len(), 8);
        }
    }

    /// Every program × p (one, powers of two, 6, 7) × digit width (6, 5, 4
    /// and 3 passes over the 31-bit keys, so the result lands in either
    /// array) × every distribution, through the entry a caller with its own
    /// machine uses. Each output equals `sort_unstable` of the input, hence
    /// every other program's on that input.
    #[test]
    fn conformance_table() {
        for p in [1usize, 4, 6, 7, 8] {
            let n = 2048 + 37 * p; // p divides n only at p = 1
            for r in [6u32, 7, 8, 11] {
                for dist in Dist::ALL {
                    let input = generate(dist, n, p, r, 4242);
                    let mut expect = input.clone();
                    expect.sort_unstable();
                    for alg in Algorithm::ALL {
                        let mut m = Machine::new(MachineConfig::origin2000(p).scaled_down(64));
                        let keys = load_keys(&mut m, &input);
                        let out = alg.sort(&mut m, keys, n, r, SamplingStrategy::default());
                        assert!(m.raw(out) == &expect[..], "{alg:?} p={p} r={r} {dist:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn results_are_deterministic() {
        for alg in [Algorithm::RadixShmem, Algorithm::SampleCcsas] {
            let cfg = ExpConfig::new(alg, 2048, 4).scale(64);
            let r1 = run_experiment(&cfg);
            let r2 = run_experiment(&cfg);
            assert_eq!(r1.parallel_ns, r2.parallel_ns);
            assert_eq!(r1.per_pe, r2.per_pe);
            assert_eq!(r1.events, r2.events);
        }
    }

    #[test]
    fn name_roundtrip() {
        for alg in Algorithm::ALL {
            assert_eq!(Algorithm::parse(alg.name()), Ok(alg));
        }
        let err = Algorithm::parse("bogosort").unwrap_err();
        assert!(err.contains("bogosort"), "error should echo the bad name: {err}");
        // The error lists every valid spelling so a typo is self-correcting.
        for alg in Algorithm::ALL {
            assert!(err.contains(alg.name()), "error should list {}: {err}", alg.name());
        }
    }

    #[test]
    fn validate_rejects_zero_processors() {
        let cfg = ExpConfig::new(Algorithm::RadixShmem, 1024, 0);
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("p = 0"), "{err}");
    }

    #[test]
    fn validate_rejects_fewer_keys_than_processors() {
        for alg in Algorithm::ALL {
            for (n, p) in [(0, 4), (3, 8), (7, 8)] {
                let err = ExpConfig::new(alg, n, p).validate().unwrap_err();
                assert!(err.contains(&format!("n = {n}")) && err.contains(&format!("p = {p}")), "{err}");
            }
            assert_eq!(ExpConfig::new(alg, 8, 8).validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_too_many_processors() {
        // p = 65 is legal now that the directory scales past one u64 word...
        assert_eq!(ExpConfig::new(Algorithm::RadixShmem, 1024, 65).validate(), Ok(()));
        // ...but the MAX_PROCS cap still holds, and the error names p.
        let cfg = ExpConfig::new(Algorithm::RadixShmem, 1024, MAX_PROCS + 1);
        let err = cfg.validate().unwrap_err();
        assert!(err.contains(&format!("p = {}", MAX_PROCS + 1)), "{err}");
    }

    #[test]
    fn validate_checks_protocol() {
        for proto in [ProtocolMode::Invalidate, ProtocolMode::DragonUpdate] {
            let good = ExpConfig::new(Algorithm::RadixCcsas, 1024, 64).protocol(proto);
            assert_eq!(good.validate(), Ok(()), "{proto}");
        }
    }

    #[test]
    fn validate_checks_the_scaled_machine_it_builds() {
        for denom in [0, 3] {
            let err = ExpConfig::new(Algorithm::RadixCcsas, 1024, 8).scale(denom).validate().unwrap_err();
            assert!(err.contains("scale_denom"), "error must name the field: {err}");
        }
        let err = ExpConfig::new(Algorithm::RadixCcsas, 1024, 8).page_mult(3).validate().unwrap_err();
        assert!(err.contains("page_size"), "error must name the field: {err}");
        assert_eq!(ExpConfig::new(Algorithm::RadixCcsas, 1024, 8).scale(4).page_mult(4).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_radix_bits() {
        let cfg = ExpConfig::new(Algorithm::RadixCcsas, 1024, 4).radix_bits(0);
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("radix_bits = 0"), "{err}");
    }

    #[test]
    fn validate_rejects_radix_wider_than_keys() {
        let cfg = ExpConfig::new(Algorithm::RadixCcsas, 1024, 4).radix_bits(33);
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("33"), "{err}");
        // The bound `generate` asserts is the bound `validate` states: the
        // widest digit runs end to end, one bit wider is refused by name.
        let widest = ExpConfig::new(Algorithm::RadixShmem, 4096, 4).radix_bits(MAX_RADIX_BITS).scale(64);
        assert_eq!(widest.validate(), Ok(()));
        assert!(run_experiment(&widest).verified);
        let err = widest.radix_bits(MAX_RADIX_BITS + 1).validate().unwrap_err();
        assert!(err.contains(&format!("radix_bits = {}", MAX_RADIX_BITS + 1)), "{err}");
    }

    #[test]
    fn validate_accepts_every_default_config() {
        for alg in Algorithm::ALL {
            assert_eq!(ExpConfig::new(alg, 4096, 8).validate(), Ok(()));
        }
    }

    #[test]
    #[should_panic(expected = "invalid experiment config")]
    fn run_experiment_panics_on_invalid_config() {
        run_experiment(&ExpConfig::new(Algorithm::RadixShmem, 1024, 0));
    }

    #[test]
    fn speedup_is_positive_and_finite() {
        let seq = run_sequential_baseline(4096, 8, Dist::Gauss, 271828, 64, 1);
        assert!(seq.verified);
        let par = run_experiment(&ExpConfig::new(Algorithm::RadixShmem, 4096, 8).scale(64));
        let speedup = seq.time_ns / par.parallel_ns;
        assert!(speedup.is_finite() && speedup > 0.5, "speedup {speedup}");
    }

    #[test]
    fn mean_breakdown_averages() {
        let res = run_experiment(&ExpConfig::new(Algorithm::SampleShmem, 2048, 4).scale(64));
        let mean = res.mean_breakdown();
        let total = res.total();
        assert!((mean.total() * 4.0 - total.total()).abs() < 1e-6);
    }
}

#[cfg(test)]
mod section_tests {
    use super::*;

    #[test]
    fn results_carry_phase_sections() {
        let res = run_experiment(&ExpConfig::new(Algorithm::RadixShmem, 2048, 4).scale(64));
        let names: Vec<&str> = res.sections.iter().map(|(n, _)| n.as_str()).collect();
        for expected in ["histogram", "combine", "permute", "exchange"] {
            assert!(names.contains(&expected), "missing phase {expected} in {names:?}");
        }
        // Sections partition the per-processor time.
        let section_total: f64 = res.sections.iter().map(|(_, t)| t.total()).sum();
        let mean_total = res.mean_breakdown().total();
        assert!((section_total - mean_total).abs() < 1e-3 * mean_total.max(1.0));
    }

    #[test]
    fn sample_sort_sections_differ_from_radix() {
        let res = run_experiment(&ExpConfig::new(Algorithm::SampleCcsas, 2048, 4).scale(64));
        let names: Vec<&str> = res.sections.iter().map(|(n, _)| n.as_str()).collect();
        for expected in ["local-sort-1", "sampling", "splitters", "exchange", "local-sort-2"] {
            assert!(names.contains(&expected), "missing phase {expected} in {names:?}");
        }
        // The two local sorts dominate sample sort.
        let local: f64 = res
            .sections
            .iter()
            .filter(|(n, _)| n.starts_with("local-sort"))
            .map(|(_, t)| t.total())
            .sum();
        assert!(local > 0.5 * res.mean_breakdown().total());
    }

    #[test]
    fn warm_caches_reduce_time_without_changing_output() {
        let cold = run_experiment(&ExpConfig::new(Algorithm::RadixShmem, 4096, 4).scale(64));
        let warm = run_experiment(
            &ExpConfig::new(Algorithm::RadixShmem, 4096, 4).scale(64).warm_caches(true),
        );
        assert!(cold.verified && warm.verified);
        assert!(
            warm.parallel_ns < cold.parallel_ns,
            "warm start ({}) must beat cold start ({})",
            warm.parallel_ns,
            cold.parallel_ns
        );
    }

    #[test]
    fn audited_run_matches_unaudited_and_is_clean() {
        let cfg = ExpConfig::new(Algorithm::RadixCcsas, 2048, 4).scale(64);
        let plain = run_experiment(&cfg);
        let (audited, violations) = run_experiment_audited(&cfg);
        assert!(violations.is_empty(), "audit violations: {violations:?}");
        assert!(audited.verified);
        // Auditing observes; it must not perturb the simulation.
        assert_eq!(plain.parallel_ns, audited.parallel_ns);
        assert_eq!(plain.per_pe, audited.per_pe);
    }

    #[test]
    fn coalesced_algorithm_roundtrips_by_name() {
        assert_eq!(Algorithm::parse("radix-mpi-coalesced"), Ok(Algorithm::RadixMpiCoalesced));
        assert!(Algorithm::RadixMpiCoalesced.is_radix());
        let res = run_experiment(&ExpConfig::new(Algorithm::RadixMpiCoalesced, 2048, 4).scale(64));
        assert!(res.verified);
    }

    #[test]
    fn shmem_put_algorithm_runs_under_the_driver() {
        assert_eq!(Algorithm::parse("radix-shmem-put"), Ok(Algorithm::RadixShmemPut));
        assert!(Algorithm::RadixShmemPut.is_radix());
        let res = run_experiment(&ExpConfig::new(Algorithm::RadixShmemPut, 2048, 4).scale(64));
        assert!(res.verified);
        let names: Vec<&str> = res.sections.iter().map(|(n, _)| n.as_str()).collect();
        for expected in ["histogram", "combine", "permute", "exchange"] {
            assert!(names.contains(&expected), "missing phase {expected} in {names:?}");
        }
    }
}
