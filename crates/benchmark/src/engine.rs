//! The two engine workloads: `ccsort-parallel`'s radix sort called directly,
//! keys only (uniform `u32`) and key + payload pairs (Zipf `u64`).
//!
//! Layer names are the engine's modules: `parallel.radix`,
//! `parallel.histogram`, `parallel.steal`, `parallel.seq`.

use std::sync::Barrier;
use std::time::Instant;

use ccsort_parallel::{
    par_digit_histogram, par_multi_digit_histogram, par_radix_sort_pairs_with_scratch,
    par_radix_sort_with_scratch, seq_radix_sort, ChunkQueue, RadixSortConfig, SortScratch,
};

use crate::check::{keys_ok, pairs_ok, Fingerprint};
use crate::gen::{uniform_u32, zipf_u64};
use crate::metrics::LayerValues;
use crate::runner::{OpCtx, OpSample, Workload};
use crate::stats::median;
use crate::trace::Tracer;

/// Engine threads. Fixed, not derived from `nproc`: the pipeline host has
/// two cores, and a count that followed the host would change the workload.
const CHUNKS: usize = 2;
/// Sorts that end every set-up, after the first one through fresh scratch.
const WARMUP_SORTS: usize = 2;
/// Repetitions of each layer probe; the median is reported.
const PROBE_REPS: usize = 3;
const RADIX_BITS: u32 = 8;

fn engine_config(chunks: usize) -> RadixSortConfig {
    RadixSortConfig {
        chunks: Some(chunks),
        ..RadixSortConfig::default()
    }
}

/// The arrays one engine workload sorts, and the calls into the engine that
/// depend on their element type.
pub trait Arrays: Sized {
    const WORKLOAD: &'static str;
    const FULL_LEN: usize;
    /// 2 × the seed commit's `op_p50_ms` at `FULL_LEN`, two significant figures.
    const SLO_LIMIT_MS: f64;
    const ELEMENT_BYTES: usize;
    const KEY_BITS: u32;
    type Scratch;
    /// The set-up-time answer from `sort_unstable`, compared element by
    /// element with the warm-up sorts and then dropped.
    type Reference;

    fn generate(seed: u64, len: usize) -> Self;
    fn key_count(&self) -> usize;
    fn std_sort(&self) -> Self::Reference;
    fn matches(&self, reference: &Self::Reference) -> bool;
    /// Restore the pristine input: plain `copy_from_slice` of
    /// `len × ELEMENT_BYTES` bytes, the memcpy the calibration times.
    fn refill(&mut self);
    fn new_scratch() -> Self::Scratch;
    fn reallocations(scratch: &Self::Scratch) -> u64;
    fn sort(&mut self, cfg: &RadixSortConfig, scratch: &mut Self::Scratch);
    /// The harness's own check of the sorted arrays.
    fn verify(&self) -> bool;
    /// Flip one output element (`--corrupt`).
    fn damage(&mut self);
    /// `seq_radix_sort` of the keys alone, and whether they came out sorted.
    fn seq_sort_keys(&mut self) -> bool;
    /// Both histogram kernels over the pristine keys; true when every row
    /// counts every key.
    fn multi_histogram(&self) -> bool;
    fn single_histogram(&self) -> bool;
}

pub struct Keys {
    pristine: Vec<u32>,
    work: Vec<u32>,
    fingerprint: Fingerprint,
}

impl Arrays for Keys {
    const WORKLOAD: &'static str = "engine_u32_16m";
    const FULL_LEN: usize = 1 << 24;
    const SLO_LIMIT_MS: f64 = 200.0;
    const ELEMENT_BYTES: usize = 4;
    const KEY_BITS: u32 = 32;
    type Scratch = SortScratch<u32>;
    type Reference = Vec<u32>;

    fn generate(seed: u64, len: usize) -> Self {
        let pristine = uniform_u32(seed, len);
        Keys {
            fingerprint: Fingerprint::of(&pristine),
            work: pristine.clone(),
            pristine,
        }
    }

    fn key_count(&self) -> usize {
        self.pristine.len()
    }

    fn std_sort(&self) -> Vec<u32> {
        let mut reference = self.pristine.clone();
        reference.sort_unstable();
        reference
    }

    fn matches(&self, reference: &Vec<u32>) -> bool {
        self.work == *reference
    }

    fn refill(&mut self) {
        self.work.copy_from_slice(&self.pristine);
    }

    fn new_scratch() -> Self::Scratch {
        SortScratch::new()
    }

    fn reallocations(scratch: &Self::Scratch) -> u64 {
        scratch.reallocations()
    }

    fn sort(&mut self, cfg: &RadixSortConfig, scratch: &mut Self::Scratch) {
        par_radix_sort_with_scratch(&mut self.work, cfg, scratch);
    }

    fn verify(&self) -> bool {
        keys_ok(&self.work, self.fingerprint)
    }

    fn damage(&mut self) {
        self.work[0] ^= 1 << 31;
    }

    fn seq_sort_keys(&mut self) -> bool {
        seq_radix_sort(&mut self.work, RADIX_BITS);
        self.verify()
    }

    fn multi_histogram(&self) -> bool {
        let rows = par_multi_digit_histogram(&self.pristine, RADIX_BITS);
        rows.iter()
            .all(|row| row.iter().sum::<usize>() == self.pristine.len())
    }

    fn single_histogram(&self) -> bool {
        par_digit_histogram(&self.pristine, 0, RADIX_BITS)
            .iter()
            .sum::<usize>()
            == self.pristine.len()
    }
}

/// Zipf exponent and key domain of the skewed pairs workload: keys below
/// 2^24 leave five of a `u64`'s eight digit passes trivial.
const ZIPF_THETA: f64 = 1.1;
const ZIPF_DOMAIN: u64 = 1 << 24;

pub struct Pairs {
    pristine: Vec<u64>,
    /// `0..n`: each key's original index, so stability is observable.
    indices: Vec<u64>,
    keys: Vec<u64>,
    payload: Vec<u64>,
    key_fingerprint: Fingerprint,
    index_fingerprint: Fingerprint,
}

impl Arrays for Pairs {
    const WORKLOAD: &'static str = "engine_pairs_skew_4m";
    const FULL_LEN: usize = 1 << 22;
    const SLO_LIMIT_MS: f64 = 150.0;
    const ELEMENT_BYTES: usize = 16;
    const KEY_BITS: u32 = 64;
    type Scratch = SortScratch<u64, u64>;
    type Reference = Vec<(u64, u64)>;

    fn generate(seed: u64, len: usize) -> Self {
        let pristine = zipf_u64(seed, len, ZIPF_DOMAIN, ZIPF_THETA);
        let indices: Vec<u64> = (0..len as u64).collect();
        Pairs {
            key_fingerprint: Fingerprint::of(&pristine),
            index_fingerprint: Fingerprint::of(&indices),
            keys: pristine.clone(),
            payload: indices.clone(),
            indices,
            pristine,
        }
    }

    fn key_count(&self) -> usize {
        self.pristine.len()
    }

    /// Sorting `(key, original index)` tuples is the stable sort by key.
    fn std_sort(&self) -> Vec<(u64, u64)> {
        let mut reference: Vec<(u64, u64)> = self.pristine.iter().copied().zip(0..).collect();
        reference.sort_unstable();
        reference
    }

    fn matches(&self, reference: &Vec<(u64, u64)>) -> bool {
        self.keys
            .iter()
            .copied()
            .zip(self.payload.iter().copied())
            .eq(reference.iter().copied())
    }

    fn refill(&mut self) {
        self.keys.copy_from_slice(&self.pristine);
        self.payload.copy_from_slice(&self.indices);
    }

    fn new_scratch() -> Self::Scratch {
        SortScratch::new()
    }

    fn reallocations(scratch: &Self::Scratch) -> u64 {
        scratch.reallocations()
    }

    fn sort(&mut self, cfg: &RadixSortConfig, scratch: &mut Self::Scratch) {
        par_radix_sort_pairs_with_scratch(&mut self.keys, &mut self.payload, cfg, scratch);
    }

    fn verify(&self) -> bool {
        pairs_ok(
            &self.keys,
            &self.payload,
            &self.pristine,
            self.index_fingerprint,
        )
    }

    fn damage(&mut self) {
        self.payload.swap(0, 1);
    }

    fn seq_sort_keys(&mut self) -> bool {
        seq_radix_sort(&mut self.keys, RADIX_BITS);
        keys_ok(&self.keys, self.key_fingerprint)
    }

    fn multi_histogram(&self) -> bool {
        let rows = par_multi_digit_histogram(&self.pristine, RADIX_BITS);
        rows.iter()
            .all(|row| row.iter().sum::<usize>() == self.pristine.len())
    }

    fn single_histogram(&self) -> bool {
        par_digit_histogram(&self.pristine, 0, RADIX_BITS)
            .iter()
            .sum::<usize>()
            == self.pristine.len()
    }
}

/// Seconds the refill — a copy of 64 MiB, the same for both workloads —
/// takes on the reference host (2 vCPU Xeon @ 2.1 GHz microVM) when its
/// neighbours are quiet: 20 GB/s read + written.
const REFERENCE_REFILL_S: f64 = 6.7e-3;

pub struct EngineWorkload<A: Arrays> {
    arrays: A,
    scratch: A::Scratch,
    cfg: RadixSortConfig,
    /// False in `--smoke` mode, whose arrays fit the caches: the frozen
    /// latency limit and the memcpy calibration are then meaningless.
    full_size: bool,
    /// Refill time before each op since set-up: the run's own measure of
    /// how fast the host's memory is *now* (see `time_scale`).
    refill_s: Vec<f64>,
    reallocs_after_setup: u64,
    std_sort_s: f64,
    first_sort_s: f64,
}

impl<A: Arrays> EngineWorkload<A> {
    /// Input generation, the `sort_unstable` reference, the first sort
    /// through fresh scratch, and `WARMUP_SORTS` more — each compared with
    /// the reference element by element.
    pub fn set_up(seed: u64, smoke: bool) -> Result<Self, String> {
        let mut arrays = A::generate(seed, if smoke { 1 << 16 } else { A::FULL_LEN });
        let t = Instant::now();
        let reference = arrays.std_sort();
        let std_sort_s = t.elapsed().as_secs_f64();

        let cfg = engine_config(CHUNKS);
        let mut scratch = A::new_scratch();
        let mut first_sort_s = 0.0;
        for sort in 0..=WARMUP_SORTS {
            arrays.refill();
            let t = Instant::now();
            arrays.sort(&cfg, &mut scratch);
            if sort == 0 {
                first_sort_s = t.elapsed().as_secs_f64();
            }
            if !arrays.matches(&reference) {
                return Err(format!(
                    "{}: set-up sort {sort} differs from sort_unstable",
                    A::WORKLOAD
                ));
            }
        }
        let reallocs_after_setup = A::reallocations(&scratch);
        let refill_s = Vec::with_capacity(1 << 12);
        Ok(EngineWorkload {
            arrays,
            scratch,
            cfg,
            full_size: !smoke,
            refill_s,
            reallocs_after_setup,
            std_sort_s,
            first_sort_s,
        })
    }

    /// Median seconds over `PROBE_REPS` runs of `timed`, each on refilled
    /// arrays; `timed` returns whether its output verified.
    fn probe(
        &mut self,
        tracer: &mut Tracer,
        span: &'static str,
        mut timed: impl FnMut(&mut A) -> bool,
    ) -> Result<f64, String> {
        let mut seconds = Vec::with_capacity(PROBE_REPS);
        for _ in 0..PROBE_REPS {
            self.arrays.refill();
            let (ok, s) = tracer.probe(span, || timed(&mut self.arrays));
            if !ok {
                return Err(format!("{}: probe {span} failed verification", A::WORKLOAD));
            }
            seconds.push(s);
        }
        Ok(median(&seconds))
    }

    /// Steady-state sort time under another configuration, through scratch
    /// of its own that one untimed sort has already shaped.
    fn probe_config(
        &mut self,
        tracer: &mut Tracer,
        span: &'static str,
        cfg: RadixSortConfig,
    ) -> Result<f64, String> {
        let mut scratch = A::new_scratch();
        self.arrays.refill();
        self.arrays.sort(&cfg, &mut scratch);
        self.probe(tracer, span, |a| {
            a.sort(&cfg, &mut scratch);
            a.verify()
        })
    }
}

impl<A: Arrays> Workload for EngineWorkload<A> {
    fn keys_per_op(&self) -> u64 {
        self.arrays.key_count() as u64
    }

    fn slo_limit_ms(&self) -> f64 {
        if self.full_size {
            A::SLO_LIMIT_MS
        } else {
            crate::runner::SMOKE_SLO_LIMIT_MS
        }
    }

    fn trace_ops(&self) -> usize {
        20
    }

    /// Sorting 64 MiB is memory time, and on a shared host memory speed
    /// drifts by a quarter over minutes (NOISE.md). The refill before every
    /// op is a memcpy of the same arrays, interleaved with the sorts, so
    /// the run knows how fast memory was while it ran: times are reported
    /// as they would be at the reference host's quiet memcpy speed.
    fn time_scale(&self) -> f64 {
        if self.full_size && !self.refill_s.is_empty() {
            REFERENCE_REFILL_S / median(&self.refill_s)
        } else {
            1.0
        }
    }

    fn op(&mut self, ctx: OpCtx<'_>) -> OpSample {
        let t_refill = Instant::now();
        self.arrays.refill();
        let t0 = Instant::now();
        self.arrays.sort(&self.cfg, &mut self.scratch);
        let t1 = Instant::now();
        self.refill_s.push((t0 - t_refill).as_secs_f64());
        if ctx.corrupt {
            self.arrays.damage();
        }
        let ok = self.arrays.verify();
        if let Some(tracer) = ctx.tracer {
            let op = Some(ctx.index);
            tracer.record("harness.refill", t_refill, t0, None, op, 0);
            tracer.record("parallel.radix.sort", t0, t1, None, op, 0);
            tracer.record("harness.verify", t1, Instant::now(), None, op, 0);
        }
        OpSample {
            latency_ns: (t1 - t0).as_nanos() as u64,
            ok,
        }
    }

    fn layers(&mut self, tracer: &mut Tracer, out: &mut LayerValues) -> Result<(), String> {
        let sort_s = median(&tracer.durations_s("parallel.radix.sort"));
        let refill_s = median(&self.refill_s);
        let array_bytes = (self.arrays.key_count() * A::ELEMENT_BYTES) as f64;
        // A copy reads and writes every byte; both directions count, as they
        // do in `bytes_moved_computed`.
        let memcpy_bytes_per_s = 2.0 * array_bytes / refill_s;
        // What a plain LSD sort must move: every element read and written
        // once per 8-bit digit of the key. Computed from sizes, not measured.
        let bytes_moved = array_bytes * 2.0 * f64::from(A::KEY_BITS.div_ceil(RADIX_BITS));
        out.set("calib.memcpy_gbps", memcpy_bytes_per_s / 1e9);
        out.set("calib.std_sort_ms", self.std_sort_s * 1e3);
        out.set("parallel.radix.sort_ms", sort_s * 1e3);
        out.set("parallel.radix.first_sort_ms", self.first_sort_s * 1e3);
        out.set(
            "parallel.radix.scratch_reallocs",
            (A::reallocations(&self.scratch) - self.reallocs_after_setup) as f64,
        );
        out.set("parallel.radix.array_mb", array_bytes / f64::from(1 << 20));
        out.set("parallel.radix.bytes_moved_computed", bytes_moved);
        out.set(
            "parallel.radix.roofline_share",
            bytes_moved / sort_s / memcpy_bytes_per_s,
        );

        let simple = RadixSortConfig {
            chunks: Some(CHUNKS),
            ..RadixSortConfig::simple()
        };
        let s = self.probe_config(tracer, "parallel.radix.sort[simple]", simple)?;
        out.set("parallel.radix.simple_ms", s * 1e3);
        let s = self.probe_config(tracer, "parallel.radix.sort[chunks=1]", engine_config(1))?;
        out.set("parallel.radix.t1_ms", s * 1e3);
        let s = self.probe(tracer, "parallel.seq.radix_sort", A::seq_sort_keys)?;
        out.set("parallel.seq.sort_ms", s * 1e3);
        let s = self.probe(
            tracer,
            "parallel.histogram.par_multi_digit_histogram",
            |a| a.multi_histogram(),
        )?;
        out.set("parallel.histogram.multi_ms", s * 1e3);
        let s = self.probe(tracer, "parallel.histogram.par_digit_histogram", |a| {
            a.single_histogram()
        })?;
        out.set("parallel.histogram.single_ms", s * 1e3);

        let (claims, claim_ns) = steal_probe(tracer);
        out.set("parallel.steal.claims", claims as f64);
        out.set("parallel.steal.claim_ns", claim_ns);
        Ok(())
    }
}

/// `CHUNKS` threads drain a stealing `ChunkQueue` of 2^16 chunks from a
/// common start line. Returns `(claims, ns per claim)`, the slowest thread's
/// loop being the wall time.
fn steal_probe(tracer: &mut Tracer) -> (u64, f64) {
    let queue = ChunkQueue::new(CHUNKS, 1 << 16, true);
    let start_line = Barrier::new(CHUNKS);
    let drain = |worker: usize| {
        start_line.wait();
        let t = Instant::now();
        let mut claims = 0u64;
        while let Some(chunk) = queue.claim(worker) {
            std::hint::black_box(chunk);
            claims += 1;
        }
        (claims, t.elapsed().as_secs_f64())
    };
    let (per_thread, _) = tracer.probe("parallel.steal.ChunkQueue.claim", || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CHUNKS)
                .map(|worker| scope.spawn(move || drain(worker)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the claim loop does not panic"))
                .collect::<Vec<_>>()
        })
    });
    let mut claims = 0;
    let mut wall_s = 0.0f64;
    for (c, s) in per_thread {
        claims += c;
        wall_s = wall_s.max(s);
    }
    (claims, wall_s * 1e9 / claims as f64)
}
