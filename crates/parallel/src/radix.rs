//! Thread-parallel LSD radix sort, speed-grade.
//!
//! The structure mirrors the paper's parallel radix sort — per-chunk
//! histograms, global ranks (`offset[chunk][digit]`), disjoint parallel
//! permutation through a [`SharedSlice`] — with the paper's communication
//! tricks ported to real cores:
//!
//! * **Write coalescing** ([`RadixSortConfig::coalesce_bytes`]): each
//!   worker stages keys in small per-bucket buffers and flushes a full
//!   buffer with one contiguous block store into the shared output. The
//!   scattered single-element remote writes that dominate the paper's
//!   permutation phase become full-cache-line bursts — the paper's message
//!   coalescing, lifted to shared memory.
//! * **Work stealing** ([`RadixSortConfig::work_stealing`]): the input is
//!   over-partitioned into more chunks than workers and both the counting
//!   and permute phases drain a [`ChunkQueue`], so a straggling worker (or
//!   a skew-slowed chunk) never serializes a phase. Output is independent
//!   of the steal schedule: every element's destination is fixed by the
//!   rank arithmetic before the phase starts.
//! * **Fused multi-digit histogramming**
//!   ([`RadixSortConfig::fused_histogram`]): one unrolled read pass counts
//!   every pass's digits at once (global counts are permutation-invariant),
//!   which both discovers trivial passes to skip outright and seeds the
//!   first per-chunk histogram; each permute then counts the *next* pass's
//!   per-chunk digits while the keys are already in registers, eliminating
//!   the per-pass re-read of the whole array.
//!
//! All count matrices are cache-line padded ([`PaddedCounts`]), so no two
//! workers' counters ever share a line. The pre-optimization behaviour is
//! preserved behind [`RadixSortConfig::simple`]; every configuration
//! produces bit-identical sorted output (and identical stable order in the
//! pairs sorts), which the property suite checks against `sort_unstable`.

use std::ops::Range;

use crate::histogram::{count_digits_into, PaddedCounts};
use crate::key::RadixKey;
use crate::seq::{hist_len, lsd_sort, passes_for, DEFAULT_RADIX_BITS};
use crate::shared::SharedSlice;
use crate::steal::ChunkQueue;

/// Digit widths above this skip the fused-histogram path: the per-worker
/// next-pass count matrices stop fitting in cache and the fused read's
/// global rows stop paying for themselves.
const MAX_FUSED_RADIX_BITS: u32 = 12;

/// Per-worker next-pass count matrices larger than this many counters fall
/// back to per-pass counting even when fusion is on.
const MAX_FUSED_NH_WORDS: usize = 1 << 18;

/// Default [`RadixSortConfig::sequential_cutoff`], from the n × chunks
/// table in DESIGN.md §14 (n = 2^13…2^20, `chunks` 1 and 2, sequential
/// kernel vs engine): keys-only `u32` sorts cross over near 2^20,
/// `(u64, u64)` pairs near 2^18, and with one worker the engine never wins
/// below 2^19. 2^18 is the minimax choice — on either side of it the lane
/// that would have preferred the other path loses at most a seventh,
/// where the old 2^13 lost 4× on a 16,384-key sort.
const DEFAULT_SEQUENTIAL_CUTOFF: usize = 1 << 18;

/// Largest accepted per-bucket staging buffer. Buffers beyond this stop
/// fitting in cache, which defeats write coalescing.
pub const MAX_COALESCE_BYTES: usize = 1 << 20;

/// Configuration for [`par_radix_sort_with`] and
/// [`crate::pairs::par_radix_sort_pairs_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RadixSortConfig {
    /// Digit width in bits (1..=16).
    pub radix_bits: u32,
    /// Number of parallel workers, each an OS thread under
    /// `std::thread::scope`; `None` = `std::thread::available_parallelism`.
    pub chunks: Option<usize>,
    /// At or below this length, run the sequential kernel of
    /// [`crate::seq`] instead of the engine: every engine phase is a
    /// fork/join over `chunks` threads and every chunk flushes `bins`
    /// partial staging buffers per pass, fixed costs a cache-resident
    /// input cannot repay. The default is the measured crossover
    /// (DESIGN.md §14).
    pub sequential_cutoff: usize,
    /// Per-bucket staging-buffer size in bytes for the write-coalescing
    /// permute; `None` selects the direct-scatter permute (one write per
    /// element, the pre-coalescing behaviour).
    pub coalesce_bytes: Option<usize>,
    /// Drain the counting and permute phases through a work-stealing chunk
    /// queue instead of static partitioning.
    pub work_stealing: bool,
    /// Chunks per worker when `work_stealing` is on: the over-partitioning
    /// factor that gives thieves something to take.
    pub steal_granularity: usize,
    /// Count all passes' digits in one fused read pass (enables trivial
    /// pass skipping) and count the next pass's digits during each permute
    /// (eliminates per-pass re-reads).
    pub fused_histogram: bool,
}

impl Default for RadixSortConfig {
    fn default() -> Self {
        RadixSortConfig {
            radix_bits: DEFAULT_RADIX_BITS,
            chunks: None,
            sequential_cutoff: DEFAULT_SEQUENTIAL_CUTOFF,
            coalesce_bytes: Some(1024),
            work_stealing: true,
            steal_granularity: 4,
            fused_histogram: true,
        }
    }
}

impl RadixSortConfig {
    /// The correctness-grade configuration this library shipped before the
    /// speed work: static partitioning, direct scatter, one counting pass
    /// per digit. Kept selectable as the baseline the benchmarks compare
    /// against.
    pub fn simple() -> Self {
        RadixSortConfig {
            coalesce_bytes: None,
            work_stealing: false,
            steal_granularity: 1,
            fused_histogram: false,
            ..RadixSortConfig::default()
        }
    }

    /// Check the configuration before any thread or buffer is created,
    /// naming the offending field — mirrors `ExpConfig::validate` on the
    /// simulator side. A valid configuration sorts identically with or
    /// without the check.
    pub fn validate(&self) -> Result<(), String> {
        if self.radix_bits == 0 {
            return Err("radix_bits = 0: each pass must consume at least one bit".to_string());
        }
        if self.radix_bits > 16 {
            return Err(format!(
                "radix_bits = {}: digit widths above 16 need histograms past the \
                 L2-resident sizes this sort is tuned for",
                self.radix_bits
            ));
        }
        if self.chunks == Some(0) {
            return Err("chunks = 0: at least one worker is required (None = one \
                        per available core)"
                .to_string());
        }
        match self.coalesce_bytes {
            Some(0) => {
                return Err("coalesce_bytes = 0: a zero-sized staging buffer cannot \
                            hold a key; use None for the direct-scatter permute"
                    .to_string())
            }
            Some(b) if b > MAX_COALESCE_BYTES => {
                return Err(format!(
                    "coalesce_bytes = {b}: staging buffers above {MAX_COALESCE_BYTES} \
                     bytes per bucket stop fitting in cache, which defeats write \
                     coalescing"
                ))
            }
            _ => {}
        }
        if self.steal_granularity == 0 {
            return Err("steal_granularity = 0: the work-stealing queue needs at \
                        least one chunk per worker"
                .to_string());
        }
        Ok(())
    }
}

/// Sort `keys` in parallel with the default configuration.
pub fn par_radix_sort<K: RadixKey + Default>(keys: &mut [K]) {
    par_radix_sort_with(keys, &RadixSortConfig::default());
}

/// Sort `keys` in parallel with an explicit configuration.
pub fn par_radix_sort_with<K: RadixKey + Default>(keys: &mut [K], cfg: &RadixSortConfig) {
    if let Err(e) = cfg.validate() {
        panic!("invalid RadixSortConfig: {e}");
    }
    if keys.len() <= cfg.sequential_cutoff.max(1) {
        crate::seq::radix_sort(keys, cfg.radix_bits);
        return;
    }
    let mut scratch = SortScratch::new();
    sort_engine::<K, (), false>(keys, &mut [], cfg, &mut scratch);
}

/// Sort `keys` in parallel, reusing `scratch` across calls.
///
/// Identical output to [`par_radix_sort_with`] (bit for bit, every
/// configuration), but every buffer the engine needs — the flip buffer,
/// the count matrices, and each worker's write-coalescing staging blocks —
/// lives in the caller-owned [`SortScratch`] and is reused on the next
/// call. A long-running caller (the sorting service) that sorts a steady
/// stream of same-shaped inputs therefore allocates nothing per sort after
/// the first: [`SortScratch::reallocations`] counts the growths so tests
/// can prove it. Inputs at or below `sequential_cutoff` run the sequential
/// fallback through the same scratch (no per-call histogram or flip-buffer
/// allocation either).
///
/// `V` is the payload type the scratch is shared with (`()` when the
/// scratch only ever sorts bare keys); one scratch may serve both the
/// keys-only and the pairs entry points of the same `K`/`V` pair.
pub fn par_radix_sort_with_scratch<K, V>(
    keys: &mut [K],
    cfg: &RadixSortConfig,
    scratch: &mut SortScratch<K, V>,
) where
    K: RadixKey + Default,
    V: Copy + Send + Sync + Default,
{
    if let Err(e) = cfg.validate() {
        panic!("invalid RadixSortConfig: {e}");
    }
    if keys.len() <= cfg.sequential_cutoff.max(1) {
        scratch.sort_sequential::<false>(keys, &mut [], cfg.radix_bits);
        return;
    }
    sort_engine::<K, V, false>(keys, &mut [], cfg, scratch);
}

/// Fixed-stride chunk geometry: stride is a power of two so the permute can
/// map an output position to its destination chunk with one shift (the
/// fused next-pass counters are indexed by destination chunk).
#[derive(Clone, Copy)]
struct ChunkGeom {
    q_shift: u32,
    m: usize,
    n: usize,
}

impl ChunkGeom {
    fn new(n: usize, target_chunks: usize) -> Self {
        let q = n.div_ceil(target_chunks.max(1)).next_power_of_two().max(1);
        ChunkGeom { q_shift: q.trailing_zeros(), m: n.div_ceil(q).max(1), n }
    }

    fn chunks(&self) -> usize {
        self.m
    }

    #[inline]
    fn range(&self, c: usize) -> Range<usize> {
        (c << self.q_shift)..self.end_of(c)
    }

    #[inline]
    fn chunk_of(&self, pos: usize) -> usize {
        pos >> self.q_shift
    }

    #[inline]
    fn end_of(&self, c: usize) -> usize {
        ((c + 1) << self.q_shift).min(self.n)
    }
}

/// How a phase runs: chunk geometry, worker count, steal or static.
#[derive(Clone, Copy)]
struct Exec {
    geom: ChunkGeom,
    workers: usize,
    steal: bool,
}

/// Everything a permute worker needs, shared read-only across workers.
struct PermuteCtx<'a, K, V> {
    src_k: &'a [K],
    src_v: &'a [V],
    out_k: SharedSlice<'a, K>,
    out_v: SharedSlice<'a, V>,
    geom: ChunkGeom,
    shift: u32,
    mask: u64,
    bins: usize,
    /// Shift of the next executed pass whose per-chunk histograms this
    /// permute computes on the fly; `None` = don't count during permute.
    next_shift: Option<u32>,
}

/// Per-worker write-coalescing staging: `elems` keys (and payloads) per
/// bucket, flushed as one contiguous block when full and at chunk ends.
struct Stage<K, V> {
    kbuf: Vec<K>,
    vbuf: Vec<V>,
    fill: Vec<u32>,
    elems: usize,
}

impl<K: Copy + Default, V: Copy + Default> Stage<K, V> {
    fn empty() -> Self {
        Stage { kbuf: Vec::new(), vbuf: Vec::new(), fill: Vec::new(), elems: 0 }
    }

    /// Shape the buffers for `bins` buckets of `elems` elements, reusing
    /// the existing allocations when they are large enough. Returns `true`
    /// when any backing buffer had to grow. Staged contents are governed
    /// entirely by `fill`, so a same-shape reset only zeroes the (tiny)
    /// fill array — the steady-state path writes nothing else.
    fn reset(&mut self, bins: usize, elems: usize, with_vals: bool) -> bool {
        let kn = bins * elems;
        let vn = if with_vals { kn } else { 0 };
        let same_shape =
            self.kbuf.len() == kn && self.vbuf.len() == vn && self.fill.len() == bins;
        if same_shape {
            self.fill.fill(0);
            self.elems = elems;
            return false;
        }
        let grew =
            kn > self.kbuf.capacity() || vn > self.vbuf.capacity() || bins > self.fill.capacity();
        self.kbuf.clear();
        self.kbuf.resize(kn, K::default());
        self.vbuf.clear();
        self.vbuf.resize(vn, V::default());
        self.fill.clear();
        self.fill.resize(bins, 0);
        self.elems = elems;
        grew
    }
}

/// One worker's private reusable buffers: the coalescing stage, the
/// next-pass count matrix the fused permute fills, and the fused read's
/// per-pass global counts. Handed to exactly one worker thread per phase
/// (disjoint `&mut` via `iter_mut`), so no synchronization is needed.
struct WorkerScratch<K, V> {
    stage: Stage<K, V>,
    nh: PaddedCounts,
    fused: PaddedCounts,
    reallocations: u64,
}

impl<K: Copy + Default, V: Copy + Default> WorkerScratch<K, V> {
    fn new() -> Self {
        WorkerScratch {
            stage: Stage::empty(),
            nh: PaddedCounts::new(0, 0),
            fused: PaddedCounts::new(0, 0),
            reallocations: 0,
        }
    }
}

/// Caller-owned reusable buffers for [`par_radix_sort_with_scratch`] and
/// [`crate::pairs::par_radix_sort_pairs_with_scratch`]: the flip buffers,
/// the per-chunk count matrices, the sequential-fallback histogram, and
/// one `WorkerScratch` per worker. Everything is reshaped (never shrunk)
/// on each call, so a steady stream of same-shaped sorts touches only
/// buffers allocated by the first call.
///
/// `V = ()` for keys-only scratches. A scratch may be reused freely across
/// input lengths, digit widths, and configurations — it grows to the
/// high-water mark and stays there.
pub struct SortScratch<K, V = ()> {
    keys: Vec<K>,
    vals: Vec<V>,
    hist: Vec<usize>,
    chunk_hists: PaddedCounts,
    offsets: PaddedCounts,
    workers: Vec<WorkerScratch<K, V>>,
    reallocations: u64,
}

impl<K: Copy + Default, V: Copy + Default> Default for SortScratch<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Default, V: Copy + Default> SortScratch<K, V> {
    /// An empty scratch; the first sort through it sizes every buffer.
    pub fn new() -> Self {
        SortScratch {
            keys: Vec::new(),
            vals: Vec::new(),
            hist: Vec::new(),
            chunk_hists: PaddedCounts::new(0, 0),
            offsets: PaddedCounts::new(0, 0),
            workers: Vec::new(),
            reallocations: 0,
        }
    }

    /// How many times any backing buffer has grown since construction.
    /// Two identically-shaped sorts in a row leave this unchanged across
    /// the second — the steady-state allocation-free property the service
    /// tests assert.
    pub fn reallocations(&self) -> u64 {
        let mut total = self.reallocations;
        for w in &self.workers {
            total += w.reallocations;
        }
        total
    }

    /// Shape every engine buffer for one sort. Counts growths in
    /// `reallocations`; reuse is the common case.
    #[allow(clippy::too_many_arguments)]
    fn ensure(
        &mut self,
        n: usize,
        with_vals: bool,
        m: usize,
        bins: usize,
        workers: usize,
        buf_elems: Option<usize>,
        fused_rows: usize,
    ) {
        let mut grew = self.ensure_flip(n, with_vals);
        grew |= self.chunk_hists.reset(m, bins);
        grew |= self.offsets.reset(m, bins);
        if workers > self.workers.len() {
            grew = true;
            self.workers.resize_with(workers, WorkerScratch::new);
        }
        for w in &mut self.workers[..workers] {
            if let Some(e) = buf_elems {
                w.reallocations += w.stage.reset(bins, e, with_vals) as u64;
            }
            if fused_rows > 0 {
                w.reallocations += w.fused.reset(fused_rows, bins) as u64;
            }
        }
        self.reallocations += grew as u64;
    }

    /// Shape the flip buffers for `n` elements; `true` when one had to
    /// grow. They are fully written before they are read (every executed
    /// pass writes all n destination slots), so a same-length reuse skips
    /// the default-fill entirely.
    fn ensure_flip(&mut self, n: usize, with_vals: bool) -> bool {
        let vn = if with_vals { n } else { 0 };
        let mut grew = false;
        if self.keys.len() != n {
            grew |= n > self.keys.capacity();
            self.keys.clear();
            self.keys.resize(n, K::default());
        }
        if self.vals.len() != vn {
            grew |= vn > self.vals.capacity();
            self.vals.clear();
            self.vals.resize(vn, V::default());
        }
        grew
    }

    /// The sequential path of the scratch entry points: the kernel of
    /// [`crate::seq`] run on this scratch's flip buffers and its
    /// `passes × bins` histogram (which the kernel zeroes itself), so
    /// sub-cutoff sorts allocate nothing at steady state either.
    pub(crate) fn sort_sequential<const WITH_VALS: bool>(
        &mut self,
        keys: &mut [K],
        vals: &mut [V],
        radix_bits: u32,
    ) where
        K: RadixKey,
    {
        let n = keys.len();
        if n <= 1 {
            return;
        }
        let need = hist_len::<K>(radix_bits);
        let mut grew = self.ensure_flip(n, WITH_VALS);
        if self.hist.len() != need {
            grew |= need > self.hist.capacity();
            self.hist.clear();
            self.hist.resize(need, 0);
        }
        self.reallocations += grew as u64;
        lsd_sort::<K, V, WITH_VALS>(
            keys,
            vals,
            &mut self.keys,
            &mut self.vals,
            &mut self.hist,
            radix_bits,
        );
    }
}

/// The shared engine behind [`par_radix_sort_with`] (V = `()`, no payload
/// lane) and `par_radix_sort_pairs_with` (`WITH_VALS = true`). Stable for
/// any configuration: within a chunk, keys are staged and flushed in input
/// order to consecutive positions; across chunks, the digit-major rank
/// construction orders lower chunk ids first.
pub(crate) fn sort_engine<K, V, const WITH_VALS: bool>(
    keys: &mut [K],
    vals: &mut [V],
    cfg: &RadixSortConfig,
    scratch: &mut SortScratch<K, V>,
) where
    K: RadixKey + Default,
    V: Copy + Send + Sync + Default,
{
    let n = keys.len();
    debug_assert!(n > 1, "engine callers handle the trivial sizes");
    let bins = 1usize << cfg.radix_bits;
    let mask = (bins - 1) as u64;
    let total_passes = passes_for::<K>(cfg.radix_bits) as usize;
    let workers = cfg.chunks.unwrap_or_else(default_workers).clamp(1, n);
    let target_chunks =
        if cfg.work_stealing { workers.saturating_mul(cfg.steal_granularity) } else { workers };
    let exec = Exec { geom: ChunkGeom::new(n, target_chunks), workers, steal: cfg.work_stealing };
    let m = exec.geom.chunks();

    let fused = cfg.fused_histogram && cfg.radix_bits <= MAX_FUSED_RADIX_BITS;
    // Counting the next pass during a permute needs one m × bins matrix per
    // worker; past the cache budget the re-read is cheaper than the misses.
    // It also needs the staging buffers: counting at flush time walks keys
    // that are already cache-hot in blocks, whereas counting inside the
    // direct scatter loop adds a row lookup to every single element.
    let count_during_permute =
        fused && cfg.coalesce_bytes.is_some() && m * bins <= MAX_FUSED_NH_WORDS;
    let buf_elems = cfg.coalesce_bytes.map(|b| (b / std::mem::size_of::<K>()).max(1));

    scratch.ensure(
        n,
        WITH_VALS,
        m,
        bins,
        workers,
        buf_elems,
        if fused { total_passes.saturating_sub(1) } else { 0 },
    );
    let SortScratch { keys: key_scratch, vals: val_scratch, chunk_hists, offsets, workers: ws, .. } =
        scratch;
    let (key_scratch, val_scratch) = (&mut key_scratch[..], &mut val_scratch[..]);
    let ws = &mut ws[..workers];

    // Pass schedule. In fused mode one read pass yields every pass's global
    // histogram (permutation-invariant, so valid for the whole sort): a
    // pass whose keys all share one digit is an identity permutation and is
    // skipped without ever being read again. The same read fills the
    // per-chunk histograms for pass 0, valid while no permute has moved
    // anything.
    let mut skip = vec![false; total_passes];
    let mut have_hists: Option<usize> = None;
    if fused {
        let globals = run_fused_count(keys, exec, cfg.radix_bits, total_passes, chunk_hists, ws);
        for (pass, hist) in globals.iter().enumerate() {
            skip[pass] = hist.contains(&n);
        }
        if !skip[0] {
            have_hists = Some(0);
        }
    }

    let mut flipped = false;
    for pass in 0..total_passes {
        if skip[pass] {
            continue;
        }
        let shift = pass as u32 * cfg.radix_bits;
        let (src_k, dst_k): (&[K], &mut [K]) =
            if flipped { (&*key_scratch, &mut *keys) } else { (&*keys, &mut *key_scratch) };
        let (src_v, dst_v): (&[V], &mut [V]) =
            if flipped { (&*val_scratch, &mut *vals) } else { (&*vals, &mut *val_scratch) };

        if have_hists != Some(pass) {
            run_count(src_k, exec, shift, mask, chunk_hists);
            have_hists = Some(pass);
        }
        let trivial = build_offsets(chunk_hists, offsets, n);
        if trivial {
            // Identity permutation discovered from the counts alone (only
            // reachable without fusion; the fused schedule skips these
            // before counting). Data stays in place; no flip.
            debug_assert!(!fused);
            continue;
        }

        let next_exec = if count_during_permute {
            ((pass + 1)..total_passes).find(|&p| !skip[p])
        } else {
            None
        };
        let ctx = PermuteCtx {
            src_k,
            src_v,
            out_k: SharedSlice::new(dst_k),
            out_v: SharedSlice::new(dst_v),
            geom: exec.geom,
            shift,
            mask,
            bins,
            next_shift: next_exec.map(|p| p as u32 * cfg.radix_bits),
        };
        run_permute::<K, V, WITH_VALS>(&ctx, exec, buf_elems, offsets, chunk_hists, ws);
        if let Some(np) = next_exec {
            have_hists = Some(np);
        }
        flipped = !flipped;
    }

    if flipped {
        keys.copy_from_slice(&key_scratch[..n]);
        if WITH_VALS {
            vals.copy_from_slice(&val_scratch[..n]);
        }
    }
}

/// Worker count when the configuration leaves it to the machine.
fn default_workers() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Run `f(0..workers)` on real OS threads and collect the results in
/// worker order. `workers == 1` runs inline — the single-threaded
/// configurations pay no spawn cost. The scope join is the fork/join
/// barrier the `ChunkQueue` memory-ordering argument relies on.
fn run_workers<T, F>(workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers == 1 {
        return vec![f(0)];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                s.spawn(move || f(w))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sort worker panicked")).collect()
    })
}

/// Like [`run_workers`], but hands each worker exclusive `&mut` access to
/// its own [`WorkerScratch`] (disjoint by `iter_mut`) so per-worker staging
/// and count buffers survive across phases and across sorts instead of
/// being allocated per pass.
fn run_workers_scratch<K, V, F>(workers: usize, ws: &mut [WorkerScratch<K, V>], f: F)
where
    K: Send,
    V: Send,
    F: Fn(usize, &mut WorkerScratch<K, V>) + Sync,
{
    debug_assert_eq!(ws.len(), workers);
    if workers == 1 {
        f(0, &mut ws[0]);
        return;
    }
    std::thread::scope(|s| {
        for (w, slot) in ws.iter_mut().enumerate() {
            let f = &f;
            s.spawn(move || f(w, slot));
        }
    });
}

/// Per-chunk digit counts for one pass, in parallel over the chunk queue.
fn run_count<K: RadixKey>(
    src: &[K],
    exec: Exec,
    shift: u32,
    mask: u64,
    chunk_hists: &mut PaddedCounts,
) {
    let shared = chunk_hists.shared();
    let queue = ChunkQueue::new(exec.workers, exec.geom.chunks(), exec.steal);
    run_workers(exec.workers, |w| {
        while let Some(c) = queue.claim(w) {
            // SAFETY: chunk ids are claimed exactly once per phase, so row
            // `c` is touched by this worker only.
            let row = unsafe { shared.row_mut(c) };
            row.fill(0);
            count_digits_into(&src[exec.geom.range(c)], shift, mask, row);
        }
    });
}

/// The fused read: per-chunk counts for pass 0 into `chunk_hists`, plus
/// per-worker padded global counts for every later pass (each worker's
/// reusable `fused` matrix, zeroed by `ensure`), reduced and returned as
/// one global histogram per pass.
fn run_fused_count<K, V>(
    src: &[K],
    exec: Exec,
    radix_bits: u32,
    passes: usize,
    chunk_hists: &mut PaddedCounts,
    ws: &mut [WorkerScratch<K, V>],
) -> Vec<Vec<usize>>
where
    K: RadixKey + Send,
    V: Send,
{
    let bins = 1usize << radix_bits;
    let mask = (bins - 1) as u64;
    let shared = chunk_hists.shared();
    let queue = ChunkQueue::new(exec.workers, exec.geom.chunks(), exec.steal);
    // L1-blocked, pass-major: each block is counted once per pass through
    // the unrolled counter while it is still cache-hot, so the fused read
    // costs the same instructions as `passes` separate count loops but
    // makes only one trip through memory.
    const FUSED_BLOCK: usize = 2048;
    run_workers_scratch(exec.workers, ws, |w, wsc| {
        let high = &mut wsc.fused;
        while let Some(c) = queue.claim(w) {
            // SAFETY: chunk ids are claimed exactly once per phase.
            let row0 = unsafe { shared.row_mut(c) };
            row0.fill(0);
            for block in src[exec.geom.range(c)].chunks(FUSED_BLOCK) {
                count_digits_into(block, 0, mask, row0);
                for p in 1..passes {
                    count_digits_into(block, p as u32 * radix_bits, mask, high.row_mut(p - 1));
                }
            }
        }
    });

    let mut globals = vec![vec![0usize; bins]; passes];
    for c in 0..exec.geom.chunks() {
        for (g, h) in globals[0].iter_mut().zip(chunk_hists.row(c)) {
            *g += h;
        }
    }
    for part in ws.iter() {
        for (p, global) in globals.iter_mut().enumerate().skip(1) {
            for (g, h) in global.iter_mut().zip(part.fused.row(p - 1)) {
                *g += h;
            }
        }
    }
    globals
}

/// Global ranks from per-chunk counts, digit-major: `offset[c][d]` = keys
/// of smaller digits anywhere + digit-`d` keys of chunks before `c`.
/// Returns true when one digit holds every key (identity permutation).
fn build_offsets(chunk_hists: &PaddedCounts, offsets: &mut PaddedCounts, n: usize) -> bool {
    let m = chunk_hists.rows();
    let bins = chunk_hists.bins();
    let mut acc = 0usize;
    let mut trivial = false;
    for d in 0..bins {
        let before = acc;
        for c in 0..m {
            offsets.row_mut(c)[d] = acc;
            acc += chunk_hists.row(c)[d];
        }
        if acc - before == n {
            trivial = true;
        }
    }
    debug_assert_eq!(acc, n);
    trivial
}

/// One parallel permute pass over the chunk queue. When
/// `ctx.next_shift` is set, each worker also histograms the next pass's
/// digits of every key it writes — by *destination* chunk, so the counts
/// describe the array layout the next pass will read — and the per-worker
/// matrices are reduced into `chunk_hists`.
fn run_permute<K, V, const WITH_VALS: bool>(
    ctx: &PermuteCtx<'_, K, V>,
    exec: Exec,
    buf_elems: Option<usize>,
    offsets: &mut PaddedCounts,
    chunk_hists: &mut PaddedCounts,
    ws: &mut [WorkerScratch<K, V>],
) where
    K: RadixKey + Default,
    V: Copy + Send + Sync + Default,
{
    let m = ctx.geom.chunks();
    let off_shared = offsets.shared();
    let queue = ChunkQueue::new(exec.workers, m, exec.steal);
    run_workers_scratch(exec.workers, ws, |w, wsc| {
        // The next-pass count matrix is reshaped (reusing its buffer) at
        // the start of every permute pass that fuses counting; zeroing it
        // here replaces the per-pass allocation the first version paid.
        if ctx.next_shift.is_some() {
            wsc.reallocations += wsc.nh.reset(m, ctx.bins) as u64;
        }
        let nh = &mut wsc.nh;
        while let Some(c) = queue.claim(w) {
            // SAFETY: chunk ids are claimed exactly once per phase, so
            // offset row `c` is touched by this worker only.
            let off = unsafe { off_shared.row_mut(c) };
            match buf_elems {
                Some(_) => permute_chunk_coalesced::<K, V, WITH_VALS>(
                    ctx,
                    ctx.geom.range(c),
                    off,
                    &mut wsc.stage,
                    nh,
                ),
                None => permute_chunk_direct::<K, V, WITH_VALS>(ctx, ctx.geom.range(c), off, nh),
            }
        }
    });

    if ctx.next_shift.is_some() {
        chunk_hists.clear();
        for part in ws.iter() {
            chunk_hists.accumulate(&part.nh);
        }
    }
}

/// Permute one chunk through the write-coalescing stage.
fn permute_chunk_coalesced<K, V, const WITH_VALS: bool>(
    ctx: &PermuteCtx<'_, K, V>,
    range: Range<usize>,
    off: &mut [usize],
    stage: &mut Stage<K, V>,
    nh: &mut PaddedCounts,
) where
    K: RadixKey,
    V: Copy,
{
    let e = stage.elems;
    let start = range.start;
    for (j, k) in ctx.src_k[range].iter().copied().enumerate() {
        let d = k.digit(ctx.shift, ctx.mask);
        // SAFETY: `d <= mask < bins`, `fill.len() == bins`, and the
        // invariant `fill[d] < elems` (restored by the flush below the
        // moment a bucket becomes full) keeps `d * e + f` inside the
        // `bins * elems` buffers.
        let f = unsafe {
            let f = *stage.fill.get_unchecked(d) as usize;
            *stage.kbuf.get_unchecked_mut(d * e + f) = k;
            if WITH_VALS {
                *stage.vbuf.get_unchecked_mut(d * e + f) = ctx.src_v[start + j];
            }
            *stage.fill.get_unchecked_mut(d) = (f + 1) as u32;
            f
        };
        if f + 1 == e {
            flush_digit::<K, V, WITH_VALS>(ctx, stage, d, off, nh);
        }
    }
    // Chunk boundary: later chunks' digit ranks follow this chunk's, so
    // every partial buffer must land before another chunk's permute may
    // claim those positions — and the stage is reused for the next chunk,
    // whose offset row differs.
    for d in 0..ctx.bins {
        if stage.fill[d] > 0 {
            flush_digit::<K, V, WITH_VALS>(ctx, stage, d, off, nh);
        }
    }
}

/// Flush bucket `d`: one contiguous block store of the staged keys (and
/// payloads), plus the next-pass digit counts of the flushed elements,
/// binned by destination chunk.
#[inline]
fn flush_digit<K, V, const WITH_VALS: bool>(
    ctx: &PermuteCtx<'_, K, V>,
    stage: &mut Stage<K, V>,
    d: usize,
    off: &mut [usize],
    nh: &mut PaddedCounts,
) where
    K: RadixKey,
    V: Copy,
{
    let len = stage.fill[d] as usize;
    let e = stage.elems;
    let base = off[d];
    let kseg = &stage.kbuf[d * e..d * e + len];
    // SAFETY: [base, base + len) lies inside this chunk's digit-d rank
    // interval; the intervals are pairwise disjoint across (chunk, digit)
    // by construction of the prefix sums in `build_offsets`.
    unsafe { ctx.out_k.write_slice(base, kseg) };
    if WITH_VALS {
        unsafe { ctx.out_v.write_slice(base, &stage.vbuf[d * e..d * e + len]) };
    }
    if let Some(next_shift) = ctx.next_shift {
        // A flushed block spans at most a few destination chunks; count
        // each contiguous segment into its chunk's row.
        let mut idx = 0usize;
        while idx < len {
            let c = ctx.geom.chunk_of(base + idx);
            let seg_end = len.min(ctx.geom.end_of(c) - base);
            count_digits_into(&kseg[idx..seg_end], next_shift, ctx.mask, nh.row_mut(c));
            idx = seg_end;
        }
    }
    off[d] = base + len;
    stage.fill[d] = 0;
}

/// Permute one chunk with one write per element — the pre-coalescing
/// behaviour, kept selectable (`coalesce_bytes: None`) as the measured
/// baseline.
fn permute_chunk_direct<K, V, const WITH_VALS: bool>(
    ctx: &PermuteCtx<'_, K, V>,
    range: Range<usize>,
    off: &mut [usize],
    nh: &mut PaddedCounts,
) where
    K: RadixKey,
    V: Copy,
{
    for i in range {
        let k = ctx.src_k[i];
        let d = k.digit(ctx.shift, ctx.mask);
        let pos = off[d];
        // SAFETY: ranks partition [0, n) disjointly across (chunk, digit);
        // see `build_offsets`.
        unsafe {
            ctx.out_k.write(pos, k);
            if WITH_VALS {
                ctx.out_v.write(pos, ctx.src_v[i]);
            }
        }
        off[d] = pos + 1;
        if let Some(next_shift) = ctx.next_shift {
            nh.row_mut(ctx.geom.chunk_of(pos))[k.digit(next_shift, ctx.mask)] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn check_sort<K: RadixKey + Default + std::fmt::Debug>(mut v: Vec<K>, cfg: &RadixSortConfig) {
        let mut expect = v.clone();
        expect.sort_unstable();
        par_radix_sort_with(&mut v, cfg);
        assert_eq!(v, expect);
    }

    /// Every mechanism toggle, for the cross-config sweeps below.
    fn all_configs() -> Vec<RadixSortConfig> {
        let base = RadixSortConfig { sequential_cutoff: 0, ..RadixSortConfig::default() };
        vec![
            RadixSortConfig { sequential_cutoff: 0, ..RadixSortConfig::simple() },
            RadixSortConfig { coalesce_bytes: None, work_stealing: true, ..base.clone() },
            RadixSortConfig { coalesce_bytes: Some(64), work_stealing: false, ..base.clone() },
            RadixSortConfig { coalesce_bytes: Some(4), fused_histogram: false, ..base.clone() },
            RadixSortConfig { coalesce_bytes: Some(1024), steal_granularity: 3, ..base.clone() },
            base,
        ]
    }

    #[test]
    fn sorts_large_u32() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 2 * DEFAULT_SEQUENTIAL_CUTOFF; // the engine, by default
        let v: Vec<u32> = (0..n).map(|_| rng.random()).collect();
        check_sort(v, &RadixSortConfig::default());
    }

    #[test]
    fn sorts_with_many_chunks() {
        let mut rng = StdRng::seed_from_u64(2);
        let v: Vec<u32> = (0..50_000).map(|_| rng.random()).collect();
        check_sort(
            v,
            &RadixSortConfig { chunks: Some(13), sequential_cutoff: 0, ..Default::default() },
        );
    }

    #[test]
    fn sorts_i64_and_u64() {
        let mut rng = StdRng::seed_from_u64(3);
        let v: Vec<i64> = (0..60_000).map(|_| rng.random()).collect();
        check_sort(v, &RadixSortConfig { sequential_cutoff: 0, ..Default::default() });
        let w: Vec<u64> = (0..60_000).map(|_| rng.random()).collect();
        check_sort(w, &RadixSortConfig { radix_bits: 11, sequential_cutoff: 0, ..Default::default() });
    }

    #[test]
    fn small_inputs_take_sequential_path() {
        let mut rng = StdRng::seed_from_u64(4);
        let v: Vec<u32> = (0..100).map(|_| rng.random()).collect();
        check_sort(v, &RadixSortConfig::default());
        check_sort(Vec::<u32>::new(), &RadixSortConfig::default());
        check_sort(vec![9u32], &RadixSortConfig::default());
    }

    #[test]
    fn sorts_skewed_inputs() {
        // All equal: with fusion every pass is trivial and skipped.
        check_sort(vec![42u32; 30_000], &RadixSortConfig { sequential_cutoff: 0, ..Default::default() });
        // Already sorted / reversed.
        check_sort((0..30_000u32).collect(), &RadixSortConfig { sequential_cutoff: 0, ..Default::default() });
        check_sort((0..30_000u32).rev().collect(), &RadixSortConfig { sequential_cutoff: 0, ..Default::default() });
        // Low cardinality.
        let mut rng = StdRng::seed_from_u64(5);
        let v: Vec<u32> = (0..30_000).map(|_| rng.random_range(0..4u32)).collect();
        check_sort(v, &RadixSortConfig { sequential_cutoff: 0, ..Default::default() });
    }

    #[test]
    fn more_chunks_than_keys_is_fine() {
        let mut rng = StdRng::seed_from_u64(6);
        let v: Vec<u32> = (0..64).map(|_| rng.random()).collect();
        check_sort(
            v,
            &RadixSortConfig { chunks: Some(1000), sequential_cutoff: 0, ..Default::default() },
        );
    }

    #[test]
    fn every_config_sorts_every_shape() {
        let mut rng = StdRng::seed_from_u64(7);
        let shapes: Vec<Vec<u32>> = vec![
            (0..40_000).map(|_| rng.random()).collect(),
            (0..40_000).map(|_| rng.random_range(0..8u32)).collect(),
            (0..40_000u32).collect(),
            // Keys confined to the low 16 bits: the two high passes are
            // trivial and the fused path must skip them.
            (0..40_000).map(|_| rng.random_range(0..u16::MAX as u32)).collect(),
        ];
        for cfg in all_configs() {
            for shape in &shapes {
                check_sort(shape.clone(), &cfg);
            }
        }
    }

    #[test]
    fn simple_and_default_agree_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(8);
        let v: Vec<u64> = (0..50_000).map(|_| rng.random::<u64>() & 0xFFFF_FFFF).collect();
        let mut a = v.clone();
        let mut b = v;
        par_radix_sort_with(&mut a, &RadixSortConfig { sequential_cutoff: 0, ..RadixSortConfig::simple() });
        par_radix_sort_with(&mut b, &RadixSortConfig { sequential_cutoff: 0, ..Default::default() });
        assert_eq!(a, b);
    }

    #[test]
    fn validation_names_the_offending_field() {
        let ok = RadixSortConfig::default();
        assert!(ok.validate().is_ok());
        assert!(RadixSortConfig::simple().validate().is_ok());
        let cases: Vec<(RadixSortConfig, &str)> = vec![
            (RadixSortConfig { radix_bits: 0, ..ok.clone() }, "radix_bits = 0"),
            (RadixSortConfig { radix_bits: 17, ..ok.clone() }, "radix_bits = 17"),
            (RadixSortConfig { chunks: Some(0), ..ok.clone() }, "chunks = 0"),
            (RadixSortConfig { coalesce_bytes: Some(0), ..ok.clone() }, "coalesce_bytes = 0"),
            (
                RadixSortConfig { coalesce_bytes: Some(MAX_COALESCE_BYTES + 1), ..ok.clone() },
                "coalesce_bytes =",
            ),
            (RadixSortConfig { steal_granularity: 0, ..ok.clone() }, "steal_granularity = 0"),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().expect_err("config must be rejected");
            assert!(err.contains(needle), "error {err:?} does not name {needle:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid RadixSortConfig")]
    fn sort_rejects_degenerate_config() {
        let mut v = vec![3u32, 1, 2];
        par_radix_sort_with(
            &mut v,
            &RadixSortConfig { coalesce_bytes: Some(0), ..Default::default() },
        );
    }

    #[test]
    fn scratch_path_matches_fresh_path() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut scratch: SortScratch<u64> = SortScratch::new();
        for cfg in all_configs() {
            for n in [0usize, 1, 7, 300, 40_000] {
                let input: Vec<u64> = (0..n as u64).map(|_| rng.random()).collect();
                let mut fresh = input.clone();
                let mut reused = input;
                par_radix_sort_with(&mut fresh, &cfg);
                par_radix_sort_with_scratch(&mut reused, &cfg, &mut scratch);
                assert_eq!(fresh, reused, "scratch path diverges for n={n} under {cfg:?}");
            }
        }
    }

    #[test]
    fn steady_state_reuses_scratch_without_reallocating() {
        let mut rng = StdRng::seed_from_u64(32);
        let cfg = RadixSortConfig { sequential_cutoff: 0, ..Default::default() };
        let mut scratch: SortScratch<u32> = SortScratch::new();
        let n = 60_000;
        // Warm-up sort shapes every buffer for (n, cfg).
        let mut v: Vec<u32> = (0..n).map(|_| rng.random()).collect();
        par_radix_sort_with_scratch(&mut v, &cfg, &mut scratch);
        let warm = scratch.reallocations();
        // Same-shaped sorts afterwards must not grow any buffer.
        for _ in 0..3 {
            let mut v: Vec<u32> = (0..n).map(|_| rng.random()).collect();
            par_radix_sort_with_scratch(&mut v, &cfg, &mut scratch);
            assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
        assert_eq!(
            scratch.reallocations(),
            warm,
            "same-shape resort reallocated scratch buffers"
        );
        // A smaller sort also fits in the warmed buffers.
        let mut v: Vec<u32> = (0..n / 2).map(|_| rng.random()).collect();
        par_radix_sort_with_scratch(&mut v, &cfg, &mut scratch);
        assert_eq!(scratch.reallocations(), warm, "shrinking resort reallocated");
    }

    #[test]
    fn seq_fallback_through_scratch_is_stable_and_reuses() {
        let mut scratch: SortScratch<u16, u32> = SortScratch::new();
        let cfg = RadixSortConfig::default(); // cutoff leaves small inputs sequential
        let n = 512usize;
        assert!(n <= cfg.sequential_cutoff);
        let mut warm = 0;
        for round in 0..3u32 {
            let mut keys: Vec<u16> = (0..n as u32).map(|i| (i % 7) as u16).collect();
            let mut vals: Vec<u32> = (0..n as u32).map(|i| i * 10 + round).collect();
            let mut expect: Vec<(u16, u32)> =
                keys.iter().copied().zip(vals.iter().copied()).collect();
            expect.sort_by_key(|p| p.0); // sort_by_key is stable
            crate::pairs::par_radix_sort_pairs_with_scratch(&mut keys, &mut vals, &cfg, &mut scratch);
            let got: Vec<(u16, u32)> = keys.into_iter().zip(vals).collect();
            assert_eq!(got, expect, "sequential fallback not stable (round {round})");
            if round == 0 {
                warm = scratch.reallocations();
            } else {
                assert_eq!(scratch.reallocations(), warm, "seq fallback reallocated");
            }
        }
    }

    #[test]
    fn both_sides_of_the_engine_entry_agree_with_std() {
        // cutoff - 1 and cutoff run the sequential kernel, cutoff + 1 the
        // engine; keys against sort_unstable, pairs against the stable
        // sort_by_key (duplicate-heavy keys, payload = input position).
        let mut rng = StdRng::seed_from_u64(33);
        let cfg = RadixSortConfig::default();
        let mut scratch: SortScratch<u32, u32> = SortScratch::new();
        for n in [cfg.sequential_cutoff - 1, cfg.sequential_cutoff, cfg.sequential_cutoff + 1] {
            let input: Vec<u32> = (0..n).map(|_| rng.random()).collect();
            let mut expect = input.clone();
            expect.sort_unstable();
            let mut fresh = input.clone();
            par_radix_sort_with(&mut fresh, &cfg);
            assert_eq!(fresh, expect, "keys, n={n}");
            let mut reused = input;
            par_radix_sort_with_scratch(&mut reused, &cfg, &mut scratch);
            assert_eq!(reused, expect, "keys through scratch, n={n}");

            let keys_in: Vec<u32> = (0..n).map(|_| rng.random_range(0..1000u32)).collect();
            let mut expect: Vec<(u32, u32)> = keys_in.iter().copied().zip(0..).collect();
            expect.sort_by_key(|p| p.0);
            let (mut keys, mut vals) = (keys_in, (0..n as u32).collect::<Vec<_>>());
            crate::pairs::par_radix_sort_pairs_with_scratch(&mut keys, &mut vals, &cfg, &mut scratch);
            let got: Vec<(u32, u32)> = keys.into_iter().zip(vals).collect();
            assert_eq!(got, expect, "pairs, n={n}");
        }
    }

    #[test]
    fn sequential_path_keeps_its_passes_by_bins_histogram() {
        // The kernel's histogram is one bins-entry row per pass and lives in
        // the scratch: a same-shape resort grows nothing, and neither does a
        // smaller input.
        let mut rng = StdRng::seed_from_u64(34);
        let cfg = RadixSortConfig::default();
        let mut scratch: SortScratch<u64> = SortScratch::new();
        let n = 16_384;
        assert!(n <= cfg.sequential_cutoff);
        let mut v: Vec<u64> = (0..n).map(|_| rng.random()).collect();
        par_radix_sort_with_scratch(&mut v, &cfg, &mut scratch);
        assert_eq!(scratch.hist.len(), 8 * 256, "passes x bins counters");
        let warm = scratch.reallocations();
        for len in [n, n, n / 3] {
            let mut v: Vec<u64> = (0..len).map(|_| rng.random()).collect();
            par_radix_sort_with_scratch(&mut v, &cfg, &mut scratch);
            assert!(v.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(scratch.reallocations(), warm, "sequential resort of {len} keys reallocated");
        }
    }

    #[test]
    fn chunk_geometry_partitions_exactly() {
        for (n, target) in [(10usize, 3usize), (1, 1), (100, 7), (1 << 16, 64), (65, 64), (7, 100)]
        {
            let g = ChunkGeom::new(n, target);
            let mut covered = 0usize;
            for c in 0..g.chunks() {
                let r = g.range(c);
                assert_eq!(r.start, covered, "n={n} target={target} chunk={c}");
                assert!(!r.is_empty(), "empty chunk {c} for n={n} target={target}");
                for pos in r.clone() {
                    assert_eq!(g.chunk_of(pos), c);
                }
                covered = r.end;
            }
            assert_eq!(covered, n);
        }
    }
}
