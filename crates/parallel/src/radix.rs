//! Thread-parallel LSD radix sort, speed-grade.
//!
//! The structure mirrors the paper's parallel radix sort — per-chunk
//! histograms, global ranks (`offset[chunk][digit]`), disjoint parallel
//! permutation through a [`SharedSlice`] — with the paper's communication
//! tricks ported to real cores:
//!
//! * **Write coalescing**: each worker stages keys in `STAGE_BYTES`
//!   per-bucket buffers and flushes a full buffer with one contiguous
//!   block store into the shared output. The scattered single-element
//!   remote writes that dominate the paper's permutation phase become
//!   full-cache-line bursts — the paper's message coalescing, lifted to
//!   shared memory.
//! * **Work stealing**: the input is cut into `CHUNKS_PER_WORKER` chunks
//!   per worker and every phase drains a [`ChunkQueue`], so a straggling
//!   worker (or a skew-slowed chunk) never serializes a phase. Output is
//!   independent of the steal schedule: every element's destination is
//!   fixed by the rank arithmetic before the phase starts.
//! * **Fold, then count only what runs**: one parallel read folds the OR
//!   and the AND of every key's `to_bits()`; a pass is trivial exactly
//!   when no bit of its digit differs between the two, so the set of live
//!   passes costs one cheap read and no counting. Per-chunk histograms are
//!   then counted for one digit at a time, and each permute counts the
//!   *next* live pass's per-chunk digits while the keys are already in
//!   registers, eliminating the per-pass re-read of the whole array.
//!
//! On top of those parts the engine picks one of two pass **schedules**
//! per sort, from the data ([`Schedule`], [`SortScratch::last_schedule`]):
//!
//! * **MSD-first** — the paper's sample-sort shape for integers: move every
//!   key across the machine once, then sort locally. The top live digit is
//!   counted; when every bucket of its global histogram is at most
//!   [`RadixSortConfig::sequential_cutoff`] keys, one coalesced permute on
//!   that digit splits the array into `bins` buckets and the workers drain
//!   the buckets through a [`ChunkQueue`], finishing each with the
//!   cache-resident sequential kernel ([`crate::seq`]) on the live passes
//!   below the top digit, landing the result straight in `keys`.
//! * **LSD** — one out-of-cache permute per live pass, least significant
//!   first: what runs when a bucket is too big for the kernel (skew) or
//!   when only one pass is live. [`RadixSortConfig::simple`] asks for it
//!   outright.
//!
//! All count matrices are cache-line padded ([`PaddedCounts`]), so no two
//! workers' counters ever share a line. Both schedules produce
//! bit-identical sorted output (and identical stable order in the pairs
//! sorts), which the property suite checks against `sort_unstable` and the
//! stable `sort_by_key`.

use std::ops::Range;

use crate::histogram::{count_digits_into, exclusive_prefix_sum, PaddedCounts};
use crate::key::RadixKey;
use crate::seq::{all_passes, hist_len, lsd_sort, passes_for, DEFAULT_RADIX_BITS};
use crate::shared::SharedSlice;
use crate::steal::{default_workers, run_workers, ChunkQueue};

/// Per-worker next-pass count matrices larger than this many counters fall
/// back to one counting read per pass.
const MAX_FUSED_NH_WORDS: usize = 1 << 18;

/// Bytes each staging bucket holds before it is flushed as one block: 16
/// cache lines per store, and the whole 256-bucket stage (256 KiB) stays
/// L2-resident (DESIGN.md §14).
const STAGE_BYTES: usize = 1024;

/// Chunks cut per worker, so that a worker that runs dry can take a
/// quarter of a straggler's region at a time (DESIGN.md §14).
const CHUNKS_PER_WORKER: usize = 4;

/// Default [`RadixSortConfig::sequential_cutoff`], from the n × chunks
/// table in DESIGN.md §14 (n = 2^13…2^20, `chunks` 1 and 2, sequential
/// kernel vs engine): keys-only `u32` sorts cross over near 2^20,
/// `(u64, u64)` pairs near 2^18, and with one worker the engine never wins
/// below 2^19. 2^18 is the minimax choice — on either side of it the lane
/// that would have preferred the other path loses at most a seventh,
/// where the old 2^13 lost 4× on a 16,384-key sort.
const DEFAULT_SEQUENTIAL_CUTOFF: usize = 1 << 18;

/// Configuration for [`par_radix_sort_with`] and
/// [`crate::pairs::par_radix_sort_pairs_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RadixSortConfig {
    /// Digit width in bits (1..=16).
    pub radix_bits: u32,
    /// Number of parallel workers, each an OS thread under
    /// `std::thread::scope`; `None` = `std::thread::available_parallelism`.
    pub chunks: Option<usize>,
    /// The largest input the sequential kernel of [`crate::seq`] should
    /// take. A whole sort at or below this length never enters the engine:
    /// every engine phase is a fork/join over `chunks` threads and every
    /// chunk flushes `bins` partial staging buffers per pass, fixed costs
    /// a cache-resident input cannot repay. Above it, the same length
    /// decides the engine's schedule: when every bucket of the top live
    /// digit is at or below it, the engine partitions once on that digit
    /// and finishes each bucket with the kernel ([`Schedule::MsdFirst`]).
    /// The default is the measured crossover (DESIGN.md §14); `0` keeps
    /// every sort on the [`Schedule::Lsd`] engine.
    pub sequential_cutoff: usize,
}

impl Default for RadixSortConfig {
    fn default() -> Self {
        RadixSortConfig {
            radix_bits: DEFAULT_RADIX_BITS,
            chunks: None,
            sequential_cutoff: DEFAULT_SEQUENTIAL_CUTOFF,
        }
    }
}

impl RadixSortConfig {
    /// The paper's parallel radix sort and nothing else: one permute per
    /// live pass at every length, never the sequential kernel, never
    /// MSD-first. The second schedule the tests and `realbench` compare the
    /// default against.
    pub fn simple() -> Self {
        RadixSortConfig { sequential_cutoff: 0, ..RadixSortConfig::default() }
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
        Ok(())
    }
}

/// How one sort through a [`SortScratch`] was run — the engine's own answer
/// to "which path did that take?" ([`SortScratch::last_schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// At or below `sequential_cutoff`: the sequential kernel, no threads.
    Sequential,
    /// One permute on pass `top_pass`, then every bucket finished in cache
    /// by the sequential kernel. `live_passes` counts the non-trivial
    /// passes including the top one; `largest_bucket` is the most keys any
    /// top digit holds (at most `sequential_cutoff`).
    MsdFirst { top_pass: u32, live_passes: u32, largest_bucket: usize },
    /// One permute per non-trivial pass, least significant digit first.
    Lsd { executed_passes: u32 },
}

/// Sort `keys` in parallel with the default configuration.
pub fn par_radix_sort<K: RadixKey + Default>(keys: &mut [K]) {
    par_radix_sort_with(keys, &RadixSortConfig::default());
}

/// Sort `keys` in parallel with an explicit configuration.
pub fn par_radix_sort_with<K: RadixKey + Default>(keys: &mut [K], cfg: &RadixSortConfig) {
    let mut scratch: SortScratch<K> = SortScratch::new();
    par_radix_sort_with_scratch(keys, cfg, &mut scratch);
}

/// Sort `keys` in parallel, reusing `scratch` across calls.
///
/// Identical output to [`par_radix_sort_with`] (bit for bit), but every
/// buffer the engine needs — the flip buffer, the count matrices, and each
/// worker's write-coalescing staging blocks —
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
/// next-pass counters a permute fills are indexed by destination chunk).
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

/// How a phase runs: chunk geometry and worker count.
#[derive(Clone, Copy)]
struct Exec {
    geom: ChunkGeom,
    workers: usize,
}

impl Exec {
    /// The stealing queue one phase drains its `items` (chunks or buckets)
    /// through.
    fn queue(&self, items: usize) -> ChunkQueue {
        ChunkQueue::new(self.workers, items, true)
    }
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

/// Per-worker write-coalescing staging: `ELEMS` keys (and payloads) per
/// bucket, flushed as one contiguous block when full and at chunk ends.
struct Stage<K, V> {
    kbuf: Vec<K>,
    vbuf: Vec<V>,
    fill: Vec<u32>,
}

impl<K, V> Stage<K, V> {
    /// Keys per bucket: `STAGE_BYTES` worth, and never zero — the
    /// unchecked staging stores rely on every bucket holding a key.
    const ELEMS: usize = {
        let e = STAGE_BYTES / std::mem::size_of::<K>();
        if e == 0 { 1 } else { e }
    };
}

impl<K: Copy + Default, V: Copy + Default> Stage<K, V> {
    fn empty() -> Self {
        Stage { kbuf: Vec::new(), vbuf: Vec::new(), fill: Vec::new() }
    }

    /// Shape the buffers for `bins` buckets, reusing the existing
    /// allocations when they are large enough. Returns `true` when any
    /// backing buffer had to grow. Staged contents are governed entirely
    /// by `fill`, so a same-shape reset only zeroes the (tiny) fill array
    /// — the steady-state path writes nothing else.
    fn reset(&mut self, bins: usize, with_vals: bool) -> bool {
        let kn = bins * Self::ELEMS;
        let vn = if with_vals { kn } else { 0 };
        let same_shape =
            self.kbuf.len() == kn && self.vbuf.len() == vn && self.fill.len() == bins;
        if same_shape {
            self.fill.fill(0);
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
        grew
    }
}

/// One worker's private reusable buffers: the coalescing stage, the
/// next-pass count matrix a permute fills, and the `passes × bins`
/// histogram the sequential kernel needs in the bucket phase. Handed to
/// exactly one worker thread per phase (disjoint `&mut` via `iter_mut`),
/// so no synchronization is needed.
struct WorkerScratch<K, V> {
    stage: Stage<K, V>,
    nh: PaddedCounts,
    bucket_hist: Vec<usize>,
    reallocations: u64,
}

impl<K: Copy + Default, V: Copy + Default> WorkerScratch<K, V> {
    fn new() -> Self {
        WorkerScratch {
            stage: Stage::empty(),
            nh: PaddedCounts::new(0, 0),
            bucket_hist: Vec::new(),
            reallocations: 0,
        }
    }
}

/// Give `v` exactly `len` counters (contents unspecified), reusing its
/// allocation; `true` when it had to grow.
fn reshape(v: &mut Vec<usize>, len: usize) -> bool {
    let grew = len > v.capacity();
    if v.len() != len {
        v.clear();
        v.resize(len, 0);
    }
    grew
}

/// Caller-owned reusable buffers for [`par_radix_sort_with_scratch`] and
/// [`crate::pairs::par_radix_sort_pairs_with_scratch`]: the flip buffers,
/// the per-chunk count matrices, the sequential-fallback histogram, the
/// top digit's bucket bounds, and one `WorkerScratch` per worker.
/// Everything is reshaped (never shrunk) on each call, so a steady stream
/// of same-shaped sorts touches only buffers allocated by the first call.
///
/// `V = ()` for keys-only scratches. A scratch may be reused freely across
/// input lengths, digit widths, and configurations — it grows to the
/// high-water mark and stays there.
pub struct SortScratch<K, V = ()> {
    keys: Vec<K>,
    vals: Vec<V>,
    hist: Vec<usize>,
    /// The top digit's global histogram, then (MSD-first) its exclusive
    /// prefix sum: bucket `d` is `bucket_starts[d]..bucket_starts[d + 1]`.
    bucket_starts: Vec<usize>,
    chunk_hists: PaddedCounts,
    offsets: PaddedCounts,
    workers: Vec<WorkerScratch<K, V>>,
    reallocations: u64,
    last_schedule: Option<Schedule>,
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
            bucket_starts: Vec::new(),
            chunk_hists: PaddedCounts::new(0, 0),
            offsets: PaddedCounts::new(0, 0),
            workers: Vec::new(),
            reallocations: 0,
            last_schedule: None,
        }
    }

    /// The schedule the most recent sort through this scratch ran
    /// (`None` before the first). Written once per sort.
    pub fn last_schedule(&self) -> Option<Schedule> {
        self.last_schedule
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
    fn ensure(&mut self, n: usize, with_vals: bool, m: usize, bins: usize, workers: usize) {
        let mut grew = self.ensure_flip(n, with_vals);
        grew |= self.chunk_hists.reset(m, bins);
        grew |= self.offsets.reset(m, bins);
        if workers > self.workers.len() {
            grew = true;
            self.workers.resize_with(workers, WorkerScratch::new);
        }
        for w in &mut self.workers[..workers] {
            w.reallocations += w.stage.reset(bins, with_vals) as u64;
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
        self.last_schedule = Some(Schedule::Sequential);
        let n = keys.len();
        if n <= 1 {
            return;
        }
        let mut grew = self.ensure_flip(n, WITH_VALS);
        grew |= reshape(&mut self.hist, hist_len::<K>(radix_bits));
        self.reallocations += grew as u64;
        lsd_sort::<K, V, WITH_VALS>(
            keys,
            vals,
            &mut self.keys,
            &mut self.vals,
            &mut self.hist,
            radix_bits,
            all_passes::<K>(radix_bits),
            false,
        );
    }
}

/// Whether the MSD-first schedule can be chosen at all for `n` keys. Some
/// bucket holds at least the mean, so a mean above the cutoff rules it out
/// before anything is counted. And the bucket phase pays `bins` counters of
/// zeroing and prefix sum per pass per bucket whatever the bucket holds,
/// which the per-key work covers only when the mean bucket is at least half
/// a histogram long (`bins² <= 2n`; with 16-bit digits that is never).
fn msd_first_possible(n: usize, bins: usize, cutoff: usize) -> bool {
    n.div_ceil(bins) <= cutoff && bins <= 2 * n / bins
}

/// The shared engine behind [`par_radix_sort_with`] (V = `()`, no payload
/// lane) and `par_radix_sort_pairs_with` (`WITH_VALS = true`). Stable on
/// either schedule: within a chunk, keys are staged and flushed in input
/// order to consecutive positions; across chunks, the digit-major rank
/// construction orders lower chunk ids first; and the bucket phase of the
/// MSD-first schedule is the stable sequential kernel on the lower digits
/// of keys that already agree on the top one.
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
    let geom = ChunkGeom::new(n, workers.saturating_mul(CHUNKS_PER_WORKER));
    let exec = Exec { geom, workers };
    let m = exec.geom.chunks();

    // Counting the next pass during a permute needs one m × bins matrix per
    // worker; past the cache budget the re-read is cheaper than the misses.
    let count_during_permute = m * bins <= MAX_FUSED_NH_WORDS;

    scratch.ensure(n, WITH_VALS, m, bins, workers);
    let SortScratch {
        keys: key_scratch,
        vals: val_scratch,
        bucket_starts,
        chunk_hists,
        offsets,
        workers: ws,
        reallocations,
        last_schedule,
        ..
    } = scratch;
    let (key_scratch, val_scratch) = (&mut key_scratch[..], &mut val_scratch[..]);
    let ws = &mut ws[..workers];

    // Live passes (bit p = pass p). A pass is an identity permutation
    // exactly when every key has the same digit there, i.e. when the OR and
    // the AND of all keys agree on every bit of the digit; such passes are
    // never counted or run.
    let (or, and) = run_fold(keys, exec);
    let live = (0..total_passes)
        .filter(|&p| ((or ^ and) >> (p as u32 * cfg.radix_bits)) & mask != 0)
        .fold(0u64, |live, p| live | 1 << p);

    // Which per-chunk histograms `chunk_hists` currently holds, if any.
    let mut have_hists: Option<usize> = None;

    // Schedule. Count the top live digit; if the sequential kernel would
    // take every one of its buckets, partition on it once and finish each
    // bucket in cache. Otherwise fall through to one permute per live pass.
    if live.count_ones() >= 2 && msd_first_possible(n, bins, cfg.sequential_cutoff) {
        let top = 63 - live.leading_zeros() as usize;
        let top_shift = top as u32 * cfg.radix_bits;
        run_count(keys, exec, top_shift, mask, chunk_hists);
        have_hists = Some(top);
        *reallocations += reshape(bucket_starts, bins + 1) as u64;
        let (top_hist, total) = bucket_starts.split_at_mut(bins);
        top_hist.fill(0);
        for c in 0..m {
            for (g, h) in top_hist.iter_mut().zip(chunk_hists.row(c)) {
                *g += h;
            }
        }
        let largest_bucket = top_hist.iter().copied().max().unwrap_or(0);
        if largest_bucket <= cfg.sequential_cutoff {
            build_offsets(chunk_hists, offsets, n);
            let ctx = PermuteCtx {
                src_k: &*keys,
                src_v: &*vals,
                out_k: SharedSlice::new(key_scratch),
                out_v: SharedSlice::new(val_scratch),
                geom: exec.geom,
                shift: top_shift,
                mask,
                bins,
                next_shift: None,
            };
            run_permute::<K, V, WITH_VALS>(&ctx, exec, offsets, chunk_hists, ws);

            total[0] = exclusive_prefix_sum(top_hist);
            for w in ws.iter_mut() {
                w.reallocations += reshape(&mut w.bucket_hist, hist_len::<K>(cfg.radix_bits)) as u64;
            }
            let lanes = BucketLanes {
                src_k: SharedSlice::new(key_scratch),
                src_v: SharedSlice::new(val_scratch),
                dst_k: SharedSlice::new(keys),
                dst_v: SharedSlice::new(vals),
            };
            let below = live & ((1u64 << top) - 1);
            run_buckets::<K, V, WITH_VALS>(&lanes, exec, cfg.radix_bits, below, bucket_starts, ws);
            *last_schedule = Some(Schedule::MsdFirst {
                top_pass: top as u32,
                live_passes: live.count_ones(),
                largest_bucket,
            });
            return;
        }
    }

    let mut executed_passes = 0;
    let mut flipped = false;
    for pass in (0..total_passes).filter(|&p| live >> p & 1 == 1) {
        let shift = pass as u32 * cfg.radix_bits;
        let (src_k, dst_k): (&[K], &mut [K]) =
            if flipped { (&*key_scratch, &mut *keys) } else { (&*keys, &mut *key_scratch) };
        let (src_v, dst_v): (&[V], &mut [V]) =
            if flipped { (&*val_scratch, &mut *vals) } else { (&*vals, &mut *val_scratch) };

        if have_hists != Some(pass) {
            run_count(src_k, exec, shift, mask, chunk_hists);
            have_hists = Some(pass);
        }
        build_offsets(chunk_hists, offsets, n);

        let next_exec = if count_during_permute {
            ((pass + 1)..total_passes).find(|&p| live >> p & 1 == 1)
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
        run_permute::<K, V, WITH_VALS>(&ctx, exec, offsets, chunk_hists, ws);
        if let Some(np) = next_exec {
            have_hists = Some(np);
        }
        executed_passes += 1;
        flipped = !flipped;
    }

    if flipped {
        keys.copy_from_slice(&key_scratch[..n]);
        if WITH_VALS {
            vals.copy_from_slice(&val_scratch[..n]);
        }
    }
    *last_schedule = Some(Schedule::Lsd { executed_passes });
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
    let queue = exec.queue(exec.geom.chunks());
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

/// The OR and the AND of every key's order-preserving image, in parallel
/// over the chunk queue: the one read that tells the engine which digits
/// differ anywhere in the input.
fn run_fold<K: RadixKey>(src: &[K], exec: Exec) -> (u64, u64) {
    let queue = exec.queue(exec.geom.chunks());
    let parts = run_workers(exec.workers, |w| {
        let (mut or, mut and) = (0u64, u64::MAX);
        while let Some(c) = queue.claim(w) {
            for k in &src[exec.geom.range(c)] {
                let bits = k.to_bits();
                or |= bits;
                and &= bits;
            }
        }
        (or, and)
    });
    parts.into_iter().fold((0, u64::MAX), |a, b| (a.0 | b.0, a.1 & b.1))
}

/// Both buffers of the bucket phase, keys and payloads: after the top-digit
/// permute the data sits in `src`, and each bucket's sorted result must
/// land in the same range of `dst` (the caller's arrays).
struct BucketLanes<'a, K, V> {
    src_k: SharedSlice<'a, K>,
    src_v: SharedSlice<'a, V>,
    dst_k: SharedSlice<'a, K>,
    dst_v: SharedSlice<'a, V>,
}

/// The bucket phase of the MSD-first schedule: workers drain the `bins`
/// buckets of the top digit through the chunk queue and finish each with
/// the sequential kernel on the live passes `below` the top digit, which
/// lands it in `dst` whatever the parity of the passes it ran. Bucket `b`
/// is `starts[b]..starts[b + 1]` of both buffers.
fn run_buckets<K, V, const WITH_VALS: bool>(
    lanes: &BucketLanes<'_, K, V>,
    exec: Exec,
    radix_bits: u32,
    below: u64,
    starts: &[usize],
    ws: &mut [WorkerScratch<K, V>],
) where
    K: RadixKey,
    V: Copy + Send + Sync,
{
    let queue = exec.queue(starts.len() - 1);
    run_workers_scratch(exec.workers, ws, |w, wsc| {
        while let Some(b) = queue.claim(w) {
            let range = starts[b]..starts[b + 1];
            let vrange = if WITH_VALS { range.clone() } else { 0..0 };
            // SAFETY: `starts` is one exclusive prefix sum ending in n, so
            // the bucket ranges are consecutive sub-ranges of both buffers,
            // pairwise disjoint; bucket ids are claimed exactly once per
            // phase, so this worker is the only one touching range `b` of
            // any lane, and nothing else accesses the lanes in this phase.
            let (sk, sv, dk, dv) = unsafe {
                (
                    lanes.src_k.slice_mut(range.clone()),
                    lanes.src_v.slice_mut(vrange.clone()),
                    lanes.dst_k.slice_mut(range),
                    lanes.dst_v.slice_mut(vrange),
                )
            };
            lsd_sort::<K, V, WITH_VALS>(
                sk,
                sv,
                dk,
                dv,
                &mut wsc.bucket_hist,
                radix_bits,
                below,
                true,
            );
        }
    });
}

/// Global ranks from per-chunk counts, digit-major: `offset[c][d]` = keys
/// of smaller digits anywhere + digit-`d` keys of chunks before `c`. Only
/// live passes get here, so no digit holds every key.
fn build_offsets(chunk_hists: &PaddedCounts, offsets: &mut PaddedCounts, n: usize) {
    let m = chunk_hists.rows();
    let bins = chunk_hists.bins();
    let mut acc = 0usize;
    for d in 0..bins {
        let before = acc;
        for c in 0..m {
            offsets.row_mut(c)[d] = acc;
            acc += chunk_hists.row(c)[d];
        }
        debug_assert!(acc - before < n, "a live pass has two non-empty bins");
    }
    debug_assert_eq!(acc, n);
}

/// One parallel permute pass over the chunk queue. When
/// `ctx.next_shift` is set, each worker also histograms the next pass's
/// digits of every key it writes — by *destination* chunk, so the counts
/// describe the array layout the next pass will read — and the per-worker
/// matrices are reduced into `chunk_hists`.
fn run_permute<K, V, const WITH_VALS: bool>(
    ctx: &PermuteCtx<'_, K, V>,
    exec: Exec,
    offsets: &mut PaddedCounts,
    chunk_hists: &mut PaddedCounts,
    ws: &mut [WorkerScratch<K, V>],
) where
    K: RadixKey + Default,
    V: Copy + Send + Sync + Default,
{
    let m = ctx.geom.chunks();
    let off_shared = offsets.shared();
    let queue = exec.queue(m);
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
            permute_chunk::<K, V, WITH_VALS>(ctx, ctx.geom.range(c), off, &mut wsc.stage, nh);
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
fn permute_chunk<K, V, const WITH_VALS: bool>(
    ctx: &PermuteCtx<'_, K, V>,
    range: Range<usize>,
    off: &mut [usize],
    stage: &mut Stage<K, V>,
    nh: &mut PaddedCounts,
) where
    K: RadixKey,
    V: Copy,
{
    let e = Stage::<K, V>::ELEMS;
    let start = range.start;
    for (j, k) in ctx.src_k[range].iter().copied().enumerate() {
        let d = k.digit(ctx.shift, ctx.mask);
        // SAFETY: `d <= mask < bins`, `fill.len() == bins`, and the
        // invariant `fill[d] < ELEMS` (restored by the flush below the
        // moment a bucket becomes full) keeps `d * e + f` inside the
        // `bins * ELEMS` buffers.
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
    let e = Stage::<K, V>::ELEMS;
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

#[cfg(test)]
mod tests {
    use super::*;
    use ccsort_rng::SplitMix64;

    fn check_sort<K: RadixKey + Default + std::fmt::Debug>(mut v: Vec<K>, cfg: &RadixSortConfig) {
        let mut expect = v.clone();
        expect.sort_unstable();
        par_radix_sort_with(&mut v, cfg);
        assert_eq!(v, expect);
    }

    /// Worker counts (one, odd, prime, more than the cores of any CI
    /// machine) × digit widths, on the LSD schedule; `small_cutoff` turns
    /// each into its MSD-first twin. Worker counts above n come from the
    /// small inputs the sweeps feed these.
    fn all_configs() -> Vec<RadixSortConfig> {
        let mut configs = Vec::new();
        for chunks in [1usize, 3, 5, 7, 13] {
            for radix_bits in [4u32, 8, 11] {
                configs.push(RadixSortConfig {
                    radix_bits,
                    chunks: Some(chunks),
                    ..RadixSortConfig::simple()
                });
            }
        }
        configs
    }

    /// The most keys of one digit (at `shift`) any chunk of the engine's
    /// geometry for `cfg` holds, and whether some (chunk, digit) count is
    /// not a whole number of staging buffers — what decides which flush
    /// kinds a permute on that digit takes.
    fn flush_profile<K: RadixKey>(keys: &[K], cfg: &RadixSortConfig, shift: u32) -> (usize, bool) {
        let workers = cfg.chunks.expect("tests pin the worker count").clamp(1, keys.len());
        let geom = ChunkGeom::new(keys.len(), workers * CHUNKS_PER_WORKER);
        let bins = 1usize << cfg.radix_bits;
        let (mut most, mut partial) = (0, false);
        for c in 0..geom.chunks() {
            let mut row = vec![0usize; bins];
            count_digits_into(&keys[geom.range(c)], shift, (bins - 1) as u64, &mut row);
            most = most.max(row.iter().copied().max().unwrap_or(0));
            partial |= row.iter().any(|&k| k % Stage::<K, ()>::ELEMS != 0);
        }
        (most, partial)
    }

    #[test]
    fn sorts_large_u32() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let n = 2 * DEFAULT_SEQUENTIAL_CUTOFF; // the engine, by default
        let v: Vec<u32> = (0..n).map(|_| rng.random()).collect();
        check_sort(v, &RadixSortConfig::default());
    }

    #[test]
    fn sorts_with_many_chunks() {
        let mut rng = SplitMix64::seed_from_u64(2);
        let v: Vec<u32> = (0..50_000).map(|_| rng.random()).collect();
        check_sort(
            v,
            &RadixSortConfig { chunks: Some(13), sequential_cutoff: 0, ..Default::default() },
        );
    }

    #[test]
    fn sorts_i64_and_u64() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let v: Vec<i64> = (0..60_000).map(|_| rng.random()).collect();
        check_sort(v, &RadixSortConfig { sequential_cutoff: 0, ..Default::default() });
        let w: Vec<u64> = (0..60_000).map(|_| rng.random()).collect();
        check_sort(w, &RadixSortConfig { radix_bits: 11, sequential_cutoff: 0, ..Default::default() });
    }

    #[test]
    fn small_inputs_take_sequential_path() {
        let mut rng = SplitMix64::seed_from_u64(4);
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
        let mut rng = SplitMix64::seed_from_u64(5);
        let v: Vec<u32> = (0..30_000).map(|_| rng.random_range(0..4u32)).collect();
        check_sort(v, &RadixSortConfig { sequential_cutoff: 0, ..Default::default() });
    }

    #[test]
    fn more_chunks_than_keys_is_fine() {
        let mut rng = SplitMix64::seed_from_u64(6);
        let v: Vec<u32> = (0..64).map(|_| rng.random()).collect();
        check_sort(
            v,
            &RadixSortConfig { chunks: Some(1000), sequential_cutoff: 0, ..Default::default() },
        );
    }

    #[test]
    fn every_config_sorts_every_shape() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let shapes: Vec<Vec<u32>> = vec![
            (0..40_000).map(|_| rng.random()).collect(),
            (0..40_000).map(|_| rng.random_range(0..8u32)).collect(),
            (0..40_000u32).collect(),
            // Keys confined to the low 16 bits: the two high passes are
            // trivial and the fold must leave them out.
            (0..40_000).map(|_| rng.random_range(0..u16::MAX as u32)).collect(),
        ];
        for cfg in all_configs() {
            for shape in &shapes {
                check_sort(shape.clone(), &cfg);
            }
        }
    }

    #[test]
    fn dup_heavy_keys_take_full_buffer_and_chunk_end_flushes() {
        // Eight distinct values in 40,000 keys: every chunk holds thousands
        // of each, so buckets fill (a flush of exactly ELEMS keys) many
        // times over and end each chunk part-full (a flush of fewer).
        let mut rng = SplitMix64::seed_from_u64(8);
        let v: Vec<u32> = (0..40_000).map(|_| rng.random_range(0..8u32) * 0x0101).collect();
        for chunks in [1usize, 3] {
            let cfg = RadixSortConfig { chunks: Some(chunks), ..RadixSortConfig::simple() };
            for shift in [0, 8] {
                let (most, partial) = flush_profile(&v, &cfg, shift);
                assert!(most > Stage::<u32, ()>::ELEMS && partial, "most={most} partial={partial}");
            }
            assert_eq!(schedule_of(v.clone(), &cfg, u32::MAX), Schedule::Lsd { executed_passes: 2 });
        }
        // 64 keys in one chunk per worker: no bucket ever fills, so every
        // store is a chunk-end flush of a part-full buffer.
        let few: Vec<u32> = (0..64).map(|_| rng.random()).collect();
        let cfg = RadixSortConfig { chunks: Some(2), ..RadixSortConfig::simple() };
        assert!(flush_profile(&few, &cfg, 0).0 < Stage::<u32, ()>::ELEMS);
        assert_eq!(schedule_of(few, &cfg, u32::MAX), Schedule::Lsd { executed_passes: 4 });
    }

    #[test]
    fn flushed_block_straddling_a_destination_chunk_counts_into_both() {
        // One worker, 4,096 keys: four chunks of 1,024. Byte 0 is 1 except
        // for 100 zeros, all in the last chunk, so the 1s rank from 100 and
        // chunk 0's fourth full buffer lands on [868, 1124) — across the
        // boundary between destination chunks 0 and 1. Byte 1 is live, so
        // that permute counts it for the next pass, per destination chunk;
        // a miscounted straddle would misplace pass 1.
        let mut rng = SplitMix64::seed_from_u64(9);
        let n = 4096;
        let cfg = RadixSortConfig { chunks: Some(1), ..RadixSortConfig::simple() };
        let geom = ChunkGeom::new(n, CHUNKS_PER_WORKER);
        assert_eq!((geom.chunks(), geom.range(0)), (4, 0..1024));
        let elems = Stage::<u32, ()>::ELEMS;
        assert!(100 + 3 * elems < 1024 && 1024 < 100 + 4 * elems);
        assert!(geom.chunks() << cfg.radix_bits <= MAX_FUSED_NH_WORDS, "counts during the permute");
        let v: Vec<u32> = (0..n)
            .map(|i| rng.random_range(0..256u32) << 8 | u32::from(i < n - 100))
            .collect();
        assert_eq!(schedule_of(v, &cfg, u32::MAX), Schedule::Lsd { executed_passes: 2 });
    }

    #[test]
    fn wide_digits_past_the_count_budget_fall_back_to_one_count_per_pass() {
        // 16-bit digits, two workers: 5 chunks × 65,536 counters per worker
        // is past MAX_FUSED_NH_WORDS, so no permute counts for the next
        // pass and each of the two live passes is counted by its own read.
        let mut rng = SplitMix64::seed_from_u64(10);
        let n = 40_000;
        let cfg = RadixSortConfig { radix_bits: 16, chunks: Some(2), ..RadixSortConfig::simple() };
        let m = ChunkGeom::new(n, 2 * CHUNKS_PER_WORKER).chunks();
        assert!(m << cfg.radix_bits > MAX_FUSED_NH_WORDS, "m = {m}");
        let v: Vec<u32> = (0..n).map(|_| rng.random()).collect();
        assert_eq!(schedule_of(v, &cfg, u32::MAX), Schedule::Lsd { executed_passes: 2 });
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
        ];
        // Every cutoff is a meaningful request, the extremes included.
        assert!(RadixSortConfig { sequential_cutoff: usize::MAX, ..ok.clone() }.validate().is_ok());
        for (cfg, needle) in cases {
            let err = cfg.validate().expect_err("config must be rejected");
            assert!(err.contains(needle), "error {err:?} does not name {needle:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid RadixSortConfig")]
    fn sort_rejects_degenerate_config() {
        let mut v = vec![3u32, 1, 2];
        par_radix_sort_with(&mut v, &RadixSortConfig { chunks: Some(0), ..Default::default() });
    }

    #[test]
    fn scratch_path_matches_fresh_path() {
        let mut rng = SplitMix64::seed_from_u64(31);
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
        let mut rng = SplitMix64::seed_from_u64(32);
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
        let mut rng = SplitMix64::seed_from_u64(33);
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
        let mut rng = SplitMix64::seed_from_u64(34);
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

    /// A cutoff small enough that 40,000 keys enter the engine and large
    /// enough that uniform top-digit buckets (≈ 156 keys) fit under it.
    const SMALL_CUTOFF: usize = 4096;

    /// Sort `input` through a scratch whose flip buffer is pre-filled with
    /// `poison`, check the result against `sort_unstable`, and return the
    /// schedule the engine reports.
    fn schedule_of<K: RadixKey + Default + std::fmt::Debug>(
        input: Vec<K>,
        cfg: &RadixSortConfig,
        poison: K,
    ) -> Schedule {
        let mut expect = input.clone();
        expect.sort_unstable();
        let mut scratch: SortScratch<K> = SortScratch::new();
        scratch.keys = vec![poison; input.len()];
        let mut v = input;
        par_radix_sort_with_scratch(&mut v, cfg, &mut scratch);
        assert_eq!(v, expect, "diverged under {cfg:?}");
        scratch.last_schedule().expect("a sort ran")
    }

    fn small_cutoff(cfg: RadixSortConfig) -> RadixSortConfig {
        RadixSortConfig { sequential_cutoff: SMALL_CUTOFF, ..cfg }
    }

    #[test]
    fn msd_first_is_reached_at_every_worker_count_and_digit_width_the_rule_admits() {
        let mut rng = SplitMix64::seed_from_u64(40);
        let input: Vec<u32> = (0..40_000).map(|_| rng.random()).collect();
        for cfg in all_configs().into_iter().map(small_cutoff) {
            let schedule = schedule_of(input.clone(), &cfg, u32::MAX);
            let passes = passes_for::<u32>(cfg.radix_bits);
            if cfg.radix_bits == 11 {
                // 2,048 bins: `bins² <= 2n` fails at this n, whatever the cutoff.
                assert_eq!(schedule, Schedule::Lsd { executed_passes: passes }, "under {cfg:?}");
            } else {
                assert!(
                    matches!(
                        schedule,
                        Schedule::MsdFirst { top_pass, live_passes, largest_bucket }
                            if top_pass == passes - 1 && live_passes == passes && largest_bucket <= SMALL_CUTOFF
                    ),
                    "{schedule:?} under {cfg:?}"
                );
            }
        }
        // At or below the cutoff nothing enters the engine.
        let cfg = small_cutoff(RadixSortConfig::default());
        assert_eq!(schedule_of(input[..SMALL_CUTOFF].to_vec(), &cfg, 0), Schedule::Sequential);
    }

    /// 40,000 `u32` keys whose top digit 0 holds exactly `largest` of them
    /// and whose other 255 top digits share the rest evenly.
    fn keys_with_largest_bucket(largest: usize, rng: &mut SplitMix64) -> Vec<u32> {
        (0..40_000usize)
            .map(|i| {
                let low = rng.random::<u32>() & 0x00FF_FFFF;
                if i < largest { low } else { (1 + i as u32 % 255) << 24 | low }
            })
            .collect()
    }

    #[test]
    fn schedule_flips_exactly_when_a_bucket_exceeds_the_cutoff() {
        let mut rng = SplitMix64::seed_from_u64(41);
        let cfg = small_cutoff(RadixSortConfig { chunks: Some(3), ..Default::default() });
        for largest in [SMALL_CUTOFF - 1, SMALL_CUTOFF] {
            assert_eq!(
                schedule_of(keys_with_largest_bucket(largest, &mut rng), &cfg, u32::MAX),
                Schedule::MsdFirst { top_pass: 3, live_passes: 4, largest_bucket: largest }
            );
        }
        assert_eq!(
            schedule_of(keys_with_largest_bucket(SMALL_CUTOFF + 1, &mut rng), &cfg, u32::MAX),
            Schedule::Lsd { executed_passes: 4 }
        );
        // `simple()` asks for the engine's LSD loop outright.
        let lsd_only = RadixSortConfig { chunks: Some(3), ..RadixSortConfig::simple() };
        assert_eq!(
            schedule_of(keys_with_largest_bucket(100, &mut rng), &lsd_only, u32::MAX),
            Schedule::Lsd { executed_passes: 4 }
        );
        // Across the boundary the two schedules agree bit for bit on pairs
        // too, and with the stable `sort_by_key`.
        for largest in [SMALL_CUTOFF - 1, SMALL_CUTOFF, SMALL_CUTOFF + 1] {
            let keys_in: Vec<u32> =
                keys_with_largest_bucket(largest, &mut rng).iter().map(|k| k & 0xFF00_00FF).collect();
            let mut expect: Vec<(u32, u32)> = keys_in.iter().copied().zip(0..).collect();
            expect.sort_by_key(|p| p.0);
            for c in [&cfg, &lsd_only] {
                let (mut keys, mut vals) = (keys_in.clone(), (0..40_000u32).collect::<Vec<_>>());
                crate::pairs::par_radix_sort_pairs_with(&mut keys, &mut vals, c);
                let got: Vec<(u32, u32)> = keys.into_iter().zip(vals).collect();
                assert_eq!(got, expect, "largest bucket {largest} under {c:?}");
            }
        }
    }

    #[test]
    fn adversarial_shapes_pick_the_schedule_the_rule_says() {
        let mut rng = SplitMix64::seed_from_u64(42);
        let cfg = small_cutoff(RadixSortConfig { chunks: Some(4), ..Default::default() });
        let n = 40_000;
        // All equal: the fold finds no live pass; nothing is counted or moved.
        assert_eq!(schedule_of(vec![7u32; n], &cfg, 0), Schedule::Lsd { executed_passes: 0 });
        assert_eq!(schedule_of(vec![-7i64; n], &cfg, 0), Schedule::Lsd { executed_passes: 0 });
        // One outlier with the high bit set: the top digit is live but its
        // bucket 0 holds n - 1 keys, so the LSD loop runs passes 0, 1 and 7.
        let mut outlier: Vec<u64> = (0..n).map(|_| rng.random::<u64>() & 0xFFFF).collect();
        outlier[n / 3] |= 1 << 63;
        assert_eq!(schedule_of(outlier, &cfg, u64::MAX), Schedule::Lsd { executed_passes: 3 });
        // One live pass: nothing below the top digit to finish in cache.
        let one_pass: Vec<u32> = (0..n).map(|_| (rng.random::<u32>() & 0xFF) << 8).collect();
        assert_eq!(schedule_of(one_pass, &cfg, u32::MAX), Schedule::Lsd { executed_passes: 1 });
        // u64 keys below 2^16 and below 2^24: the top *live* digit, not the
        // key type's top digit, is the partition digit.
        let below_2_16: Vec<u64> = (0..n).map(|_| rng.random::<u64>() & 0xFFFF).collect();
        assert!(matches!(
            schedule_of(below_2_16, &cfg, u64::MAX),
            Schedule::MsdFirst { top_pass: 1, live_passes: 2, .. }
        ));
        let below_2_24: Vec<u64> = (0..n).map(|_| rng.random::<u64>() & 0xFF_FFFF).collect();
        assert!(matches!(
            schedule_of(below_2_24, &cfg, u64::MAX),
            Schedule::MsdFirst { top_pass: 2, live_passes: 3, .. }
        ));
    }

    #[test]
    fn signed_keys_straddling_zero_fold_on_the_sign_flipped_image() {
        // -1000..1000 as two's complement differ in every bit; as sign-flipped
        // images too, and the top digit then splits them into a negative
        // bucket (0x7F) and a non-negative one (0x80) in the right order.
        // Inside either bucket pass 2 is trivial (0xFF or 0x00), which the
        // kernel discovers itself: two executed passes, an even count.
        let mut rng = SplitMix64::seed_from_u64(43);
        let n = 40_000;
        let cfg = RadixSortConfig { sequential_cutoff: 30_000, chunks: Some(3), ..Default::default() };
        let v32: Vec<i32> = (0..n).map(|_| rng.random_range(-1000..1000i32)).collect();
        assert!(matches!(
            schedule_of(v32, &cfg, i32::MIN),
            Schedule::MsdFirst { top_pass: 3, live_passes: 4, largest_bucket } if largest_bucket > n / 3
        ));
        let v64: Vec<i64> = (0..n).map(|_| rng.random_range(-1000..1000i64)).collect();
        assert!(matches!(
            schedule_of(v64, &cfg, i64::MIN),
            Schedule::MsdFirst { top_pass: 7, live_passes: 8, .. }
        ));
        // Full-range signed keys: 256 top buckets.
        let wide: Vec<i64> = (0..n).map(|_| rng.random()).collect();
        assert!(matches!(
            schedule_of(wide, &small_cutoff(cfg), 0),
            Schedule::MsdFirst { top_pass: 7, live_passes: 8, .. }
        ));
    }

    #[test]
    fn msd_first_lands_in_keys_for_odd_and_even_pass_counts_below_the_top() {
        // Byte 3 is always live and uniform (the partition digit); one, two
        // and three live bytes below it. An odd count lands in the other
        // buffer by itself, an even one needs the kernel's closing copy; the
        // flip buffer is poisoned either way.
        let mut rng = SplitMix64::seed_from_u64(44);
        let cfg = small_cutoff(RadixSortConfig { chunks: Some(2), ..Default::default() });
        for below in [&[1usize][..], &[0, 2], &[0, 1, 2]] {
            let mask = below.iter().fold(0xFF00_0000u32, |m, b| m | 0xFF << (8 * b));
            let input: Vec<u32> = (0..40_000).map(|_| rng.random::<u32>() & mask).collect();
            assert!(matches!(
                schedule_of(input, &cfg, u32::MAX),
                Schedule::MsdFirst { top_pass: 3, live_passes, .. } if live_passes as usize == below.len() + 1
            ));
        }
    }

    #[test]
    fn msd_first_with_more_workers_than_buckets_or_keys() {
        let mut rng = SplitMix64::seed_from_u64(45);
        // 4-bit digits: 16 buckets. 40 workers > 16 buckets; 1000 workers > n.
        for (n, chunks) in [(3000usize, 40usize), (200, 1000)] {
            let cfg = RadixSortConfig { radix_bits: 4, chunks: Some(chunks), sequential_cutoff: n / 4 };
            let input: Vec<u16> = (0..n).map(|_| rng.random()).collect();
            assert!(matches!(
                schedule_of(input, &cfg, u16::MAX),
                Schedule::MsdFirst { top_pass: 3, live_passes: 4, .. }
            ));
        }
    }

    /// Small enough for the gating Miri step (`.github/workflows/ci.yml`):
    /// the whole MSD-first path — fold, count, coalesced permute, disjoint
    /// `&mut` bucket sub-slices of both lanes, kernel — on three real
    /// threads, pairs lane included. `u64` keys stage 128 to a bucket; the
    /// first 200 keys share top digit 5 inside chunk 0 (256 keys), so that
    /// bucket fills once and every other store is a chunk-end flush.
    #[test]
    fn msd_first_small_n_under_miri() {
        let n = 1600u32;
        let cfg = RadixSortConfig { radix_bits: 4, chunks: Some(3), sequential_cutoff: 256 };
        let keys_in: Vec<u64> = (0..n)
            .map(|i| {
                let low = u64::from(i.wrapping_mul(2_654_435_761) >> 28);
                let top = if i < 200 { 5 } else { u64::from(i % 15) + u64::from(i % 15 >= 5) };
                top << 4 | low
            })
            .collect();
        let (most, partial) = flush_profile(&keys_in, &cfg, 4);
        assert!(most > Stage::<u64, u32>::ELEMS && partial, "most={most} partial={partial}");
        let mut expect: Vec<(u64, u32)> = keys_in.iter().copied().zip(0..).collect();
        expect.sort_by_key(|p| p.0);
        let (mut keys, mut vals) = (keys_in, (0..n).collect::<Vec<_>>());
        let mut scratch: SortScratch<u64, u32> = SortScratch::new();
        crate::pairs::par_radix_sort_pairs_with_scratch(&mut keys, &mut vals, &cfg, &mut scratch);
        assert_eq!(keys.into_iter().zip(vals).collect::<Vec<_>>(), expect);
        assert_eq!(
            scratch.last_schedule(),
            Some(Schedule::MsdFirst { top_pass: 1, live_passes: 2, largest_bucket: 200 })
        );
    }

    #[test]
    fn msd_first_keeps_pairs_stable() {
        // 1,000 distinct keys spread over bytes 0, 1 and 3, forty copies of
        // each, payload = input index: the stable order is the only right
        // answer, and it must survive partition ∘ per-bucket kernel.
        let mut rng = SplitMix64::seed_from_u64(46);
        let n = 40_000u32;
        let keys_in: Vec<u32> = (0..n)
            .map(|_| (rng.random_range(0..50u32) << 24) | (rng.random_range(0..20u32) * 257))
            .collect();
        let mut expect: Vec<(u32, u32)> = keys_in.iter().copied().zip(0..).collect();
        expect.sort_by_key(|p| p.0);
        for cfg in all_configs().into_iter().map(small_cutoff) {
            let (mut keys, mut vals) = (keys_in.clone(), (0..n).collect::<Vec<_>>());
            let mut scratch: SortScratch<u32, u32> = SortScratch::new();
            crate::pairs::par_radix_sort_pairs_with_scratch(&mut keys, &mut vals, &cfg, &mut scratch);
            let got: Vec<(u32, u32)> = keys.into_iter().zip(vals).collect();
            assert_eq!(got, expect, "stable order diverges under {cfg:?}");
            // Bytes 0, 1 and 3 are live: three 8-bit passes. The top 4-bit
            // digit has four values (a bucket of 12,800), and 2,048 bins are
            // too many for 40,000 keys: both stay LSD.
            let msd = matches!(
                scratch.last_schedule(),
                Some(Schedule::MsdFirst { top_pass: 3, live_passes: 3, .. })
            );
            assert_eq!(msd, cfg.radix_bits == 8, "{:?} under {cfg:?}", scratch.last_schedule());
        }
    }

    #[test]
    fn default_and_simple_agree_bit_for_bit_across_the_schedules() {
        let mut rng = SplitMix64::seed_from_u64(47);
        let n = 2 * DEFAULT_SEQUENTIAL_CUTOFF;
        let input: Vec<u32> = (0..n).map(|_| rng.random()).collect();
        let mut scratch: SortScratch<u32> = SortScratch::new();
        let mut by_default = input.clone();
        par_radix_sort_with_scratch(&mut by_default, &RadixSortConfig::default(), &mut scratch);
        assert!(matches!(scratch.last_schedule(), Some(Schedule::MsdFirst { top_pass: 3, .. })));
        let mut by_simple = input;
        par_radix_sort_with_scratch(&mut by_simple, &RadixSortConfig::simple(), &mut scratch);
        assert_eq!(scratch.last_schedule(), Some(Schedule::Lsd { executed_passes: 4 }));
        assert_eq!(by_default, by_simple);
        assert!(by_default.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn msd_first_steady_state_reuses_scratch_without_reallocating() {
        let mut rng = SplitMix64::seed_from_u64(48);
        let cfg = small_cutoff(RadixSortConfig { chunks: Some(3), ..Default::default() });
        let mut scratch: SortScratch<u64, u32> = SortScratch::new();
        let n = 40_000;
        let mut warm = 0;
        for round in 0..4 {
            let mut keys: Vec<u64> = (0..n).map(|_| rng.random()).collect();
            let mut vals: Vec<u32> = (0..n as u32).collect();
            crate::pairs::par_radix_sort_pairs_with_scratch(&mut keys, &mut vals, &cfg, &mut scratch);
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
            assert!(matches!(scratch.last_schedule(), Some(Schedule::MsdFirst { .. })));
            if round == 0 {
                warm = scratch.reallocations();
            } else {
                assert_eq!(scratch.reallocations(), warm, "MSD-first resort reallocated");
            }
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
