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
//! * **Fold and first count in one read, then count only what runs**: one
//!   parallel read folds the OR and the AND of every key's `to_bits()`; a
//!   pass is trivial exactly when no bit of its digit differs between the
//!   two, so the set of live passes needs no counting. The same read
//!   counts, per chunk, the digit the sort will permute on first, as
//!   predicted from the fold of a small sample (the head of every chunk);
//!   the rare wrong guess costs one separate counting read, never a
//!   different output. Each permute then counts the *next* live pass's
//!   per-chunk digits while the keys are already in registers, so no pass
//!   re-reads the whole array to count. A permute that splits a range into
//!   buckets folds each bucket's keys the same way, block by flushed
//!   block, so what is live inside a bucket is known without reading it
//!   again.
//!
//! On top of those parts the engine picks one of two pass **schedules**
//! per sort, from the data ([`Schedule`], [`SortScratch::last_schedule`]):
//!
//! * **MSD-first** — the paper's sample-sort shape for integers: move every
//!   key across the machine once, then sort locally. The top live digit is
//!   counted and one coalesced permute on it splits the array into `bins`
//!   buckets. The workers drain the buckets of at most
//!   [`RadixSortConfig::sequential_cutoff`] keys through a [`ChunkQueue`],
//!   finishing each with the cache-resident sequential kernel
//!   ([`crate::seq`]) on the passes live inside that bucket. A *heavy*
//!   bucket — one above the cutoff: a Zipf head, everything but one outlier
//!   — goes back through the engine instead, all workers on it: its own
//!   live passes (at least one fewer: not the digit it was split on), its
//!   own top digit, its own buckets, the two buffers' roles swapped. No
//!   worker's share of a sort depends on the input.
//! * **LSD** — one out-of-cache permute per live pass, least significant
//!   first: what runs on a range with a single live pass, or too few keys
//!   for a histogram per bucket to pay, and what
//!   [`RadixSortConfig::simple`] asks for outright.
//!
//! All count matrices are cache-line padded ([`PaddedCounts`]), so no two
//! workers' counters ever share a line. Both schedules produce
//! bit-identical sorted output (and identical stable order in the pairs
//! sorts), which the property suite checks against `sort_unstable` and the
//! stable `sort_by_key`.

use std::ops::Range;
use std::time::{Duration, Instant};

use crate::histogram::{count_digits_into, exclusive_prefix_sum, fold_and_count, PaddedCounts};
use crate::key::RadixKey;
use crate::seq::{all_passes, hist_len, lsd_sort, passes_for, DEFAULT_RADIX_BITS};
use crate::shared::SharedSlice;
use crate::steal::{default_workers, ChunkQueue};

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

/// Keys at the head of every chunk whose fold predicts the digit the sort
/// will count first (`predict_first_pass`). Every chunk, so that the high
/// keys of a sorted input are seen.
const SAMPLE_KEYS: usize = 64;

/// Default [`RadixSortConfig::sequential_cutoff`], from the n × chunks
/// table in DESIGN.md §14 (n = 2^13…2^20, `chunks` 1 and 2, sequential
/// kernel vs engine): keys-only `u32` sorts cross over near 2^20,
/// `(u64, u64)` pairs near 2^18, and with one worker the engine never wins
/// below 2^19. 2^18 is the minimax choice — on either side of it the lane
/// that would have preferred the other path loses at most a seventh,
/// where the old 2^13 lost 4× on a 16,384-key sort. The same length is
/// the line between a light and a heavy bucket, and the table for that
/// job (a bucket of `(u64, u64)` pairs as the input, n = 2^16…2^20: the
/// kernel on one worker while the other sorts a bucket of its own, vs the
/// engine on both) crosses at 2^17: level there, the kernel a third
/// ahead at 2^16, the engine 5–20 % ahead at 2^18 and more above. 2^18
/// is the upper edge of that band; it stands until a measured change
/// moves both jobs together.
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
    /// decides what finishes a bucket once the engine has partitioned on
    /// the top live digit ([`Schedule::MsdFirst`]): the kernel on one
    /// worker when the bucket is at or below it, the engine again, on all
    /// workers, when the bucket is heavier. The default is the measured
    /// crossover of both decisions (DESIGN.md §14); `0` keeps every sort
    /// on the [`Schedule::Lsd`] engine.
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
    /// One permute on pass `top_pass`, then every bucket of at most
    /// `sequential_cutoff` keys finished in cache by the sequential kernel
    /// and every larger one sorted by the engine again, as a range of its
    /// own. `live_passes` counts the non-trivial passes including the top
    /// one; `largest_bucket` is the most keys any top digit holds and
    /// `heavy_buckets` how many top digits hold more than the cutoff (what
    /// the deeper levels did with them is not reported).
    MsdFirst { top_pass: u32, live_passes: u32, largest_bucket: usize, heavy_buckets: u32 },
    /// One permute per non-trivial pass, least significant digit first.
    Lsd { executed_passes: u32 },
}

/// Wall time of each phase of one engine sort
/// ([`SortScratch::last_phases`]). The parts cover everything but sizing
/// the scratch and the serial glue between phases (rank prefix sums,
/// summing rows): through a warm scratch they add up to `total` less a
/// few percent (`phases_sum_to_the_sort_wall_time`); a scratch that has
/// to grow adds its allocation to that residual.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Phases {
    /// The read that folds the OR and the AND of every key.
    pub fold: Duration,
    /// The outermost range's count of the first digit it permutes on;
    /// `None` when none ran on its own (no live pass).
    pub first_count: Option<Duration>,
    /// The outermost range's permutes: the one top-digit permute under
    /// MSD-first; under LSD every pass, with the counts taken between them
    /// and any closing copy.
    pub permute: Duration,
    /// The light buckets finished by the sequential kernel (MSD-first).
    pub buckets: Duration,
    /// Every heavy bucket, all the levels below the outermost together.
    pub deeper: Duration,
    /// The whole engine sort, entry to return.
    pub total: Duration,
}

impl Phases {
    /// The sum of the parts; `total` less this is the serial glue.
    pub fn parts(&self) -> Duration {
        self.fold + self.first_count.unwrap_or_default() + self.permute + self.buckets + self.deeper
    }
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
    /// `workers` workers (at most one per key) on `n` keys cut into
    /// `CHUNKS_PER_WORKER` chunks each.
    fn new(n: usize, workers: usize) -> Self {
        let workers = workers.min(n);
        Exec { geom: ChunkGeom::new(n, workers.saturating_mul(CHUNKS_PER_WORKER)), workers }
    }

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
    /// Whether to fold the OR and the AND of every bucket's keys as they
    /// are flushed (`Stage::fold`).
    fold_buckets: bool,
}

/// The fold of no keys: the identity of (OR, AND).
const NO_KEYS: (u64, u64) = (0, u64::MAX);

/// The fold of `keys`: the OR and the AND of their order-preserving images.
fn fold_of<'a, K: RadixKey + 'a>(keys: impl IntoIterator<Item = &'a K>) -> (u64, u64) {
    keys.into_iter().fold(NO_KEYS, |(or, and), k| (or | k.to_bits(), and & k.to_bits()))
}

/// The fold of two sets of keys together, from the fold of each.
fn join_folds(a: (u64, u64), b: (u64, u64)) -> (u64, u64) {
    (a.0 | b.0, a.1 & b.1)
}

/// Whether a bucket of `len` keys goes back through the engine instead of
/// to the sequential kernel.
fn is_heavy(len: usize, cfg: &RadixSortConfig) -> bool {
    len > cfg.sequential_cutoff
}

/// Per-worker write-coalescing staging: `ELEMS` keys (and payloads) per
/// bucket, flushed as one contiguous block when full and at chunk ends.
struct Stage<K, V> {
    kbuf: Vec<K>,
    vbuf: Vec<V>,
    fill: Vec<u32>,
    /// Per bucket, the OR and the AND of the `to_bits()` of every key
    /// flushed in the current permute, when the permute asks for it.
    fold: Vec<(u64, u64)>,
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
        Stage { kbuf: Vec::new(), vbuf: Vec::new(), fill: Vec::new(), fold: Vec::new() }
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
        self.fold.clear();
        self.fold.resize(bins, NO_KEYS);
        grew
    }
}

/// One worker's private reusable buffers: the coalescing stage, the
/// next-pass count matrix a permute fills, the second counter row of a
/// counting read (`fold_and_count`), and the `passes × bins` histogram the
/// sequential kernel needs in the bucket phase. Handed to
/// exactly one worker thread per phase (disjoint `&mut` via `iter_mut`),
/// so no synchronization is needed.
struct WorkerScratch<K, V> {
    stage: Stage<K, V>,
    nh: PaddedCounts,
    spare: Vec<usize>,
    bucket_hist: Vec<usize>,
    reallocations: u64,
}

impl<K: Copy + Default, V: Copy + Default> WorkerScratch<K, V> {
    fn new() -> Self {
        WorkerScratch {
            stage: Stage::empty(),
            nh: PaddedCounts::new(0, 0),
            spare: Vec::new(),
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
/// bucket bounds of every MSD-first level, and one `WorkerScratch` per
/// worker.
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
    /// `bins + 1` counters per MSD-first level, outermost first: the
    /// level's top-digit histogram, then its exclusive prefix sum — bucket
    /// `d` is `starts[d]..starts[d + 1]` of the level's range. A level
    /// needs its bounds again after each heavy bucket it hands back to the
    /// engine, so the levels do not share one row.
    bucket_starts: Vec<usize>,
    /// `bins` (OR, AND) pairs per MSD-first level, beside `bucket_starts`:
    /// the fold of each bucket's keys, taken as the permute flushed them.
    bucket_folds: Vec<(u64, u64)>,
    chunk_hists: PaddedCounts,
    offsets: PaddedCounts,
    workers: Vec<WorkerScratch<K, V>>,
    reallocations: u64,
    last_schedule: Option<Schedule>,
    last_phases: Option<Phases>,
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
            bucket_folds: Vec::new(),
            chunk_hists: PaddedCounts::new(0, 0),
            offsets: PaddedCounts::new(0, 0),
            workers: Vec::new(),
            reallocations: 0,
            last_schedule: None,
            last_phases: None,
        }
    }

    /// The schedule the most recent sort through this scratch ran
    /// (`None` before the first). Written once per sort.
    pub fn last_schedule(&self) -> Option<Schedule> {
        self.last_schedule
    }

    /// Where the wall time of the most recent sort through this scratch
    /// went, phase by phase; `None` before the first sort and after one
    /// that never entered the engine ([`Schedule::Sequential`]).
    pub fn last_phases(&self) -> Option<Phases> {
        self.last_phases
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

    /// Shape the buffers one sort sizes once — the flip buffers and each
    /// worker's stage; the count matrices follow each range's own chunk
    /// geometry (`Engine::sort_range`). Counts growths in `reallocations`;
    /// reuse is the common case.
    fn ensure(&mut self, n: usize, with_vals: bool, bins: usize, workers: usize) {
        let mut grew = self.ensure_flip(n, with_vals);
        if workers > self.workers.len() {
            grew = true;
            self.workers.resize_with(workers, WorkerScratch::new);
        }
        for w in &mut self.workers[..workers] {
            w.reallocations += (w.stage.reset(bins, with_vals) | reshape(&mut w.spare, bins)) as u64;
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
        self.last_phases = None;
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

/// The schedule rule: a range of `n` keys with live passes `live` is split
/// on its top live digit (MSD-first) when the cutoff asks for the kernel
/// at all, at least two passes are live, and splitting can pay: the bucket
/// phase pays `bins` counters of zeroing and prefix sum per pass per
/// bucket whatever the bucket holds, which the per-key work covers only
/// when the mean bucket is at least half a histogram long (`bins² <= 2n`;
/// with 16-bit digits that is never).
fn splits_msd_first(live: u64, n: usize, cfg: &RadixSortConfig) -> bool {
    let bins = 1usize << cfg.radix_bits;
    cfg.sequential_cutoff > 0 && live.count_ones() >= 2 && bins <= 2 * n / bins
}

/// The pass a range counts first: its top live pass when it splits
/// MSD-first, its lowest live pass otherwise. `live` is not empty.
fn first_pass(live: u64, n: usize, cfg: &RadixSortConfig) -> u32 {
    if splits_msd_first(live, n, cfg) {
        63 - live.leading_zeros()
    } else {
        live.trailing_zeros()
    }
}

/// The pass the whole sort will count first, guessed from the fold of the
/// first [`SAMPLE_KEYS`] keys of every chunk; `None` when those keys are
/// all equal. The sampled live passes are a subset of the true ones, so a
/// guess is wrong only when a digit the sample never varies on is live.
fn predict_first_pass<K: RadixKey>(keys: &[K], geom: ChunkGeom, cfg: &RadixSortConfig) -> Option<u32> {
    let sample = (0..geom.chunks()).flat_map(|c| {
        let range = geom.range(c);
        &keys[range.start..range.end.min(range.start + SAMPLE_KEYS)]
    });
    let live = live_passes::<K>(fold_of(sample), cfg.radix_bits);
    (live != 0).then(|| first_pass(live, keys.len(), cfg))
}

/// Give `v` at least `len` counters, keeping the ones it holds; `true` when
/// it had to grow.
fn at_least<T: Copy>(v: &mut Vec<T>, len: usize, fill: T) -> bool {
    let grew = len > v.capacity();
    if v.len() < len {
        v.resize(len, fill);
    }
    grew
}

/// The live passes of keys whose OR and AND are `fold` (bit p = pass p). A
/// pass is an identity permutation exactly when every key has the same
/// digit there, i.e. when the OR and the AND of all keys agree on every bit
/// of the digit; such passes are never counted or run.
fn live_passes<K: RadixKey>((or, and): (u64, u64), radix_bits: u32) -> u64 {
    let mask = (1u64 << radix_bits) - 1;
    (0..passes_for::<K>(radix_bits))
        .filter(|&p| ((or ^ and) >> (p * radix_bits)) & mask != 0)
        .fold(0u64, |live, p| live | 1 << p)
}

/// The shared engine behind [`par_radix_sort_with`] (V = `()`, no payload
/// lane) and `par_radix_sort_pairs_with` (`WITH_VALS = true`): size what a
/// sort sizes once, fold the input while counting the digit a sample says
/// the sort will count first, then sort the whole of both lanes as the
/// outermost range ([`Engine::sort_range`]), which counts again only if
/// the sample was wrong.
pub(crate) fn sort_engine<K, V, const WITH_VALS: bool>(
    keys: &mut [K],
    vals: &mut [V],
    cfg: &RadixSortConfig,
    scratch: &mut SortScratch<K, V>,
) where
    K: RadixKey + Default,
    V: Copy + Send + Sync + Default,
{
    let entry = Instant::now();
    let n = keys.len();
    debug_assert!(n > 1, "engine callers handle the trivial sizes");
    let workers = cfg.chunks.unwrap_or_else(default_workers).clamp(1, n);
    scratch.ensure(n, WITH_VALS, 1 << cfg.radix_bits, workers);
    let SortScratch {
        keys: key_scratch,
        vals: val_scratch,
        bucket_starts,
        bucket_folds,
        chunk_hists,
        offsets,
        workers: ws,
        reallocations,
        last_schedule,
        last_phases,
        ..
    } = scratch;
    let t = Instant::now();
    let exec = Exec::new(n, workers);
    let bins = 1usize << cfg.radix_bits;
    let predicted = predict_first_pass(keys, exec.geom, cfg);
    if predicted.is_some() {
        *reallocations += chunk_hists.reset(exec.geom.chunks(), bins) as u64;
    }
    let count = predicted.map(|p| p * cfg.radix_bits);
    let fold = run_fold(keys, exec, count, (bins - 1) as u64, chunk_hists, &mut ws[..workers]);
    let fold_time = t.elapsed();
    let mut engine = Engine {
        cfg,
        bucket_starts,
        bucket_folds,
        chunk_hists,
        offsets,
        ws: &mut ws[..workers],
        reallocations,
    };
    let lanes = Lanes { cur_k: keys, cur_v: vals, alt_k: key_scratch, alt_v: val_scratch };
    let (schedule, phases) = engine.sort_range::<WITH_VALS>(lanes, fold, predicted, false, 0);
    *last_schedule = Some(schedule);
    *last_phases = Some(Phases { fold: fold_time, total: entry.elapsed(), ..phases });
}

/// One range of both lanes on both sides — the caller's arrays and the
/// flip buffers. The range's data is in `cur`; `alt` is the same range of
/// the other side.
struct Lanes<'a, K, V> {
    cur_k: &'a mut [K],
    cur_v: &'a mut [V],
    alt_k: &'a mut [K],
    alt_v: &'a mut [V],
}

impl<K: Copy, V: Copy> Lanes<'_, K, V> {
    /// Copy the range to the other side (the payload lane is empty when
    /// there is none).
    fn copy_to_alt(&mut self) {
        self.alt_k.copy_from_slice(self.cur_k);
        self.alt_v.copy_from_slice(self.cur_v);
    }

    /// The data has moved: what was `alt` is `cur` now.
    fn swap_sides(&mut self) {
        std::mem::swap(&mut self.cur_k, &mut self.alt_k);
        std::mem::swap(&mut self.cur_v, &mut self.alt_v);
    }
}

/// What the levels of one sort share: the configuration, the workers and
/// every scratch buffer but the flip buffers, which are the ranges
/// themselves.
struct Engine<'a, K, V> {
    cfg: &'a RadixSortConfig,
    bucket_starts: &'a mut Vec<usize>,
    bucket_folds: &'a mut Vec<(u64, u64)>,
    chunk_hists: &'a mut PaddedCounts,
    offsets: &'a mut PaddedCounts,
    ws: &'a mut [WorkerScratch<K, V>],
    reallocations: &'a mut u64,
}

impl<K, V> Engine<'_, K, V>
where
    K: RadixKey + Default,
    V: Copy + Send + Sync + Default,
{
    /// Sort one range with every worker on it and leave the result in
    /// `lanes.alt` when `land_in_alt`, in `lanes.cur` otherwise; returns
    /// how, and where the range's time went (`fold` and `total` left to
    /// the caller). `fold` is the OR and the AND of the range's keys, and
    /// `counted` the pass whose per-chunk counts `chunk_hists` already holds
    /// in this range's chunk geometry, if any: when that is the pass the
    /// range counts first, it is not counted again. The whole
    /// sort is the range at `depth` 0; a range at `depth` d + 1 is a heavy
    /// bucket of a range at depth d, with the two sides' roles swapped, so
    /// its keys agree on every digit from its parent's top live one up.
    /// It therefore has at least one live pass fewer: the depth is bounded
    /// by the passes of `K`, whatever the keys.
    ///
    /// Stable at every step: within a chunk, keys are staged and flushed in
    /// input order to consecutive positions; across chunks, the digit-major
    /// rank construction orders lower chunk ids first; a bucket is a
    /// consecutive range whose keys already agree on the digit it was split
    /// on and everything above; and what finishes a bucket is the stable
    /// sequential kernel or this function again.
    fn sort_range<const WITH_VALS: bool>(
        &mut self,
        mut lanes: Lanes<'_, K, V>,
        fold: (u64, u64),
        counted: Option<u32>,
        land_in_alt: bool,
        depth: usize,
    ) -> (Schedule, Phases) {
        let cfg = self.cfg;
        let n = lanes.cur_k.len();
        let bins = 1usize << cfg.radix_bits;
        let mask = (bins - 1) as u64;
        let total_passes = passes_for::<K>(cfg.radix_bits) as usize;
        let exec = Exec::new(n, self.ws.len());
        let m = exec.geom.chunks();

        let live = live_passes::<K>(fold, cfg.radix_bits);
        if live == 0 {
            // All equal: sorted where it lies.
            if land_in_alt {
                lanes.copy_to_alt();
            }
            return (Schedule::Lsd { executed_passes: 0 }, Phases::default());
        }

        let mut grew = self.offsets.reset(m, bins);
        if counted.is_none() {
            grew |= self.chunk_hists.reset(m, bins);
        }
        *self.reallocations += grew as u64;
        let ws = &mut self.ws[..exec.workers];
        // The first count, unless the caller's read already took it.
        let first = first_pass(live, n, cfg);
        let mut count_first = |src: &[K], ws: &mut [WorkerScratch<K, V>]| {
            (counted != Some(first)).then(|| {
                let t = Instant::now();
                run_count(src, exec, first * cfg.radix_bits, mask, self.chunk_hists, ws);
                t.elapsed()
            })
        };

        // Schedule. Below two live passes there is nothing to finish in
        // cache; a cutoff of 0 (`simple()`) asks for LSD outright.
        if splits_msd_first(live, n, cfg) {
            let Lanes { cur_k, cur_v, alt_k, alt_v } = lanes;
            let top = first as usize;
            let top_shift = first * cfg.radix_bits;
            let first_count = count_first(cur_k, ws);
            let level = depth * (bins + 1)..(depth + 1) * (bins + 1);
            let folds = depth * bins..(depth + 1) * bins;
            let grew = at_least(self.bucket_starts, level.end, 0)
                | at_least(self.bucket_folds, folds.end, NO_KEYS);
            *self.reallocations += grew as u64;
            let starts = &mut self.bucket_starts[level.clone()];
            let (top_hist, total) = starts.split_at_mut(bins);
            top_hist.fill(0);
            for c in 0..m {
                for (g, h) in top_hist.iter_mut().zip(self.chunk_hists.row(c)) {
                    *g += h;
                }
            }
            let largest_bucket = top_hist.iter().copied().max().unwrap_or(0);

            build_offsets(self.chunk_hists, self.offsets, n);
            let ctx = PermuteCtx {
                src_k: &*cur_k,
                src_v: &*cur_v,
                out_k: SharedSlice::new(alt_k),
                out_v: SharedSlice::new(alt_v),
                geom: exec.geom,
                shift: top_shift,
                mask,
                bins,
                next_shift: None,
                fold_buckets: true,
            };
            let t = Instant::now();
            run_permute::<K, V, WITH_VALS>(&ctx, exec, self.offsets, self.chunk_hists, ws);
            let permute = t.elapsed();
            for (b, fold) in self.bucket_folds[folds.clone()].iter_mut().enumerate() {
                *fold = ws.iter().map(|w| w.stage.fold[b]).fold(NO_KEYS, join_folds);
            }

            // The keys are on the `alt` side now, bucket by bucket. Light
            // buckets first, one worker each, through the kernel ...
            let t = Instant::now();
            total[0] = exclusive_prefix_sum(top_hist);
            for w in ws.iter_mut() {
                w.reallocations += reshape(&mut w.bucket_hist, hist_len::<K>(cfg.radix_bits)) as u64;
            }
            let bucket_lanes = BucketLanes {
                src_k: SharedSlice::new(alt_k),
                src_v: SharedSlice::new(alt_v),
                dst_k: SharedSlice::new(cur_k),
                dst_v: SharedSlice::new(cur_v),
                land_in_dst: !land_in_alt,
            };
            let bucket_folds = &self.bucket_folds[folds.clone()];
            run_buckets::<K, V, WITH_VALS>(&bucket_lanes, exec, cfg, bucket_folds, starts, ws);
            let buckets = t.elapsed();

            // ... then each heavy one with every worker on it, as a range
            // of its own whose data lies on the other side.
            let t = Instant::now();
            let mut heavy_buckets = 0;
            for b in 0..bins {
                let at = level.start + b;
                let range = self.bucket_starts[at]..self.bucket_starts[at + 1];
                if is_heavy(range.len(), cfg) {
                    heavy_buckets += 1;
                    let vrange = if WITH_VALS { range.clone() } else { 0..0 };
                    let bucket = Lanes {
                        cur_k: &mut alt_k[range.clone()],
                        cur_v: &mut alt_v[vrange.clone()],
                        alt_k: &mut cur_k[range],
                        alt_v: &mut cur_v[vrange],
                    };
                    let fold = self.bucket_folds[folds.start + b];
                    self.sort_range::<WITH_VALS>(bucket, fold, None, !land_in_alt, depth + 1);
                }
            }
            let schedule = Schedule::MsdFirst {
                top_pass: top as u32,
                live_passes: live.count_ones(),
                largest_bucket,
                heavy_buckets,
            };
            let phases = Phases { first_count, permute, buckets, deeper: t.elapsed(), ..Phases::default() };
            return (schedule, phases);
        }

        // Counting the next pass during a permute needs one m × bins matrix
        // per worker; past the cache budget the re-read is cheaper than the
        // misses.
        let count_during_permute = m * bins <= MAX_FUSED_NH_WORDS;
        let t = Instant::now();
        let first_count = count_first(lanes.cur_k, ws);
        // Whether `chunk_hists` holds the coming pass's per-chunk counts.
        let mut counted = true;
        let mut executed_passes = 0;
        let mut land_in_alt = land_in_alt;
        for pass in (0..total_passes).filter(|&p| live >> p & 1 == 1) {
            let shift = pass as u32 * cfg.radix_bits;
            if !counted {
                run_count(lanes.cur_k, exec, shift, mask, self.chunk_hists, ws);
            }
            build_offsets(self.chunk_hists, self.offsets, n);

            let next_exec = if count_during_permute {
                ((pass + 1)..total_passes).find(|&p| live >> p & 1 == 1)
            } else {
                None
            };
            let ctx = PermuteCtx {
                src_k: &*lanes.cur_k,
                src_v: &*lanes.cur_v,
                out_k: SharedSlice::new(lanes.alt_k),
                out_v: SharedSlice::new(lanes.alt_v),
                geom: exec.geom,
                shift,
                mask,
                bins,
                next_shift: next_exec.map(|p| p as u32 * cfg.radix_bits),
                fold_buckets: false,
            };
            run_permute::<K, V, WITH_VALS>(&ctx, exec, self.offsets, self.chunk_hists, ws);
            counted = next_exec.is_some();
            executed_passes += 1;
            lanes.swap_sides();
            land_in_alt = !land_in_alt;
        }
        if land_in_alt {
            lanes.copy_to_alt();
        }
        let permute = t.elapsed() - first_count.unwrap_or_default();
        (Schedule::Lsd { executed_passes }, Phases { first_count, permute, ..Phases::default() })
    }
}

/// Like [`crate::steal::run_workers`], but hands each worker exclusive
/// `&mut` access to its own [`WorkerScratch`] (disjoint by `iter_mut`) so
/// per-worker staging and count buffers survive across phases and across
/// sorts instead of being allocated per pass.
fn run_workers_scratch<K, V, R, F>(workers: usize, ws: &mut [WorkerScratch<K, V>], f: F) -> Vec<R>
where
    K: Send,
    V: Send,
    R: Send,
    F: Fn(usize, &mut WorkerScratch<K, V>) -> R + Sync,
{
    debug_assert_eq!(ws.len(), workers);
    if workers == 1 {
        return vec![f(0, &mut ws[0])];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = ws
            .iter_mut()
            .enumerate()
            .map(|(w, slot)| {
                let f = &f;
                s.spawn(move || f(w, slot))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))).collect()
    })
}

/// Per-chunk digit counts for one pass, in parallel over the chunk queue.
fn run_count<K: RadixKey, V: Send>(
    src: &[K],
    exec: Exec,
    shift: u32,
    mask: u64,
    chunk_hists: &mut PaddedCounts,
    ws: &mut [WorkerScratch<K, V>],
) {
    run_fold(src, exec, Some(shift), mask, chunk_hists, ws);
}

/// The OR and the AND of every key's order-preserving image, in parallel
/// over the chunk queue: the one read that tells the engine which digits
/// differ anywhere in the input. With `count` set, the same read counts
/// the digit at that shift into each chunk's row of `chunk_hists` (shaped
/// to `exec`'s chunks by the caller), two counter rows per chunk.
fn run_fold<K: RadixKey, V: Send>(
    src: &[K],
    exec: Exec,
    count: Option<u32>,
    mask: u64,
    chunk_hists: &mut PaddedCounts,
    ws: &mut [WorkerScratch<K, V>],
) -> (u64, u64) {
    let shared = chunk_hists.shared();
    let queue = exec.queue(exec.geom.chunks());
    let parts = run_workers_scratch(exec.workers, ws, |w, wsc| {
        let mut fold = NO_KEYS;
        while let Some(c) = queue.claim(w) {
            let keys = &src[exec.geom.range(c)];
            let chunk = match count {
                Some(shift) => {
                    // SAFETY: chunk ids are claimed exactly once per phase,
                    // so row `c` is touched by this worker only.
                    let row = unsafe { shared.row_mut(c) };
                    fold_and_count(keys, shift, mask, row, &mut wsc.spare)
                }
                None => fold_of(keys),
            };
            fold = join_folds(fold, chunk);
        }
        fold
    });
    parts.into_iter().fold(NO_KEYS, join_folds)
}

/// Both sides of the bucket phase, keys and payloads: after the top-digit
/// permute a bucket's keys sit in a range of `src`, and its sorted result
/// must end in the same range of `dst` when `land_in_dst`, of `src`
/// otherwise.
struct BucketLanes<'a, K, V> {
    src_k: SharedSlice<'a, K>,
    src_v: SharedSlice<'a, V>,
    dst_k: SharedSlice<'a, K>,
    dst_v: SharedSlice<'a, V>,
    land_in_dst: bool,
}

/// The bucket phase of the MSD-first schedule: workers drain the `bins`
/// buckets of the top digit through the chunk queue and finish each one of
/// at most `cfg.sequential_cutoff` keys with the sequential kernel on the
/// passes live inside it, which lands it on the side asked for whatever
/// the parity of the passes it ran. Heavier buckets are left as the
/// permute wrote them. Bucket `b` is `starts[b]..starts[b + 1]` of both
/// sides and `folds[b]` the OR and the AND of its keys.
fn run_buckets<K, V, const WITH_VALS: bool>(
    lanes: &BucketLanes<'_, K, V>,
    exec: Exec,
    cfg: &RadixSortConfig,
    folds: &[(u64, u64)],
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
            if is_heavy(range.len(), cfg) {
                continue;
            }
            let vrange = if WITH_VALS { range.clone() } else { 0..0 };
            // SAFETY: `starts` is one exclusive prefix sum ending in n, so
            // the bucket ranges are consecutive sub-ranges of both sides,
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
                cfg.radix_bits,
                live_passes::<K>(folds[b], cfg.radix_bits),
                lanes.land_in_dst,
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
        if ctx.fold_buckets {
            wsc.stage.fold.fill(NO_KEYS);
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
    if ctx.fold_buckets {
        let (mut or, mut and) = stage.fold[d];
        for k in kseg {
            let bits = k.to_bits();
            or |= bits;
            and &= bits;
        }
        stage.fold[d] = (or, and);
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
    /// scratch as the sort left it.
    fn sorted_scratch<K: RadixKey + Default + std::fmt::Debug>(
        input: Vec<K>,
        cfg: &RadixSortConfig,
        poison: K,
    ) -> SortScratch<K> {
        let mut expect = input.clone();
        expect.sort_unstable();
        let mut scratch: SortScratch<K> = SortScratch::new();
        scratch.keys = vec![poison; input.len()];
        let mut v = input;
        par_radix_sort_with_scratch(&mut v, cfg, &mut scratch);
        assert_eq!(v, expect, "diverged under {cfg:?}");
        scratch
    }

    /// The schedule the engine reports for [`sorted_scratch`]'s sort.
    fn schedule_of<K: RadixKey + Default + std::fmt::Debug>(
        input: Vec<K>,
        cfg: &RadixSortConfig,
        poison: K,
    ) -> Schedule {
        sorted_scratch(input, cfg, poison).last_schedule().expect("a sort ran")
    }

    /// Sort `keys_in` as pairs with payload = input position and check the
    /// exact stable order against `sort_by_key`; returns the schedule.
    fn stable_pairs_schedule(keys_in: &[u32], cfg: &RadixSortConfig) -> Schedule {
        let mut expect: Vec<(u32, u32)> = keys_in.iter().copied().zip(0..).collect();
        expect.sort_by_key(|p| p.0);
        let (mut keys, mut vals) = (keys_in.to_vec(), (0..keys_in.len() as u32).collect::<Vec<_>>());
        let mut scratch: SortScratch<u32, u32> = SortScratch::new();
        crate::pairs::par_radix_sort_pairs_with_scratch(&mut keys, &mut vals, cfg, &mut scratch);
        let got: Vec<(u32, u32)> = keys.into_iter().zip(vals).collect();
        assert_eq!(got, expect, "stable order diverges under {cfg:?}");
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
                        Schedule::MsdFirst { top_pass, live_passes, largest_bucket, heavy_buckets: 0 }
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
    fn heavy_bucket_starts_exactly_at_cutoff_plus_one() {
        let mut rng = SplitMix64::seed_from_u64(41);
        let cfg = small_cutoff(RadixSortConfig { chunks: Some(3), ..Default::default() });
        // `simple()` asks for the engine's LSD loop outright.
        let lsd_only = RadixSortConfig { chunks: Some(3), ..RadixSortConfig::simple() };
        let cases = [(SMALL_CUTOFF - 1, 0), (SMALL_CUTOFF, 0), (SMALL_CUTOFF + 1, 1)];
        for (largest, heavy_buckets) in cases {
            let input = keys_with_largest_bucket(largest, &mut rng);
            assert_eq!(
                schedule_of(input.clone(), &cfg, u32::MAX),
                Schedule::MsdFirst { top_pass: 3, live_passes: 4, largest_bucket: largest, heavy_buckets }
            );
            let lsd = schedule_of(input.clone(), &lsd_only, u32::MAX);
            assert_eq!(lsd, Schedule::Lsd { executed_passes: 4 });
            // Across the boundary the two schedules agree bit for bit on
            // pairs too, and with the stable `sort_by_key`.
            let dup_heavy: Vec<u32> = input.iter().map(|k| k & 0xFF00_00FF).collect();
            assert!(matches!(
                stable_pairs_schedule(&dup_heavy, &cfg),
                Schedule::MsdFirst { top_pass: 3, live_passes: 2, heavy_buckets: h, .. }
                    if h == heavy_buckets
            ));
            let lsd = stable_pairs_schedule(&dup_heavy, &lsd_only);
            assert_eq!(lsd, Schedule::Lsd { executed_passes: 2 });
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
        // One outlier with the high bit set: the top digit is live and its
        // bucket 0 holds n - 1 keys, which go back through the engine and
        // split on pass 1 into buckets the kernel takes.
        let mut outlier: Vec<u64> = (0..n).map(|_| rng.random::<u64>() & 0xFFFF).collect();
        outlier[n / 3] |= 1 << 63;
        assert_eq!(
            schedule_of(outlier, &cfg, u64::MAX),
            Schedule::MsdFirst { top_pass: 7, live_passes: 3, largest_bucket: n - 1, heavy_buckets: 1 }
        );
        // One live pass: nothing below the top digit to finish in cache.
        let one_pass: Vec<u32> = (0..n).map(|_| (rng.random::<u32>() & 0xFF) << 8).collect();
        assert_eq!(schedule_of(one_pass, &cfg, u32::MAX), Schedule::Lsd { executed_passes: 1 });
        // u64 keys below 2^16 and below 2^24: the top *live* digit, not the
        // key type's top digit, is the partition digit.
        let below_2_16: Vec<u64> = (0..n).map(|_| rng.random::<u64>() & 0xFFFF).collect();
        assert!(matches!(
            schedule_of(below_2_16, &cfg, u64::MAX),
            Schedule::MsdFirst { top_pass: 1, live_passes: 2, heavy_buckets: 0, .. }
        ));
        let below_2_24: Vec<u64> = (0..n).map(|_| rng.random::<u64>() & 0xFF_FFFF).collect();
        assert!(matches!(
            schedule_of(below_2_24, &cfg, u64::MAX),
            Schedule::MsdFirst { top_pass: 2, live_passes: 3, heavy_buckets: 0, .. }
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
            Schedule::MsdFirst { top_pass: 3, live_passes: 4, largest_bucket, heavy_buckets: 0 }
                if largest_bucket > n / 3
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
            Some(Schedule::MsdFirst {
                top_pass: 1,
                live_passes: 2,
                largest_bucket: 200,
                heavy_buckets: 0
            })
        );
    }

    /// The sibling of `msd_first_small_n_under_miri` for the heavy-bucket
    /// path, sized for the same gating Miri step: 1,600 of 2,000 pairs share
    /// top digit 5, six times the cutoff, so that bucket goes back through
    /// the engine with the two sides swapped — its own fold, count, permute
    /// and 16 light buckets — on three threads. Light buckets land on the
    /// far side of the kernel at depth 0 and on its near side at depth 1.
    #[test]
    fn heavy_bucket_small_n_under_miri() {
        let n = 2000u32;
        let cfg = RadixSortConfig { radix_bits: 4, chunks: Some(3), sequential_cutoff: 256 };
        let keys_in: Vec<u64> = (0..n)
            .map(|i| {
                let low = u64::from(i.wrapping_mul(2_654_435_761) >> 24);
                let top = if i < 1600 { 5 } else { u64::from(i % 15) + u64::from(i % 15 >= 5) };
                top << 8 | low
            })
            .collect();
        let mut expect: Vec<(u64, u32)> = keys_in.iter().copied().zip(0..).collect();
        expect.sort_by_key(|p| p.0);
        let (mut keys, mut vals) = (keys_in, (0..n).collect::<Vec<_>>());
        let mut scratch: SortScratch<u64, u32> = SortScratch::new();
        crate::pairs::par_radix_sort_pairs_with_scratch(&mut keys, &mut vals, &cfg, &mut scratch);
        assert_eq!(keys.into_iter().zip(vals).collect::<Vec<_>>(), expect);
        assert_eq!(
            scratch.last_schedule(),
            Some(Schedule::MsdFirst {
                top_pass: 2,
                live_passes: 3,
                largest_bucket: 1600,
                heavy_buckets: 1
            })
        );
        assert_eq!(msd_levels(&scratch, &cfg), 2);
    }

    #[test]
    fn msd_first_keeps_pairs_stable() {
        // 1,000 distinct keys spread over bytes 0, 1 and 3, forty copies of
        // each, payload = input index: the stable order is the only right
        // answer, and it must survive partition ∘ per-bucket kernel.
        let mut rng = SplitMix64::seed_from_u64(46);
        let keys_in: Vec<u32> = (0..40_000)
            .map(|_| (rng.random_range(0..50u32) << 24) | (rng.random_range(0..20u32) * 257))
            .collect();
        for cfg in all_configs().into_iter().map(small_cutoff) {
            let schedule = stable_pairs_schedule(&keys_in, &cfg);
            match cfg.radix_bits {
                // Bytes 0, 1 and 3 are live: three 8-bit passes, 50 buckets.
                8 => assert!(matches!(
                    schedule,
                    Schedule::MsdFirst { top_pass: 3, live_passes: 3, heavy_buckets: 0, .. }
                )),
                // The top 4-bit digit has four values, three of them with
                // 12,800 keys each, which go back through the engine.
                4 => assert!(matches!(
                    schedule,
                    Schedule::MsdFirst { top_pass: 7, live_passes: 6, heavy_buckets: 3, .. }
                )),
                // 2,048 bins are too many for 40,000 keys.
                _ => assert_eq!(schedule, Schedule::Lsd { executed_passes: 3 }),
            }
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

    /// How many nested ranges of the last sort through `scratch` split on a
    /// top digit: each keeps a row of bucket bounds.
    fn msd_levels<K, V>(scratch: &SortScratch<K, V>, cfg: &RadixSortConfig) -> usize {
        scratch.bucket_starts.len() / ((1 << cfg.radix_bits) + 1)
    }

    /// `n` shuffled `u32` keys nested `levels` heavy buckets deep at
    /// `bits`-bit digits: at each of the top `levels` digits, `leave` keys
    /// take a non-zero value (and random digits below it) and everything
    /// still in the chain takes 0. The keys left at the end are random
    /// under `low_mask` below the chain. For a cutoff between `leave` and
    /// what is left, bucket 0 is the one heavy bucket of every chain level.
    fn chain_keys(
        n: usize,
        bits: u32,
        levels: u32,
        leave: usize,
        low_mask: u32,
        rng: &mut SplitMix64,
    ) -> Vec<u32> {
        let passes = passes_for::<u32>(bits);
        assert!(levels < passes, "the last digit is never split on");
        let shift_of = |level: u32| (passes - 1 - level) * bits;
        let below_chain = (1u32 << shift_of(levels - 1)) - 1;
        let mut keys: Vec<u32> = (0..n)
            .map(|i| {
                let left_at = (i / leave) as u32;
                if left_at >= levels {
                    return rng.random::<u32>() & low_mask & below_chain;
                }
                let shift = shift_of(left_at);
                let digit = rng.random_range(1..1u32 << bits.min(32 - shift));
                digit << shift | rng.random::<u32>() & ((1 << shift) - 1)
            })
            .collect();
        for i in (1..n).rev() {
            keys.swap(i, rng.random_range(0..=i));
        }
        keys
    }

    #[test]
    fn heavy_bucket_chain_reaches_the_last_live_digit() {
        // One heavy bucket per level, down to the level whose range has a
        // single live pass left: depth = live passes - 1, then one LSD pass.
        let mut rng = SplitMix64::seed_from_u64(50);
        let (n, leave) = (40_000, 500);
        for (bits, chunks) in [(8u32, 3usize), (4, 5)] {
            let cfg = RadixSortConfig { radix_bits: bits, chunks: Some(chunks), sequential_cutoff: 2048 };
            let passes = passes_for::<u32>(bits);
            let input = chain_keys(n, bits, passes - 1, leave, u32::MAX, &mut rng);
            let scratch = sorted_scratch(input, &cfg, u32::MAX);
            assert_eq!(
                scratch.last_schedule(),
                Some(Schedule::MsdFirst {
                    top_pass: passes - 1,
                    live_passes: passes,
                    largest_bucket: n - leave,
                    heavy_buckets: 1
                })
            );
            assert_eq!(msd_levels(&scratch, &cfg), passes as usize - 1, "at {bits}-bit digits");
        }
    }

    #[test]
    fn heavy_bucket_lands_in_keys_for_odd_and_even_pass_counts_at_depths_1_and_2() {
        // 4-bit digits. `depth` chain levels, then a uniform digit whose 16
        // buckets the kernel takes with one, two or three live passes below.
        // At depth 1 the permute leaves a bucket in the caller's array, so an
        // even count lands by itself; at depth 2 in the flip buffer, so an
        // odd one does. Both buffers start poisoned where they can.
        let mut rng = SplitMix64::seed_from_u64(51);
        let cfg = small_cutoff(RadixSortConfig { radix_bits: 4, chunks: Some(2), ..Default::default() });
        for depth in [1u32, 2] {
            for below in [1u32, 2, 3] {
                let low_mask = 0xF << ((7 - depth) * 4) | ((1 << (4 * below)) - 1);
                let input = chain_keys(40_000, 4, depth, 4000, low_mask, &mut rng);
                let scratch = sorted_scratch(input, &cfg, u32::MAX);
                assert_eq!(
                    scratch.last_schedule(),
                    Some(Schedule::MsdFirst {
                        top_pass: 7,
                        live_passes: 8,
                        largest_bucket: 36_000,
                        heavy_buckets: 1
                    }),
                    "at depth {depth}, {below} below"
                );
                assert_eq!(msd_levels(&scratch, &cfg), depth as usize + 1);
            }
        }
    }

    #[test]
    fn heavy_bucket_of_equal_keys_is_copied_not_sorted() {
        // 16 distinct values with 16 distinct top digits, 2,500 copies of
        // each: every non-empty bucket is heavy and its fold has no live
        // bit, so no range below the outermost splits again.
        let mut rng = SplitMix64::seed_from_u64(52);
        let pool: Vec<u32> = (0..16).map(|j| j << 28 | rng.random::<u32>() >> 4).collect();
        let input: Vec<u32> = (0..40_000).map(|_| pool[rng.random_range(0..16usize)]).collect();
        for bits in [4u32, 8] {
            let cfg = RadixSortConfig { radix_bits: bits, chunks: Some(3), sequential_cutoff: 1024 };
            let scratch = sorted_scratch(input.clone(), &cfg, u32::MAX);
            assert!(matches!(
                scratch.last_schedule(),
                Some(Schedule::MsdFirst { heavy_buckets: 16, largest_bucket, .. }) if largest_bucket > 1024
            ));
            assert_eq!(msd_levels(&scratch, &cfg), 1);
            assert!(matches!(
                stable_pairs_schedule(&input, &cfg),
                Schedule::MsdFirst { heavy_buckets: 16, .. }
            ));
        }
    }

    #[test]
    fn heavy_bucket_with_one_live_pass_below_runs_one_lsd_pass() {
        // 10,000 keys below one digit's width share top digit 0; the other
        // top digits hold uniform keys, a few hundred or thousand each.
        let mut rng = SplitMix64::seed_from_u64(53);
        for bits in [4u32, 8] {
            let cfg = RadixSortConfig { radix_bits: bits, chunks: Some(3), ..Default::default() };
            let cfg = small_cutoff(cfg);
            let (bins, top_shift) = (1u32 << bits, 32 - bits);
            let input: Vec<u32> = (0..40_000u32)
                .map(|i| {
                    let low = rng.random::<u32>();
                    if i % 4 == 0 { low % bins } else { (1 + i % (bins - 1)) << top_shift | low >> bits }
                })
                .collect();
            let passes = passes_for::<u32>(bits);
            let scratch = sorted_scratch(input, &cfg, u32::MAX);
            assert_eq!(
                scratch.last_schedule(),
                Some(Schedule::MsdFirst {
                    top_pass: passes - 1,
                    live_passes: passes,
                    largest_bucket: 10_000,
                    heavy_buckets: 1
                })
            );
            assert_eq!(msd_levels(&scratch, &cfg), 1, "one live pass is never split on");
        }
    }

    #[test]
    fn heavy_bucket_shorter_than_the_chunk_count() {
        // 100 one-byte keys at 2-bit digits and 13 workers: top digit 0
        // holds 40 keys, more than the cutoff and fewer than the 52 chunks
        // the workers ask for; its four buckets of ten fit the kernel.
        let mut rng = SplitMix64::seed_from_u64(54);
        let cfg = RadixSortConfig { radix_bits: 2, chunks: Some(13), sequential_cutoff: 32 };
        let input: Vec<u8> = (0..100u8)
            .map(|i| (if i < 40 { 0 } else { 1 + i % 3 }) << 6 | rng.random::<u8>() >> 2)
            .collect();
        let scratch = sorted_scratch(input, &cfg, u8::MAX);
        let heavy = 40;
        let expect = Schedule::MsdFirst { top_pass: 3, live_passes: 4, largest_bucket: heavy, heavy_buckets: 1 };
        assert_eq!(scratch.last_schedule(), Some(expect));
        assert!(cfg.sequential_cutoff < heavy && heavy < cfg.chunks.expect("pinned") * CHUNKS_PER_WORKER);
        assert_eq!(msd_levels(&scratch, &cfg), 2);
    }

    #[test]
    fn heavy_bucket_pairs_with_zipf_like_heads_stay_stable() {
        // Ranks drawn log-uniformly (rank 1 about one key in fifteen, rank 2
        // one in twenty-six, ...) and scattered over the key space by an odd
        // multiplier: the hot keys' top-digit buckets are heavy and almost
        // all duplicates, payload = input position.
        let mut rng = SplitMix64::seed_from_u64(55);
        let n = 40_000;
        let keys_in: Vec<u32> = (0..n)
            .map(|_| {
                let u = (rng.random::<u64>() >> 11) as f64 / (1u64 << 53) as f64;
                ((n as f64).powf(u) as u32).wrapping_mul(0x9E37_79B1)
            })
            .collect();
        for cfg in all_configs() {
            let cfg = RadixSortConfig { sequential_cutoff: 1024, ..cfg };
            let schedule = stable_pairs_schedule(&keys_in, &cfg);
            if cfg.radix_bits == 11 {
                assert_eq!(schedule, Schedule::Lsd { executed_passes: 3 }, "under {cfg:?}");
            } else {
                assert!(
                    matches!(schedule, Schedule::MsdFirst { heavy_buckets, .. } if heavy_buckets >= 2),
                    "{schedule:?} under {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn heavy_bucket_steady_state_reuses_scratch_without_reallocating() {
        // Two heavy levels above a uniform one: the second of two identical
        // sorts grows nothing, keys alone or pairs.
        let mut rng = SplitMix64::seed_from_u64(56);
        let cfg = RadixSortConfig { chunks: Some(3), sequential_cutoff: 2048, ..Default::default() };
        let input = chain_keys(40_000, 8, 2, 500, u32::MAX, &mut rng);
        let mut scratch: SortScratch<u32, u32> = SortScratch::new();
        for with_vals in [false, true] {
            let mut warm = 0;
            for round in 0..3 {
                let (mut keys, mut vals) = (input.clone(), (0..40_000u32).collect::<Vec<_>>());
                if with_vals {
                    crate::pairs::par_radix_sort_pairs_with_scratch(&mut keys, &mut vals, &cfg, &mut scratch);
                } else {
                    par_radix_sort_with_scratch(&mut keys, &cfg, &mut scratch);
                }
                assert!(keys.windows(2).all(|w| w[0] <= w[1]));
                assert!(matches!(scratch.last_schedule(), Some(Schedule::MsdFirst { heavy_buckets: 1, .. })));
                assert_eq!(msd_levels(&scratch, &cfg), 3);
                if round == 0 {
                    warm = scratch.reallocations();
                } else {
                    assert_eq!(scratch.reallocations(), warm, "heavy-bucket resort reallocated");
                }
            }
        }
    }

    /// The first pass [`predict_first_pass`] guesses for `keys` in the
    /// engine's geometry for `cfg`, and the one the whole input's fold makes
    /// the outermost range count first.
    fn predicted_and_true_first<K: RadixKey>(keys: &[K], cfg: &RadixSortConfig) -> (Option<u32>, u32) {
        let workers = cfg.chunks.expect("tests pin the worker count").clamp(1, keys.len());
        let live = live_passes::<K>(fold_of(keys), cfg.radix_bits);
        (predict_first_pass(keys, Exec::new(keys.len(), workers).geom, cfg), first_pass(live, keys.len(), cfg))
    }

    /// Sized for the gating Miri and TSan steps: 2,000 `u32` keys below
    /// 2^12 (top byte clear) and one, at position 100 — past the sample of
    /// every chunk at 1, 3 and 7 workers — with the top byte set. The
    /// sample predicts pass 2, the fold finds pass 7 live, so the outermost
    /// range counts its top digit on its own and the fold's count is wasted.
    #[test]
    fn fold_miss_on_an_unsampled_top_digit_counts_again() {
        let mut rng = SplitMix64::seed_from_u64(91);
        let mut keys: Vec<u32> = (0..2000).map(|_| rng.random_range(0..1 << 12)).collect();
        keys[100] = 0xF000_0005;
        for chunks in [1, 3, 7] {
            let cfg = RadixSortConfig { radix_bits: 4, chunks: Some(chunks), sequential_cutoff: 256 };
            assert_eq!(predicted_and_true_first(&keys, &cfg), (Some(2), 7), "under {cfg:?}");
            let scratch = sorted_scratch(keys.clone(), &cfg, u32::MAX);
            assert!(
                matches!(scratch.last_schedule(), Some(Schedule::MsdFirst { top_pass: 7, heavy_buckets: 1, .. })),
                "{:?}",
                scratch.last_schedule()
            );
            let phases = scratch.last_phases().expect("an engine sort");
            assert!(phases.first_count.is_some(), "a miss must count again: {phases:?}");
        }
    }

    /// An already-sorted input: a prefix of 4,096 keys sees passes 0 and 1
    /// only and would guess pass 1, but the chunks that start above 2^16
    /// show pass 2, so the fold's count is the one the top permute uses.
    #[test]
    fn sorted_input_is_sampled_in_every_chunk_so_the_fold_carries_the_count() {
        let keys: Vec<u32> = (0..70_000).collect();
        for chunks in [1, 3, 7] {
            let cfg = small_cutoff(RadixSortConfig { chunks: Some(chunks), ..Default::default() });
            let prefix = live_passes::<u32>(fold_of(&keys[..4096]), cfg.radix_bits);
            assert_eq!(first_pass(prefix, keys.len(), &cfg), 1, "a prefix sample would miss");
            assert_eq!(predicted_and_true_first(&keys, &cfg), (Some(2), 2), "under {cfg:?}");
            let scratch = sorted_scratch(keys.clone(), &cfg, u32::MAX);
            assert!(
                matches!(scratch.last_schedule(), Some(Schedule::MsdFirst { top_pass: 2, .. })),
                "{:?}",
                scratch.last_schedule()
            );
            let phases = scratch.last_phases().expect("an engine sort");
            assert_eq!(phases.first_count, None, "the fold carried the count: {phases:?}");
        }
    }

    /// Sized for the gating Miri and TSan steps: 2,000 `(u64, u64)` pairs,
    /// keys below 64 (two live passes at 4-bit digits, ~31 copies of each
    /// key) and one key at position 70, past every sample, with digit 15
    /// set. The sample predicts pass 1, the sort counts pass 15 on its own,
    /// and equal keys still leave in input order.
    #[test]
    fn fold_miss_keeps_pairs_stable() {
        let mut rng = SplitMix64::seed_from_u64(92);
        let mut keys_in: Vec<u64> = (0..2000).map(|_| rng.random_range(0..64)).collect();
        keys_in[70] = 3 << 60 | 9;
        let mut expect: Vec<(u64, u64)> = keys_in.iter().copied().zip(0..).collect();
        expect.sort_by_key(|p| p.0);
        for chunks in [1, 3, 7] {
            let cfg = RadixSortConfig { radix_bits: 4, chunks: Some(chunks), sequential_cutoff: 256 };
            assert_eq!(predicted_and_true_first(&keys_in, &cfg), (Some(1), 15), "under {cfg:?}");
            let (mut keys, mut vals) = (keys_in.clone(), (0..2000).collect::<Vec<u64>>());
            let mut scratch: SortScratch<u64, u64> = SortScratch::new();
            crate::pairs::par_radix_sort_pairs_with_scratch(&mut keys, &mut vals, &cfg, &mut scratch);
            assert_eq!(keys.into_iter().zip(vals).collect::<Vec<_>>(), expect, "under {cfg:?}");
            assert!(
                matches!(scratch.last_schedule(), Some(Schedule::MsdFirst { top_pass: 15, .. })),
                "{:?}",
                scratch.last_schedule()
            );
            let phases = scratch.last_phases().expect("an engine sort");
            assert!(phases.first_count.is_some(), "a miss must count again: {phases:?}");
        }
    }

    #[test]
    fn phases_sum_to_the_sort_wall_time() {
        // Every part of the breakdown on all three paths: MSD-first with a
        // heavy bucket (a quarter of the keys share one value), and LSD.
        // The parts miss only the serial glue between phases, so on a warm
        // scratch they cover all but 5 % of the wall time measured around
        // the call — on the best of five sorts, since a preemption in the
        // glue lands in the residual.
        let mut rng = SplitMix64::seed_from_u64(90);
        let n = 1 << 17;
        let input: Vec<u32> =
            (0..n).map(|i| if i % 4 == 0 { 7 } else { rng.random::<u32>() }).collect();
        let msd = RadixSortConfig { chunks: Some(3), sequential_cutoff: 8192, ..Default::default() };
        let lsd = RadixSortConfig { chunks: Some(3), ..RadixSortConfig::simple() };
        for cfg in [msd, lsd] {
            let mut scratch: SortScratch<u32> = SortScratch::new();
            let mut best = f64::INFINITY;
            for _ in 0..6 {
                let mut v = input.clone();
                let t = Instant::now();
                par_radix_sort_with_scratch(&mut v, &cfg, &mut scratch);
                let wall = t.elapsed();
                let p = scratch.last_phases().expect("an engine sort");
                assert!(p.parts() <= p.total && p.total <= wall, "{p:?} vs {wall:?}");
                assert_eq!(p.first_count, None, "the fold carried the first count: {p:?}");
                match scratch.last_schedule() {
                    Some(Schedule::MsdFirst { heavy_buckets, .. }) => {
                        assert!(heavy_buckets >= 1 && p.buckets > Duration::ZERO && p.deeper > Duration::ZERO);
                    }
                    s => assert_eq!((s, p.buckets, p.deeper), (Some(Schedule::Lsd { executed_passes: 4 }), Duration::ZERO, Duration::ZERO)),
                }
                best = best.min((wall - p.parts()).as_secs_f64() / wall.as_secs_f64());
            }
            assert!(best <= 0.05, "the parts leave {:.1} % of the wall time out under {cfg:?}", best * 100.0);
        }
        let mut small = vec![3u32, 1, 2];
        let mut scratch: SortScratch<u32> = SortScratch::new();
        par_radix_sort_with_scratch(&mut small, &RadixSortConfig::default(), &mut scratch);
        assert_eq!(scratch.last_phases(), None, "the kernel is not the engine");
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
