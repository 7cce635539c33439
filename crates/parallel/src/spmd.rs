//! The paper's two parallel programs, each written once, over a three-way
//! transport.
//!
//! Shan & Singh's experiment is *one algorithm, three programming models*
//! (§3): the radix sort and the sample sort stay what they are while the
//! data movement is done by loads and stores into a shared array, by
//! messages, or by one-sided `get`s. [`radix_sort`] and [`sample_sort`]
//! are those two SPMD programs; everything that differs between the models
//! is behind [`Transport`], which has only what both programs need — who
//! am I, an all-gather of small word vectors, and one personalised
//! exchange of key ranges that carries its own synchronisation:
//!
//! | transport | exchange | copies of a key per exchange |
//! |---|---|---|
//! | [`Direct`] | the sender copies each piece straight into the destination array; one barrier | 1 |
//! | [`Message`] | pack per destination → `alltoallv` → unpack | 2 |
//! | [`Symmetric`] | receiver-initiated `get` from the sealed staged region, between two barrier epochs | 1 (+ 1 to publish keys that were not staged) |
//!
//! The radix sort adds its local permute into the staging buffer to each
//! of these, once per pass. The model is the type parameter:
//! `radix_sort::<Direct<_>, _>(keys, p, 8)`.

use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};

use crate::key::RadixKey;
use crate::plan::{
    bucket_sizes, part_range, region_bound, regular_positions, regular_samples, samples_per_part, splitters,
    Layout, Piece, RadixPlan, SAMPLES_PER_PART,
};
pub use crate::{msg::Message, sym::Symmetric};
use crate::seq::{passes_for, radix_sort_with_scratch};
use crate::steal::{abandon, default_workers, run_workers};

/// One rank's endpoint in an SPMD sort of `n` keys over `size` ranks: the
/// rank's keys, a staging buffer of the same length, and the two
/// collectives the sorts are written against.
pub trait Transport<K>: Sized {
    fn rank(&self) -> usize;

    fn size(&self) -> usize;

    /// Every rank's `mine`, in rank order. Collective; all ranks pass the
    /// same length.
    fn allgather(&mut self, mine: &[u64]) -> Vec<Vec<u64>>;

    /// `(keys, stage)`: this rank's keys — its partition `rank * n / size
    /// .. (rank + 1) * n / size` at launch, the region it received after an
    /// exchange — and a staging buffer of the same length.
    fn local(&mut self) -> (&mut [K], &mut [K]);

    /// The personalised exchange, synchronisation included. Rank `r` sends
    /// the pieces `plan(r)` out of its staging buffer (`staged`) or its
    /// keys; afterwards [`Transport::local`] is the `region.len()` keys
    /// that landed in `region` of the output. Collective.
    ///
    /// # Safety
    ///
    /// Every rank passes the same `staged` and a `plan` that computes the
    /// same pieces; the ranks' `region`s tile `0..n` in rank order, no
    /// longer than the capacity given to [`Transport::launch`]; `plan(r)`'s
    /// pieces lie inside `r`'s buffer and inside their receiver's region;
    /// and over all `r` they cover `0..n` exactly once. (The transports
    /// that share memory copy without locks on the strength of this.)
    unsafe fn exchange(
        &mut self,
        staged: bool,
        region: Range<usize>,
        plan: &dyn Fn(usize) -> Vec<Piece>,
    );

    /// Run `program` on `p` ranks (one OS thread each, `1 <= p <=
    /// keys.len()`), every rank starting with its partition of `keys` and
    /// room for `cap` keys, and leave the ranks' final regions,
    /// concatenated in rank order, in `keys`.
    fn launch(keys: &mut [K], p: usize, cap: usize, program: impl Fn(&mut Self) + Sync);
}

/// The paper's parallel radix sort over `p` ranks of transport `T`. Per
/// pass: local histogram, all-gather, global ranks, local permute into the
/// staging buffer (so each digit's keys are contiguous), exchange of the
/// contiguously-destined pieces.
pub fn radix_sort<T: Transport<K>, K: RadixKey + Default>(keys: &mut [K], p: usize, radix_bits: u32) {
    assert!((1..=16).contains(&radix_bits), "radix_bits out of range");
    let n = keys.len();
    if n == 0 {
        return;
    }
    let p = p.clamp(1, n);
    let bins = 1usize << radix_bits;
    let mask = (bins - 1) as u64;
    T::launch(keys, p, n.div_ceil(p), |t| {
        let me = t.rank();
        for pass in 0..passes_for::<K>(radix_bits) {
            let shift = pass * radix_bits;
            let mut hist = vec![0u64; bins];
            for k in t.local().0.iter() {
                hist[k.digit(shift, mask)] += 1;
            }
            let plan = RadixPlan::new(&t.allgather(&hist));
            let (mine, stage) = t.local();
            let mut cursor = vec![0usize; bins];
            for d in 1..bins {
                cursor[d] = cursor[d - 1] + hist[d - 1] as usize;
            }
            for &k in mine.iter() {
                let d = k.digit(shift, mask);
                stage[cursor[d]] = k;
                cursor[d] += 1;
            }
            // SAFETY: the plan's pieces tile 0..n once, each inside its
            // receiver's partition (`RadixPlan::pieces`).
            unsafe { t.exchange(true, plan.region(me), &|src| plan.pieces(src)) };
        }
    });
}

/// The paper's parallel sample sort over `p` ranks of transport `T`: local
/// sort, [`SAMPLES_PER_PART`] regular samples all-gathered, splitters
/// (chosen redundantly on every rank), bucket bounds, exchange, local sort
/// of the received region. No rank receives more than [`region_bound`].
pub fn sample_sort<T: Transport<K>, K: RadixKey + Default>(keys: &mut [K], p: usize, radix_bits: u32) {
    assert!((1..=16).contains(&radix_bits), "radix_bits out of range");
    let n = keys.len();
    if n == 0 {
        return;
    }
    let p = p.clamp(1, n);
    let s = samples_per_part(SAMPLES_PER_PART, n, p);
    let cap = region_bound(n, p, s);
    let positions = regular_positions(n, p, s);
    T::launch(keys, p, cap, |t| {
        let me = t.rank();
        let base = part_range(n, p, me).start;
        let (mine, stage) = t.local();
        radix_sort_with_scratch(mine, stage, radix_bits);
        let samples = regular_samples(mine, s);
        let keys = t.allgather(&samples).concat();
        let splitters = splitters(keys.into_iter().zip(positions.iter().copied()), p);
        let counts = bucket_sizes(t.local().0, base, &splitters);
        let layout = Layout::new(&t.allgather(&counts));
        // Every rank checks every region: they fail together, not one of
        // them with the rest waiting at a barrier.
        let widest = layout.widest();
        assert!(widest <= cap, "a rank of {p} would receive {widest} of {n} keys, bound {cap}");
        // SAFETY: the layout's pieces tile 0..n once, each inside its
        // receiver's region, and no region is wider than the capacity.
        unsafe { t.exchange(false, layout.region(me), &|src| layout.pieces(src)) };
        let (mine, stage) = t.local();
        radix_sort_with_scratch(mine, stage, radix_bits);
    });
}

/// A sort of `(keys, ranks, radix_bits)`.
pub type Sort<K> = fn(&mut [K], usize, u32);

/// Every (program, transport) pair, radix sorts first: what the
/// conformance tests, the audit oracle and `realbench` iterate over.
pub fn programs<K: RadixKey + Default>() -> [(&'static str, Sort<K>); 6] {
    [
        ("radix/direct", radix_sort::<Direct<K>, K>),
        ("radix/message", radix_sort::<Message<K>, K>),
        ("radix/symmetric", radix_sort::<Symmetric<K>, K>),
        ("sample/direct", sample_sort::<Direct<K>, K>),
        ("sample/message", sample_sort::<Message<K>, K>),
        ("sample/symmetric", sample_sort::<Symmetric<K>, K>),
    ]
}

/// Sample sort on the machine's threads, over [`Direct`], with the 11-bit
/// local sorts the paper finds best for it.
pub fn par_sample_sort<K: RadixKey + Default>(keys: &mut [K]) {
    sample_sort::<Direct<_>, _>(keys, default_workers(), 11);
}

/// All-gather through shared memory — a slot per rank — for the two
/// transports whose ranks share an address space. (A SHMEM program would
/// keep the slots in a symmetric integer array; a CC-SAS one, here.)
pub(crate) struct Board(Vec<Mutex<Vec<u64>>>);

impl Board {
    pub(crate) fn new(size: usize) -> Self {
        Board((0..size).map(|_| Mutex::default()).collect())
    }

    /// `barrier` must wait for all `size` ranks.
    pub(crate) fn allgather(&self, rank: usize, mine: &[u64], barrier: impl Fn()) -> Vec<Vec<u64>> {
        *self.0[rank].lock().expect("a rank panicked in all-gather") = mine.to_vec();
        barrier();
        let all =
            self.0.iter().map(|slot| slot.lock().expect("a rank panicked in all-gather").clone()).collect();
        // No rank refills its slot while another still reads it.
        barrier();
        all
    }
}

/// The barrier of the transports whose ranks share memory, which a failing
/// rank breaks rather than leaves waiting: a generation count under a
/// mutex, and a flag that [`Barrier::break_on_unwind`]'s guard raises when
/// its rank unwinds. A rank waiting at a broken barrier, or arriving at one,
/// stops ([`abandon`]), and [`run_workers`] re-raises the failing rank's
/// own panic.
pub(crate) struct Barrier {
    parties: usize,
    state: Mutex<Turn>,
    turn: Condvar,
}

#[derive(Default)]
struct Turn {
    arrived: usize,
    generation: u64,
    broken: bool,
}

impl Barrier {
    pub(crate) fn new(parties: usize) -> Self {
        Barrier { parties, state: Mutex::default(), turn: Condvar::new() }
    }

    /// Wait until all parties have arrived; `true` on the last to arrive.
    pub(crate) fn wait(&self) -> bool {
        let mut turn = self.state.lock().expect("no rank panics holding the barrier");
        let generation = turn.generation;
        if !turn.broken {
            turn.arrived += 1;
            if turn.arrived == self.parties {
                turn.arrived = 0;
                turn.generation += 1;
                self.turn.notify_all();
                return true;
            }
            turn = self
                .turn
                .wait_while(turn, |turn| turn.generation == generation && !turn.broken)
                .expect("no rank panics holding the barrier");
        }
        if turn.generation == generation {
            drop(turn);
            abandon();
        }
        false
    }

    /// A guard that breaks the barrier if it is dropped by a panic: hold
    /// it across a rank's program.
    pub(crate) fn break_on_unwind(&self) -> impl Drop + '_ {
        struct Guard<'a>(&'a Barrier);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.state.lock().expect("no rank panics holding the barrier").broken = true;
                    self.0.turn.notify_all();
                }
            }
        }
        Guard(self)
    }
}

/// Copy the ranks' final regions, in rank order, over `keys`.
pub(crate) fn concat_into<K: Copy>(keys: &mut [K], regions: impl IntoIterator<Item = Vec<K>>) {
    let mut at = 0;
    for region in regions {
        keys[at..at + region.len()].copy_from_slice(&region);
        at += region.len();
    }
    assert_eq!(at, keys.len(), "the regions tile the output");
}

/// The arrays the [`Direct`] ranks share: the caller's keys and a scratch
/// array of the same length, one the source and the other the destination
/// of each exchange. (Raw pointers, not [`crate::SharedSlice`]s: a rank
/// takes the same range of the same array again every other exchange,
/// which `SharedSlice::slice_mut`'s debug overlap map refuses.)
struct Arrays<K> {
    bufs: [*mut K; 2],
    n: usize,
    size: usize,
    board: Board,
    barrier: Barrier,
}

// SAFETY: the pointers are to `n` keys each that outlive every rank
// (`Direct::launch` joins the ranks before either array is touched again),
// and ranks reach through them only for ranges no other rank is using:
// their own region of the current array, and the pieces of the other array
// that `Transport::exchange`'s contract gives them.
unsafe impl<K: Send> Send for Arrays<K> {}
unsafe impl<K: Send> Sync for Arrays<K> {}

/// The shared-address-space transport (the paper's CC-SAS-NEW): keys live
/// in one shared array, and in an exchange the sender copies each piece
/// straight into its place in a second one. The only synchronisation is
/// the barrier that ends the exchange, after which the arrays trade roles.
pub struct Direct<K> {
    rank: usize,
    shared: Arc<Arrays<K>>,
    /// Which of the two arrays holds the keys now.
    cur: usize,
    region: Range<usize>,
    stage: Vec<K>,
}

impl<K: RadixKey + Default> Transport<K> for Direct<K> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn allgather(&mut self, mine: &[u64]) -> Vec<Vec<u64>> {
        self.shared.board.allgather(self.rank, mine, || {
            self.shared.barrier.wait();
        })
    }

    fn local(&mut self) -> (&mut [K], &mut [K]) {
        let len = self.region.len();
        // SAFETY: `region` is inside `0..n` (checked when it was set), and
        // between two exchange barriers a rank's region of the current
        // array is touched by that rank only: pieces are written to the
        // other array.
        let mine = unsafe {
            std::slice::from_raw_parts_mut(self.shared.bufs[self.cur].add(self.region.start), len)
        };
        (mine, &mut self.stage[..len])
    }

    unsafe fn exchange(&mut self, staged: bool, region: Range<usize>, plan: &dyn Fn(usize) -> Vec<Piece>) {
        let (rank, n) = (self.rank, self.shared.n);
        assert!(region.start <= region.end && region.end <= n && region.len() <= self.stage.len());
        let dst = self.shared.bufs[1 - self.cur];
        let (mine, stage) = self.local();
        let src: &[K] = if staged { stage } else { mine };
        for piece in plan(rank) {
            let run = &src[piece.src_off..piece.src_off + piece.len];
            assert!(piece.dst_at + piece.len <= n, "piece past the end of the output");
            // SAFETY: in bounds by the assertion; the caller guarantees that
            // no two pieces of this exchange overlap, and nobody reads the
            // destination array before the barrier below.
            unsafe { std::ptr::copy_nonoverlapping(run.as_ptr(), dst.add(piece.dst_at), piece.len) };
        }
        // Every piece has landed, and every rank is done reading the array
        // that the next exchange overwrites.
        self.shared.barrier.wait();
        self.cur = 1 - self.cur;
        self.region = region;
    }

    fn launch(keys: &mut [K], p: usize, cap: usize, program: impl Fn(&mut Self) + Sync) {
        let n = keys.len();
        let mut scratch = vec![K::default(); n];
        let shared = Arc::new(Arrays {
            bufs: [keys.as_mut_ptr(), scratch.as_mut_ptr()],
            n,
            size: p,
            board: Board::new(p),
            barrier: Barrier::new(p),
        });
        run_workers(p, |rank| {
            let _break = shared.barrier.break_on_unwind();
            let mut t = Direct {
                rank,
                shared: Arc::clone(&shared),
                cur: 0,
                region: part_range(n, p, rank),
                stage: vec![K::default(); cap],
            };
            program(&mut t);
            if t.cur == 1 {
                let region = t.region.clone();
                let mine = t.local().0;
                // SAFETY: the regions tile 0..n, and no rank has read the
                // caller's array since the barrier that moved the keys out
                // of it.
                unsafe {
                    std::ptr::copy_nonoverlapping(mine.as_ptr(), shared.bufs[0].add(region.start), mine.len())
                };
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsort_rng::SplitMix64;

    /// All six programs on one input: each equals `sort_unstable`, hence
    /// each other. (Sample sort also asserts its region bound inside.)
    fn conforms<K: RadixKey + Default + std::fmt::Debug>(what: &str, input: &[K], p: usize, r: u32) {
        let mut expect = input.to_vec();
        expect.sort_unstable();
        for (name, sort) in programs::<K>() {
            let mut got = input.to_vec();
            sort(&mut got, p, r);
            assert!(got == expect, "{name} on {what}: n={} p={p} r={r}", input.len());
        }
    }

    /// The inputs of the conformance and the balance tables.
    fn shapes(n: usize, rng: &mut SplitMix64) -> Vec<(&'static str, Vec<u32>)> {
        vec![
            ("uniform", (0..n).map(|_| rng.random()).collect()),
            ("all-equal", vec![7; n]),
            ("two-values", (0..n).map(|_| rng.random_range(0..2u32)).collect()),
            ("sixteen-values", (0..n).map(|_| rng.random_range(0..16u32) << 27).collect()),
            (
                "30% zeros",
                (0..n).map(|_| if rng.random_range(0..10u32) < 3 { 0 } else { rng.random() }).collect(),
            ),
            (
                "one value at 40%",
                (0..n).map(|_| if rng.random_range(0..10u32) < 4 { 1 << 20 } else { rng.random() }).collect(),
            ),
            ("sorted", (0..n as u32).collect()),
        ]
    }

    #[test]
    fn conformance_table() {
        let mut rng = SplitMix64::seed_from_u64(22);
        for p in [1, 2, 3, 5, 7, 8, 63] {
            for r in [5, 8, 11] {
                // 63 ranks gather p²·2^r words a pass whatever n is: two
                // shapes there.
                let few = p == 63;
                for (what, input) in shapes(3001, &mut rng).into_iter().take(if few { 2 } else { 7 }) {
                    conforms(what, &input, p, r);
                }
                if few {
                    continue;
                }
                let signed: Vec<i32> = (0..2000).map(|_| rng.random()).collect();
                conforms("signed", &signed, p, r);
                // Tiny inputs, and more ranks than keys.
                for n in [0, 1, 2, 8, 100] {
                    let tiny: Vec<u32> = (0..n).map(|_| rng.random()).collect();
                    conforms("tiny", &tiny, p, r);
                }
            }
        }
        let wide: Vec<u64> = (0..20_000).map(|_| rng.random()).collect();
        conforms("u64", &wide, 4, 8);
        conforms("u64", &wide, 3, 11);
    }

    /// The sizes of the regions sample sort's rules give `p` ranks on
    /// `input`, computed rank by rank without a transport.
    fn region_sizes(input: &[u32], p: usize) -> Vec<usize> {
        let n = input.len();
        let s = samples_per_part(SAMPLES_PER_PART, n, p);
        let parts: Vec<(usize, Vec<u32>)> = (0..p)
            .map(|i| {
                let range = part_range(n, p, i);
                let mut part = input[range.clone()].to_vec();
                part.sort_unstable();
                (range.start, part)
            })
            .collect();
        let keys: Vec<u64> = parts.iter().flat_map(|(_, part)| regular_samples(part, s)).collect();
        let splitters = splitters(keys.into_iter().zip(regular_positions(n, p, s)), p);
        let counts: Vec<Vec<u64>> = parts.iter().map(|(base, part)| bucket_sizes(part, *base, &splitters)).collect();
        let layout = Layout::new(&counts);
        (0..p).map(|j| layout.region(j).len()).collect()
    }

    #[test]
    fn no_rank_receives_more_than_the_regular_sampling_bound() {
        let mut rng = SplitMix64::seed_from_u64(3);
        for p in [2, 3, 7, 8] {
            for n in [40_000, 4001, 1000, 97] {
                for (what, input) in shapes(n, &mut rng) {
                    let sizes = region_sizes(&input, p);
                    assert_eq!(sizes.iter().sum::<usize>(), n);
                    let s = samples_per_part(SAMPLES_PER_PART, n, p);
                    let bound = region_bound(n, p, s);
                    assert!(bound <= n.div_ceil(p) + n.div_ceil(s) + s + p, "the bound is n/p + n/s and change");
                    assert!(
                        sizes.iter().all(|&len| len <= bound),
                        "{what} n={n} p={p}: regions {sizes:?}, bound {bound}"
                    );
                    // The same inputs through the transports, whose
                    // capacity is the bound.
                    if n == 4001 {
                        conforms(what, &input, p, 11);
                    }
                }
            }
        }
    }

    /// Small enough for Miri: eight keys over three ranks, so a digit's run
    /// straddles the partitions 0..2..5..8 and is cut there, in one pass and
    /// in two.
    #[test]
    fn six_programs_small_n_under_miri() {
        conforms("one digit value", &[4u8; 8], 3, 8);
        conforms("two digit values", &[9u8, 1, 9, 1, 9, 1, 9, 1], 3, 4);
    }

    #[test]
    fn par_sample_sort_sorts() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let mut v: Vec<u64> = (0..200_000).map(|_| rng.random()).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        par_sample_sort(&mut v);
        assert_eq!(v, expect);
        par_sample_sort::<u32>(&mut []);
    }

    /// A `u32` key whose digit at bit `SHIFT` panics on [`MARKER`], so the
    /// rank that holds it fails in that pass (or in its first local sort,
    /// which counts every digit).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
    struct Fragile<const SHIFT: u32>(u32);

    const MARKER: u32 = 0xdead_beef;

    impl<const SHIFT: u32> RadixKey for Fragile<SHIFT> {
        const BITS: u32 = 32;

        fn to_bits(self) -> u64 {
            u64::from(self.0)
        }

        fn digit(self, shift: u32, mask: u64) -> usize {
            assert!(self.0 != MARKER || shift != SHIFT, "the marker key failed its rank");
            ((self.to_bits() >> shift) & mask) as usize
        }
    }

    /// The panic message of `f`, run on a thread of its own; a failed
    /// assertion if `f` returns, or has not finished within `bound`.
    fn panic_within(bound: std::time::Duration, f: impl FnOnce() + Send + 'static) -> String {
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err();
            let message = panic.map(|p| match p.downcast::<String>() {
                Ok(message) => *message,
                Err(p) => p.downcast::<&str>().map_or("a panic with no message".into(), |m| m.to_string()),
            });
            let _ = done.send(message);
        });
        match outcome.recv_timeout(bound) {
            Ok(Some(message)) => message,
            Ok(None) => panic!("the sort returned although a rank failed"),
            Err(_) => panic!("a rank failed and the sort has not finished after {bound:?}"),
        }
    }

    /// Every program on four ranks, the marker in rank 2's partition: the
    /// failing rank's own panic reaches the caller, on every transport.
    fn a_failing_rank_stops_every_program<const SHIFT: u32>() {
        for (name, sort) in programs::<Fragile<SHIFT>>() {
            let message = panic_within(std::time::Duration::from_secs(10), move || {
                let mut keys: Vec<Fragile<SHIFT>> =
                    (0..400u32).map(|i| Fragile(i.wrapping_mul(2_654_435_761) >> 1)).collect();
                keys[250] = Fragile(MARKER);
                sort(&mut keys, 4, 8);
            });
            assert!(message.contains("the marker key failed its rank"), "{name}: {message}");
        }
    }

    #[test]
    fn a_rank_failing_in_the_first_pass_stops_every_program() {
        a_failing_rank_stops_every_program::<0>();
    }

    /// Radix sort's last pass comes after three exchanges; sample sort's
    /// first local sort counts every digit, so it fails there again.
    #[test]
    fn a_rank_failing_in_the_last_pass_stops_every_program() {
        a_failing_rank_stops_every_program::<24>();
    }

    #[test]
    fn a_broken_barrier_releases_its_waiters() {
        let message = panic_within(std::time::Duration::from_secs(10), || {
            let barrier = Barrier::new(3);
            let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_workers(3, |rank| {
                    let _break = barrier.break_on_unwind();
                    barrier.wait();
                    assert!(rank != 1, "rank 1 failed");
                    barrier.wait();
                })
            }));
            // A broken barrier stays broken: a late arrival stops at once.
            assert!(std::panic::catch_unwind(|| barrier.wait()).is_err());
            std::panic::resume_unwind(failed.expect_err("rank 1 panicked"));
        });
        assert_eq!(message, "rank 1 failed");
    }

    #[test]
    fn a_barrier_reports_one_leader_per_generation() {
        let barrier = Barrier::new(4);
        let leaders = run_workers(4, |_| (0..50).filter(|_| barrier.wait()).count());
        assert_eq!(leaders.iter().sum::<usize>(), 50);
    }
}
