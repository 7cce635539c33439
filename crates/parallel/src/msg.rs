//! In-process message-passing runtime and a radix sort written against it.
//!
//! A small "mini-MPI" over OS threads: ranks communicate through per-pair
//! channels (send/recv, allgather, alltoallv) and synchronize with
//! barriers. This is the message-passing programming model of the paper on
//! a shared-memory host — useful both as a runtime for SPMD-style code and
//! as the substrate for [`radix_sort_msg`], which follows the paper's MPI
//! radix sort: Allgather the histograms, permute locally into contiguous
//! chunks, send every contiguously-destined chunk to its owner.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};

use crate::key::RadixKey;
use crate::seq::passes_for;

/// A rank's endpoint in an SPMD communicator of `size` ranks.
pub struct Comm<M: Send> {
    rank: usize,
    size: usize,
    /// `out[dst]`: channel into rank `dst`'s inbox from this rank.
    out: Vec<Sender<M>>,
    /// `inbox[src]`: this rank's inbox from rank `src`.
    inbox: Vec<Receiver<M>>,
    barrier: Arc<Barrier>,
}

impl<M: Send> Comm<M> {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send a message to `dst` (buffered, never blocks).
    pub fn send(&self, dst: usize, msg: M) {
        self.out[dst].send(msg).expect("receiver hung up");
    }

    /// Receive the next message from `src` (blocks until it arrives).
    pub fn recv(&self, src: usize) -> M {
        self.inbox[src].recv().expect("sender hung up")
    }

    /// Block until every rank has reached the barrier.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Gather one message from every rank (including a self-copy):
    /// `allgather(m)[j]` is rank `j`'s contribution.
    pub fn allgather(&self, mine: M) -> Vec<M>
    where
        M: Clone,
    {
        for dst in 0..self.size {
            if dst != self.rank {
                self.send(dst, mine.clone());
            }
        }
        (0..self.size)
            .map(|src| if src == self.rank { mine.clone() } else { self.recv(src) })
            .collect()
    }

    /// Personalized all-to-all: element `j` of `outbound` goes to rank `j`;
    /// the result's element `i` came from rank `i`.
    pub fn alltoallv(&self, mut outbound: Vec<M>) -> Vec<M> {
        assert_eq!(outbound.len(), self.size);
        // Send in rank order starting after self to spread load.
        let mut keep: Option<M> = None;
        for (dst, msg) in outbound.drain(..).enumerate() {
            if dst == self.rank {
                keep = Some(msg);
            } else {
                self.send(dst, msg);
            }
        }
        (0..self.size)
            .map(|src| if src == self.rank { keep.take().expect("self message") } else { self.recv(src) })
            .collect()
    }
}

/// Run `f` as an SPMD program over `size` ranks (one OS thread each) and
/// return each rank's result, in rank order.
pub fn spawn_spmd<M, R, F>(size: usize, f: F) -> Vec<R>
where
    M: Send,
    R: Send,
    F: Fn(Comm<M>) -> R + Sync,
{
    assert!(size >= 1);
    // channel[src][dst]
    let mut senders: Vec<Vec<Option<Sender<M>>>> = (0..size).map(|_| Vec::new()).collect();
    let mut inboxes: Vec<Vec<Option<Receiver<M>>>> =
        (0..size).map(|_| (0..size).map(|_| None).collect()).collect();
    for src in 0..size {
        for (dst, inbox) in inboxes.iter_mut().enumerate() {
            let (tx, rx) = channel();
            senders[src].push(Some(tx));
            inbox[src] = Some(rx);
            let _ = dst;
        }
    }
    let barrier = Arc::new(Barrier::new(size));

    let comms: Vec<Comm<M>> = senders
        .into_iter()
        .zip(inboxes)
        .enumerate()
        .map(|(rank, (out, inbox))| Comm {
            rank,
            size,
            out: out.into_iter().map(Option::unwrap).collect(),
            inbox: inbox.into_iter().map(Option::unwrap).collect(),
            barrier: Arc::clone(&barrier),
        })
        .collect();

    std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let f = &f;
                s.spawn(move || f(comm))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
    })
}

/// A chunk of keys with its destination offset in the receiver's partition
/// coordinate space.
#[derive(Debug, Clone)]
pub struct PlacedChunk<K> {
    /// Global element offset of this chunk in the (conceptual) output array.
    pub global_off: usize,
    pub keys: Vec<K>,
}

/// Message type of the message-passing radix sort: one bundle of placed
/// chunks per (source, destination) pair per pass.
type RadixMsg<K> = Vec<PlacedChunk<K>>;

/// Internal: messages exchanged by `radix_sort_msg` — either a histogram
/// (phase 2) or a chunk bundle (phase 3).
#[derive(Clone)]
enum MsgKind<K: Clone> {
    Hist(Vec<usize>),
    Chunks(RadixMsg<K>),
}

/// Sort `keys` with the paper's MPI radix-sort algorithm over `p` in-process
/// ranks. Intended as a faithful message-passing implementation rather than
/// the fastest shared-memory sort (use [`crate::par_radix_sort`] for that).
pub fn radix_sort_msg<K: RadixKey + Default>(keys: &mut [K], p: usize, radix_bits: u32) {
    let n = keys.len();
    if n == 0 || p <= 1 {
        crate::seq::radix_sort(keys, radix_bits.clamp(1, 16));
        return;
    }
    let p = p.min(n);
    assert!((1..=16).contains(&radix_bits));
    let bins = 1usize << radix_bits;
    let mask = (bins - 1) as u64;
    let passes = passes_for::<K>(radix_bits);
    let part_start = |i: usize| i * n / p;

    // Each rank starts with its partition.
    let parts: Vec<Vec<K>> = (0..p).map(|i| keys[part_start(i)..part_start(i + 1)].to_vec()).collect();
    let parts = std::sync::Mutex::new(parts.into_iter().map(Some).collect::<Vec<_>>());

    let results: Vec<(usize, Vec<K>)> = spawn_spmd::<MsgKind<K>, _, _>(p, |comm| {
        let me = comm.rank();
        let my_base = part_start(me);
        let mut mine: Vec<K> = parts.lock().unwrap()[me].take().expect("partition taken once");

        for pass in 0..passes {
            let shift = pass * radix_bits;
            // Phase 1: local histogram.
            let mut hist = vec![0usize; bins];
            for k in &mine {
                hist[k.digit(shift, mask)] += 1;
            }
            // Phase 2: allgather histograms; compute global ranks locally.
            let all_hists: Vec<Vec<usize>> = comm
                .allgather(MsgKind::Hist(hist.clone()))
                .into_iter()
                .map(|m| match m {
                    MsgKind::Hist(h) => h,
                    _ => unreachable!("protocol: histogram phase"),
                })
                .collect();
            let mut offsets = vec![vec![0usize; bins]; p];
            {
                let mut acc = 0usize;
                for d in 0..bins {
                    for (i, h) in all_hists.iter().enumerate() {
                        offsets[i][d] = acc;
                        acc += h[d];
                    }
                }
            }

            // Phase 3: local permutation into digit-contiguous chunks.
            let mut staged = vec![K::default(); mine.len()];
            let mut cursors = {
                let mut scan = vec![0usize; bins];
                let mut acc = 0;
                for d in 0..bins {
                    scan[d] = acc;
                    acc += all_hists[me][d];
                }
                scan
            };
            let lscan = cursors.clone();
            for &k in &mine {
                let d = k.digit(shift, mask);
                staged[cursors[d]] = k;
                cursors[d] += 1;
            }

            // One bundle of contiguously-destined chunk pieces per owner.
            let mut bundles: Vec<RadixMsg<K>> = (0..p).map(|_| Vec::new()).collect();
            for d in 0..bins {
                let len = all_hists[me][d];
                if len == 0 {
                    continue;
                }
                let goff = offsets[me][d];
                let chunk = &staged[lscan[d]..lscan[d] + len];
                let mut start = goff;
                while start < goff + len {
                    // Owner of global index `start` under i*n/p partitioning.
                    let mut owner = (start * p) / n;
                    while owner + 1 < p && part_start(owner + 1) <= start {
                        owner += 1;
                    }
                    while part_start(owner) > start {
                        owner -= 1;
                    }
                    let end = (goff + len).min(part_start(owner + 1));
                    bundles[owner].push(PlacedChunk {
                        global_off: start,
                        keys: chunk[start - goff..end - goff].to_vec(),
                    });
                    start = end;
                }
            }
            let inbound = comm.alltoallv(bundles.into_iter().map(MsgKind::Chunks).collect());

            // Place received chunks into the partition for the next pass.
            let my_len = part_start(me + 1) - my_base;
            let mut next = vec![K::default(); my_len];
            for msg in inbound {
                let chunks = match msg {
                    MsgKind::Chunks(c) => c,
                    _ => unreachable!("protocol: chunk phase"),
                };
                for c in chunks {
                    let off = c.global_off - my_base;
                    next[off..off + c.keys.len()].copy_from_slice(&c.keys);
                }
            }
            mine = next;
        }
        (me, mine)
    });

    // Reassemble in rank order.
    for (rank, part) in results {
        let base = part_start(rank);
        keys[base..base + part.len()].copy_from_slice(&part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsort_rng::SplitMix64;

    #[test]
    fn spmd_barrier_and_allgather() {
        let results = spawn_spmd::<Vec<usize>, _, _>(4, |comm| {
            comm.barrier();
            let gathered = comm.allgather(vec![comm.rank() * 10]);
            comm.barrier();
            gathered
        });
        for r in &results {
            assert_eq!(*r, vec![vec![0], vec![10], vec![20], vec![30]]);
        }
    }

    #[test]
    fn alltoallv_routes_correctly() {
        let results = spawn_spmd::<(usize, usize), _, _>(3, |comm| {
            let outbound: Vec<(usize, usize)> = (0..3).map(|dst| (comm.rank(), dst)).collect();
            comm.alltoallv(outbound)
        });
        for (me, inbound) in results.iter().enumerate() {
            for (src, msg) in inbound.iter().enumerate() {
                assert_eq!(*msg, (src, me));
            }
        }
    }

    #[test]
    fn send_recv_preserve_pairwise_order() {
        let results = spawn_spmd::<u32, _, _>(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100 {
                    comm.send(1, i);
                }
                Vec::new()
            } else {
                (0..100).map(|_| comm.recv(0)).collect::<Vec<u32>>()
            }
        });
        assert_eq!(results[1], (0..100).collect::<Vec<u32>>());
    }

    fn check_msg_sort(n: usize, p: usize, r: u32, seed: u64) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut v: Vec<u32> = (0..n).map(|_| rng.random()).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort_msg(&mut v, p, r);
        assert_eq!(v, expect, "n={n} p={p} r={r}");
    }

    #[test]
    fn msg_radix_sorts() {
        check_msg_sort(50_000, 4, 8, 1);
        check_msg_sort(10_000, 7, 8, 2);
        check_msg_sort(10_000, 3, 11, 3);
        check_msg_sort(100, 4, 8, 4);
        check_msg_sort(8, 8, 8, 5);
    }

    #[test]
    fn msg_radix_handles_degenerate() {
        let mut empty: Vec<u32> = vec![];
        radix_sort_msg(&mut empty, 4, 8);
        let mut one = vec![1u32];
        radix_sort_msg(&mut one, 4, 8);
        assert_eq!(one, vec![1]);
        let mut same = vec![9u32; 5000];
        radix_sort_msg(&mut same, 4, 8);
        assert!(same.iter().all(|&x| x == 9));
    }

    #[test]
    fn msg_radix_sorts_signed() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let mut v: Vec<i32> = (0..20_000).map(|_| rng.random()).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort_msg(&mut v, 5, 8);
        assert_eq!(v, expect);
    }
}

/// Internal message type of [`sample_sort_msg`].
#[derive(Clone)]
enum SampleMsg<K: Clone> {
    Samples(Vec<K>),
    Counts(Vec<usize>),
    Keys(Vec<K>),
}

/// Sort `keys` with the paper's MPI sample-sort algorithm over `p`
/// in-process ranks: local radix sort, allgather of 128 regular samples per
/// rank, redundant splitter selection, a one-message-per-pair all-to-all of
/// splitter buckets, and a final local sort of the received keys.
pub fn sample_sort_msg<K: RadixKey + Default>(keys: &mut [K], p: usize, radix_bits: u32) {
    let n = keys.len();
    if n == 0 || p <= 1 {
        crate::seq::radix_sort(keys, radix_bits.clamp(1, 16));
        return;
    }
    let p = p.min(n);
    let s = 128usize.min(n / p).max(1);
    let part_start = |i: usize| i * n / p;

    let parts: Vec<Vec<K>> = (0..p).map(|i| keys[part_start(i)..part_start(i + 1)].to_vec()).collect();
    let parts = std::sync::Mutex::new(parts.into_iter().map(Some).collect::<Vec<_>>());

    let mut results: Vec<(usize, Vec<K>)> = spawn_spmd::<SampleMsg<K>, _, _>(p, |comm| {
        let me = comm.rank();
        let mut mine: Vec<K> = parts.lock().unwrap()[me].take().expect("partition taken once");
        // Phase 1: local sort.
        crate::seq::radix_sort(&mut mine, radix_bits);
        // Phase 2+3: allgather regular samples; everyone picks splitters.
        let samples: Vec<K> = (0..s).map(|k| mine[k * mine.len() / s]).collect();
        let mut all: Vec<K> = comm
            .allgather(SampleMsg::Samples(samples))
            .into_iter()
            .flat_map(|m| match m {
                SampleMsg::Samples(v) => v,
                _ => unreachable!("protocol: sample phase"),
            })
            .collect();
        all.sort_unstable();
        let splitters: Vec<K> = (1..p).map(|k| all[k * all.len() / p]).collect();

        // Phase 4: bucket boundaries (ties spread across tied buckets) and
        // the two all-to-alls: counts, then keys.
        let mut bounds = vec![0usize; p + 1];
        bounds[p] = mine.len();
        let mut j = 0usize;
        while j < splitters.len() {
            let v = &splitters[j];
            let mut jl = j;
            while jl + 1 < splitters.len() && splitters[jl + 1] == *v {
                jl += 1;
            }
            if jl == j {
                bounds[j + 1] = mine.partition_point(|x| x < v);
                j += 1;
                continue;
            }
            let lower = mine.partition_point(|x| x < v);
            let upper = mine.partition_point(|x| x <= v);
            let run = upper - lower;
            let slots = jl - j + 2;
            for (k, cut) in (j + 1..=jl + 1).enumerate() {
                bounds[cut] = lower + (k + 1) * run / slots;
            }
            j = jl + 1;
        }
        let counts: Vec<usize> = (0..p).map(|b| bounds[b + 1] - bounds[b]).collect();
        let all_counts = comm.alltoallv(
            (0..p).map(|_| SampleMsg::Counts(counts.clone())).collect::<Vec<_>>(),
        );
        let expected: Vec<usize> = all_counts
            .into_iter()
            .map(|m| match m {
                SampleMsg::Counts(c) => c[me],
                _ => unreachable!("protocol: count phase"),
            })
            .collect();
        let inbound = comm.alltoallv(
            (0..p)
                .map(|b| SampleMsg::Keys(mine[bounds[b]..bounds[b + 1]].to_vec()))
                .collect::<Vec<_>>(),
        );
        // Phase 5: local sort of the received region (the count exchange
        // cross-checks the key exchange, as the real program's receive
        // sizes would).
        let mut region: Vec<K> = Vec::with_capacity(expected.iter().sum());
        for (src, m) in inbound.into_iter().enumerate() {
            match m {
                SampleMsg::Keys(v) => {
                    assert_eq!(v.len(), expected[src], "count/key exchange mismatch from rank {src}");
                    region.extend(v);
                }
                _ => unreachable!("protocol: key phase"),
            }
        }
        crate::seq::radix_sort(&mut region, radix_bits);
        (me, region)
    });

    // Regions concatenated in rank order are the sorted output.
    results.sort_by_key(|(rank, _)| *rank);
    let mut off = 0;
    for (_, region) in results {
        keys[off..off + region.len()].copy_from_slice(&region);
        off += region.len();
    }
    assert_eq!(off, n);
}

#[cfg(test)]
mod sample_tests {
    use super::*;
    use ccsort_rng::SplitMix64;

    fn check(n: usize, p: usize, seed: u64) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut v: Vec<u32> = (0..n).map(|_| rng.random()).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        sample_sort_msg(&mut v, p, 11);
        assert_eq!(v, expect, "n={n} p={p}");
    }

    #[test]
    fn sample_sort_msg_sorts() {
        check(50_000, 4, 1);
        check(10_000, 7, 2);
        check(999, 3, 3);
    }

    #[test]
    fn sample_sort_msg_heavy_duplicates() {
        let mut rng = SplitMix64::seed_from_u64(4);
        let mut v: Vec<u32> = (0..20_000).map(|_| if rng.random_range(0..10u32) < 3 { 0 } else { rng.random() }).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        sample_sort_msg(&mut v, 6, 8);
        assert_eq!(v, expect);
    }

    #[test]
    fn sample_sort_msg_matches_radix_msg() {
        let mut rng = SplitMix64::seed_from_u64(5);
        let v: Vec<i32> = (0..30_000).map(|_| rng.random()).collect();
        let mut a = v.clone();
        let mut b = v;
        sample_sort_msg(&mut a, 5, 8);
        radix_sort_msg(&mut b, 5, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn sample_sort_msg_degenerate() {
        let mut empty: Vec<u32> = vec![];
        sample_sort_msg(&mut empty, 4, 8);
        let mut tiny = vec![2u32, 1];
        sample_sort_msg(&mut tiny, 8, 8);
        assert_eq!(tiny, vec![1, 2]);
    }
}

/// Collective operations beyond allgather/alltoallv, provided for SPMD
/// programs written against [`Comm`].
impl<M: Send> Comm<M> {
    /// Broadcast from `root`: the root's `msg` is delivered to every rank
    /// (including back to the root). Implemented as a binomial tree, the
    /// standard O(log p) algorithm.
    pub fn broadcast(&self, root: usize, msg: Option<M>) -> M
    where
        M: Clone,
    {
        // Re-index ranks so the root is rank 0 of the tree.
        let vrank = (self.rank + self.size - root) % self.size;
        let unvrank = |v: usize| (v + root) % self.size;
        let mut have: Option<M> = if vrank == 0 {
            Some(msg.expect("root must supply the message"))
        } else {
            None
        };
        // Round k: ranks < 2^k that hold the message send to rank + 2^k.
        let mut step = 1usize;
        while step < self.size {
            if vrank < step && vrank + step < self.size {
                self.send(unvrank(vrank + step), have.clone().expect("holder has msg"));
            } else if vrank >= step && vrank < 2 * step {
                have = Some(self.recv(unvrank(vrank - step)));
            }
            step *= 2;
        }
        have.expect("every rank holds the message after log2(p) rounds")
    }

    /// Reduce-to-all: combine every rank's contribution with `op` (which
    /// must be associative and commutative) and return the result on every
    /// rank. Implemented as allgather + local fold — simple and correct;
    /// the recursive-doubling version is unnecessary at in-process scale.
    pub fn allreduce<F>(&self, mine: M, op: F) -> M
    where
        M: Clone,
        F: Fn(M, M) -> M,
    {
        let mut all = self.allgather(mine);
        let first = all.remove(0);
        all.into_iter().fold(first, op)
    }
}

#[cfg(test)]
mod collective_tests {
    use super::*;

    #[test]
    fn broadcast_from_every_root() {
        for root in 0..5 {
            let results = spawn_spmd::<String, _, _>(5, |comm| {
                let msg = if comm.rank() == root { Some(format!("from {root}")) } else { None };
                comm.broadcast(root, msg)
            });
            assert!(results.iter().all(|r| *r == format!("from {root}")), "root {root}");
        }
    }

    #[test]
    fn broadcast_single_rank() {
        let results = spawn_spmd::<u32, _, _>(1, |comm| comm.broadcast(0, Some(99)));
        assert_eq!(results, vec![99]);
    }

    #[test]
    fn allreduce_sums() {
        let results = spawn_spmd::<u64, _, _>(6, |comm| comm.allreduce(comm.rank() as u64 + 1, |a, b| a + b));
        assert!(results.iter().all(|&r| r == 21));
    }

    #[test]
    fn allreduce_max_vectors() {
        let results = spawn_spmd::<Vec<u32>, _, _>(4, |comm| {
            let mine = vec![comm.rank() as u32, 10 - comm.rank() as u32];
            comm.allreduce(mine, |a, b| a.iter().zip(&b).map(|(&x, &y)| x.max(y)).collect())
        });
        assert!(results.iter().all(|r| *r == vec![3, 10]));
    }
}
