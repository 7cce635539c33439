//! In-process message-passing runtime, and the message transport of the
//! SPMD sorts.
//!
//! A small "mini-MPI" over OS threads: ranks communicate through per-pair
//! channels (send/recv, allgather, alltoallv) and synchronize with
//! barriers. This is the message-passing programming model of the paper on
//! a shared-memory host — useful both as a runtime for SPMD-style code and
//! as the substrate of [`Message`], through which [`crate::spmd`]'s radix
//! and sample sorts run as the paper's MPI programs.

use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};

use crate::key::RadixKey;
use crate::spmd::{concat_into, Piece, Transport};

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

/// What ranks send each other in a sort: header words and keys. The
/// all-gather sends words only; an exchange sends one packet per
/// destination, `(dst_at, len)` per piece and the pieces' keys in order.
#[derive(Clone, Default)]
pub struct Packet<K> {
    words: Vec<u64>,
    keys: Vec<K>,
}

/// The message-passing transport of [`crate::spmd`]: each rank owns its
/// keys, and an exchange is the paper's staged message — pack the pieces
/// per destination, one [`Comm::alltoallv`], unpack into place.
pub struct Message<K: Send> {
    comm: Comm<Packet<K>>,
    keys: Vec<K>,
    stage: Vec<K>,
}

impl<K: RadixKey + Default> Transport<K> for Message<K> {
    fn rank(&self) -> usize {
        self.comm.rank()
    }

    fn size(&self) -> usize {
        self.comm.size()
    }

    fn allgather(&mut self, mine: &[u64]) -> Vec<Vec<u64>> {
        let all = self.comm.allgather(Packet { words: mine.to_vec(), keys: Vec::new() });
        all.into_iter().map(|packet| packet.words).collect()
    }

    fn local(&mut self) -> (&mut [K], &mut [K]) {
        let len = self.keys.len();
        (&mut self.keys, &mut self.stage[..len])
    }

    unsafe fn exchange(&mut self, staged: bool, region: Range<usize>, plan: &dyn Fn(usize) -> Vec<Piece>) {
        let src = if staged { &self.stage } else { &self.keys };
        let mut outbound = vec![Packet::default(); self.size()];
        for piece in plan(self.rank()) {
            let packet = &mut outbound[piece.dst];
            packet.words.extend([piece.dst_at as u64, piece.len as u64]);
            packet.keys.extend_from_slice(&src[piece.src_off..piece.src_off + piece.len]);
        }
        let inbound = self.comm.alltoallv(outbound);
        self.keys.clear();
        self.keys.resize(region.len(), K::default());
        for packet in inbound {
            let mut taken = 0;
            for piece in packet.words.chunks_exact(2) {
                let (at, len) = (piece[0] as usize - region.start, piece[1] as usize);
                self.keys[at..at + len].copy_from_slice(&packet.keys[taken..taken + len]);
                taken += len;
            }
        }
    }

    fn launch(keys: &mut [K], p: usize, cap: usize, program: impl Fn(&mut Self) + Sync) {
        let n = keys.len();
        let input = &*keys;
        let regions = spawn_spmd(p, |comm| {
            let part = comm.rank() * n / p..(comm.rank() + 1) * n / p;
            let mut t = Message { comm, keys: input[part].to_vec(), stage: vec![K::default(); cap] };
            program(&mut t);
            t.keys
        });
        concat_into(keys, regions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
