//! The message transport of the SPMD sorts, over an in-process
//! message-passing runtime.
//!
//! A small "mini-MPI" over OS threads: ranks communicate through per-pair
//! FIFO channels, and the two collectives [`Message`] needs — allgather and
//! alltoallv — are built on them. Through [`Message`], [`crate::spmd`]'s
//! radix and sample sorts run as the paper's MPI programs.

use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

use crate::key::RadixKey;
use crate::plan::{part_range, Piece};
use crate::spmd::{concat_into, Transport};
use crate::steal::{abandon, run_workers};

/// A rank's endpoint in an SPMD communicator of `size` ranks.
struct Comm<M: Send> {
    rank: usize,
    size: usize,
    /// `out[dst]`: channel into rank `dst`'s inbox from this rank.
    out: Vec<Sender<M>>,
    /// `inbox[src]`: this rank's inbox from rank `src`.
    inbox: Vec<Receiver<M>>,
}

impl<M: Send> Comm<M> {
    /// This rank's id.
    fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    fn size(&self) -> usize {
        self.size
    }

    /// Send a message to `dst` (buffered, never blocks). A receiver that
    /// hung up has failed, so this rank stops too.
    fn send(&self, dst: usize, msg: M) {
        self.out[dst].send(msg).unwrap_or_else(|_| abandon());
    }

    /// Receive the next message from `src` (blocks until it arrives, or
    /// until `src` fails and this rank stops too).
    fn recv(&self, src: usize) -> M {
        self.inbox[src].recv().unwrap_or_else(|_| abandon())
    }

    /// Gather one message from every rank (including a self-copy):
    /// `allgather(m)[j]` is rank `j`'s contribution.
    fn allgather(&self, mine: M) -> Vec<M>
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
    fn alltoallv(&self, mut outbound: Vec<M>) -> Vec<M> {
        assert_eq!(outbound.len(), self.size);
        // Send in rank order from rank 0, keeping the message to self.
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
/// return each rank's result, in rank order. A rank that panics drops its
/// channels, so the ranks waiting on it stop rather than wait.
fn spawn_spmd<M, R, F>(size: usize, f: F) -> Vec<R>
where
    M: Send,
    R: Send,
    F: Fn(Comm<M>) -> R + Sync,
{
    assert!(size >= 1);
    // Row `dst` is rank `dst`'s inbox, one channel per `src`; rank `src`
    // takes the `src`-th sender of every row.
    let (senders, inboxes): (Vec<Vec<_>>, Vec<Vec<_>>) =
        (0..size).map(|_| (0..size).map(|_| channel()).unzip()).unzip();
    let mut senders: Vec<_> = senders.into_iter().map(Vec::into_iter).collect();
    let comms: Vec<Mutex<Option<Comm<M>>>> = inboxes
        .into_iter()
        .enumerate()
        .map(|(rank, inbox)| {
            let out = senders.iter_mut().map(|row| row.next().expect("a sender per rank")).collect();
            Mutex::new(Some(Comm { rank, size, out, inbox }))
        })
        .collect();
    run_workers(size, |rank| f(comms[rank].lock().expect("taken once").take().expect("one rank per comm")))
}

/// What ranks send each other in a sort: header words and keys. The
/// all-gather sends words only; an exchange sends one packet per
/// destination, `(dst_at, len)` per piece and the pieces' keys in order.
#[derive(Clone, Default)]
struct Packet<K> {
    words: Vec<u64>,
    keys: Vec<K>,
}

/// The message-passing transport of [`crate::spmd`]: each rank owns its
/// keys, and an exchange is the paper's staged message — pack the pieces
/// per destination, one `alltoallv`, unpack into place.
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
            let part = part_range(n, p, comm.rank());
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
        let results = spawn_spmd::<Vec<usize>, _, _>(4, |comm| comm.allgather(vec![comm.rank() * 10]));
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
