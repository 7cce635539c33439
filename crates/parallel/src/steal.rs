//! Fork/join on scoped threads, and the work-stealing chunk scheduler the
//! radix engine drains its phases through.
//!
//! [`run_workers`] is the fork/join the data-parallel sorts share:
//! `f(0..workers)` under `std::thread::scope`, results in worker order, a
//! worker's panic re-raised in the caller. [`par_map`] hands a list of
//! independent items to those workers — the experiment grids of
//! `ccsort-bench` and `tests/conformance.rs`.
//!
//! [`ChunkQueue`] is the scheduler for the histogram and permute phases.
//! The input is cut into `m` fixed-stride chunks (`m` ≥ the worker count).
//! Each worker owns a contiguous region of chunk
//! indices and drains it front-to-back with a single `fetch_add` per claim
//! — the atomic chunk-index scheme from the paper's load-balancing
//! discussion, lifted to shared memory. A worker whose own region is empty
//! steals a chunk from the victim with the most work left, so a straggler
//! (a descheduled thread, a slow chunk, a core busy with interrupts) never
//! serializes the phase on its remaining range: any running worker can
//! finish any chunk.
//!
//! Two properties the sorts rely on, both checked by the tests below:
//!
//! * **Exactly-once**: every chunk index in `0..m` is returned by exactly
//!   one `claim` call across all workers. `fetch_add` on the region cursor
//!   linearizes concurrent claims; a cursor past `end` means the region is
//!   drained (failed bumps leave the cursor > `end`, which `remaining`
//!   saturates away).
//! * **Schedule-independence**: the sorts' output does not depend on which
//!   worker processes which chunk — per-chunk offsets fix every element's
//!   destination before the phase starts — so stealing cannot perturb
//!   sorted output or stability. Only wall-clock changes.
//!
//! The radix engine always steals. `steal = false` (static partitioning:
//! each worker sees only its own region) is no engine path any more; the
//! mode stays because the repo benchmark's claim probe is frozen on the
//! three-argument `new`, and for its own exactly-once test below.

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count when the caller leaves it to the machine.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Run `f(0..workers)` on real OS threads and collect the results in
/// worker order. `workers == 1` runs inline — the single-threaded
/// configurations pay no spawn cost. The scope join is the fork/join
/// barrier the [`ChunkQueue`] memory-ordering argument relies on. If a
/// worker panics, the others finish (or abandon the work that waits
/// on it) and the first panic that was not an abandonment resumes in the
/// caller.
pub fn run_workers<T, F>(workers: usize, f: F) -> Vec<T>
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
        let mut done = Vec::with_capacity(workers);
        let mut failure: Option<Box<dyn Any + Send>> = None;
        for handle in handles {
            match handle.join() {
                Ok(value) => done.push(value),
                Err(panic) if failure.as_ref().is_none_or(|first| first.is::<Abandoned>()) => {
                    failure = Some(panic)
                }
                Err(_) => {}
            }
        }
        if let Some(panic) = failure {
            std::panic::resume_unwind(panic);
        }
        done
    })
}

/// The panic payload of a worker that stopped because another worker
/// failed: what it waited on (a barrier, a message) will never come.
struct Abandoned;

/// Stop this worker because another one failed, without a panic message of
/// its own: [`run_workers`] re-raises the other worker's panic instead.
pub(crate) fn abandon() -> ! {
    std::panic::resume_unwind(Box::new(Abandoned))
}

/// `f` of every item, in item order, computed on up to `workers` threads.
/// Each item goes to exactly one worker — whichever asks next, so uneven
/// items balance — and `f` runs outside the lock that hands them out.
pub fn par_map<I, R, F>(workers: usize, items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let workers = workers.clamp(1, items.len().max(1));
    let feed = Mutex::new(items.enumerate());
    let mut done: Vec<(usize, R)> = run_workers(workers, |_| {
        let mut mine = Vec::new();
        loop {
            // Poisoned only if the iterator itself panicked; pass that on.
            let next = feed.lock().expect("item iterator panicked").next();
            let Some((i, item)) = next else { break };
            mine.push((i, f(item)));
        }
        mine
    })
    .into_iter()
    .flatten()
    .collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// One worker's region of chunk indices: a cursor and a fixed end, padded
/// to a cache line so neighbouring cursors never share one — they are the
/// hottest shared words in the sort.
#[repr(align(64))]
struct Region {
    next: AtomicUsize,
    end: usize,
}

/// Work-stealing (or static) scheduler over chunk indices `0..chunks`.
pub struct ChunkQueue {
    regions: Vec<Region>,
    steal: bool,
}

impl ChunkQueue {
    /// Partition `0..chunks` into `workers` contiguous regions. With
    /// `steal = false`, `claim(w)` only ever returns chunks of region `w`
    /// (static partitioning).
    pub fn new(workers: usize, chunks: usize, steal: bool) -> Self {
        assert!(workers > 0, "ChunkQueue needs at least one worker");
        let regions = (0..workers)
            .map(|w| {
                let start = w * chunks / workers;
                let end = (w + 1) * chunks / workers;
                Region { next: AtomicUsize::new(start), end }
            })
            .collect();
        ChunkQueue { regions, steal }
    }

    /// Number of chunks not yet claimed (racy snapshot; exact once the
    /// phase has quiesced).
    pub fn remaining(&self) -> usize {
        self.regions.iter().map(|r| r.end.saturating_sub(r.next.load(Ordering::Relaxed))).sum()
    }

    /// Claim the next chunk for `worker`: its own region first, then — if
    /// stealing is on — a chunk from the victim with the most left.
    /// Returns `None` when every region is drained (for this worker under
    /// static partitioning, globally under stealing).
    ///
    /// Relaxed ordering is sufficient: a claim only decides *which* worker
    /// touches a chunk's disjoint data within the phase (the `fetch_add`
    /// linearizes claims on its own), and cross-phase visibility of that
    /// data is ordered by the fork/join barrier around the phase.
    pub fn claim(&self, worker: usize) -> Option<usize> {
        let own = &self.regions[worker];
        let i = own.next.fetch_add(1, Ordering::Relaxed);
        if i < own.end {
            return Some(i);
        }
        if !self.steal {
            return None;
        }
        loop {
            let mut best: Option<(usize, usize)> = None; // (remaining, victim)
            for (v, region) in self.regions.iter().enumerate() {
                if v == worker {
                    continue;
                }
                let rem = region.end.saturating_sub(region.next.load(Ordering::Relaxed));
                if rem > 0 && best.is_none_or(|(b, _)| rem > b) {
                    best = Some((rem, v));
                }
            }
            let (_, v) = best?;
            let i = self.regions[v].next.fetch_add(1, Ordering::Relaxed);
            if i < self.regions[v].end {
                return Some(i);
            }
            // Lost the race to the last chunk of that victim; rescan.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Drain a queue from `workers` real threads and return every claimed
    /// index with its claimer.
    fn drain(workers: usize, chunks: usize, steal: bool) -> Vec<(usize, usize)> {
        let q = ChunkQueue::new(workers, chunks, steal);
        let claimed: Vec<(usize, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let q = &q;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(c) = q.claim(w) {
                            mine.push((w, c));
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(q.remaining(), 0);
        claimed
    }

    #[test]
    fn every_chunk_claimed_exactly_once_with_stealing() {
        for (workers, chunks) in [(1, 17), (3, 64), (7, 100), (8, 8), (5, 3)] {
            let claimed = drain(workers, chunks, true);
            assert_eq!(claimed.len(), chunks, "workers={workers} chunks={chunks}");
            let ids: BTreeSet<usize> = claimed.iter().map(|&(_, c)| c).collect();
            assert_eq!(ids.len(), chunks, "duplicate claim: workers={workers} chunks={chunks}");
            assert_eq!(ids.iter().next_back(), Some(&(chunks - 1)));
        }
    }

    #[test]
    fn static_mode_respects_region_boundaries() {
        let workers = 4;
        let chunks = 14;
        let claimed = drain(workers, chunks, false);
        assert_eq!(claimed.len(), chunks);
        for (w, c) in claimed {
            assert!(
                (w * chunks / workers..(w + 1) * chunks / workers).contains(&c),
                "worker {w} claimed chunk {c} outside its static region"
            );
        }
    }

    #[test]
    fn stealing_drains_a_single_loaded_region() {
        // All chunks in worker 0's region; workers 1..4 must steal them.
        let q = ChunkQueue::new(4, 4, true);
        // Exhaust worker 0's cursor so the others have to steal everything.
        let mut got = Vec::new();
        for w in [1, 2, 3, 1, 2, 3] {
            if let Some(c) = q.claim(w) {
                got.push(c);
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(q.claim(0), None);
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let q = ChunkQueue::new(3, 0, true);
        for w in 0..3 {
            assert_eq!(q.claim(w), None);
        }
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn more_workers_than_chunks() {
        let claimed = drain(9, 2, true);
        assert_eq!(claimed.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ChunkQueue::new(0, 4, true);
    }

    #[test]
    fn par_map_keeps_item_order_and_runs_each_item_once() {
        for workers in [1, 3, 7] {
            // 100 items (uneven cost), fewer items than workers, none.
            for n in [100usize, 2, 0] {
                let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = par_map(workers, 0..n, |i| {
                    calls[i].fetch_add(1, Ordering::Relaxed);
                    (0..i * 50).fold(i, |acc, x| acc ^ x) // later items cost more
                });
                let expect: Vec<usize> = (0..n).map(|i| (0..i * 50).fold(i, |acc, x| acc ^ x)).collect();
                assert_eq!(out, expect, "workers={workers} n={n}");
                assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn par_map_hands_out_disjoint_mutable_items() {
        let mut data = vec![0u32; 1000];
        par_map(3, data.chunks_mut(7).enumerate(), |(c, chunk)| chunk.fill(c as u32 + 1));
        assert!(data.iter().enumerate().all(|(i, &v)| v == (i / 7) as u32 + 1));
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn par_map_propagates_an_item_panic_after_the_other_items_finish() {
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(3, 0..40usize, |i| {
                assert!(i != 5, "item {i} failed");
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }));
        // No hang, no lost work: the surviving workers drained the rest.
        assert_eq!(finished.load(Ordering::Relaxed), 39);
        std::panic::resume_unwind(result.unwrap_err());
    }
}
