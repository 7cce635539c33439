//! [`SharedSlice`]: a `Sync` view of a mutable slice for disjoint parallel
//! writes.
//!
//! The parallel permutation phase of radix sort writes every key to a
//! position computed from the global histogram: positions written by
//! different threads are provably disjoint, but they interleave arbitrarily
//! within the output array, so `split_at_mut` cannot express the partition.
//! `SharedSlice` carries the raw pointer across threads; each `write` is
//! `unsafe` with the documented contract that no two concurrent writers
//! target the same index — exactly the invariant the histogram arithmetic
//! guarantees (and which the test suite checks by validating every sorted
//! output).
//!
//! The bucket phase of the engine's MSD-first schedule needs the coarser
//! form of the same thing: whole `&mut` sub-slices, one per bucket, handed
//! to whichever worker claims the bucket. [`SharedSlice::slice_mut`] is
//! that primitive; debug builds record every range handed out and panic on
//! the first overlap.

use std::marker::PhantomData;
use std::ops::Range;

/// A shareable pointer to a mutable slice, for disjoint concurrent writes.
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    /// Ranges handed out by [`SharedSlice::slice_mut`], start → end.
    #[cfg(debug_assertions)]
    lent: std::sync::Mutex<std::collections::BTreeMap<usize, usize>>,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wrap a mutable slice. The borrow keeps the underlying storage alive
    /// and exclusive for `'a`.
    pub fn new(slice: &'a mut [T]) -> Self {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            #[cfg(debug_assertions)]
            lent: Default::default(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The start of the underlying slice, for cache hints
    /// ([`crate::histogram::prefetch_lines`]) that only offset it. Nothing
    /// may read or write through it.
    #[inline]
    pub(crate) fn as_ptr(&self) -> *const T {
        self.ptr
    }

    /// Write `value` at `index`.
    ///
    /// # Safety
    ///
    /// * `index < len()` (checked in debug builds), and
    /// * no other thread reads or writes `index` concurrently.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.len, "SharedSlice write out of bounds: {index} >= {}", self.len);
        unsafe { self.ptr.add(index).write(value) };
    }

    /// Write `src` contiguously starting at `index` — the coalesced-flush
    /// primitive: one bounds-checked `copy_nonoverlapping` emits a full
    /// staged block as consecutive stores instead of scattered single
    /// writes.
    ///
    /// # Safety
    ///
    /// * `index + src.len() <= len()` (checked in debug builds), and
    /// * no other thread reads or writes `index..index + src.len()`
    ///   concurrently.
    #[inline]
    pub unsafe fn write_slice(&self, index: usize, src: &[T])
    where
        T: Copy,
    {
        debug_assert!(
            index + src.len() <= self.len,
            "SharedSlice block write out of bounds: {index}+{} > {}",
            src.len(),
            self.len
        );
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(index), src.len()) };
    }

    /// Exclusive access to `range` of the underlying slice — the
    /// per-bucket primitive: a worker that has claimed a bucket sorts that
    /// bucket's range of both buffers as ordinary `&mut` slices.
    ///
    /// # Safety
    ///
    /// * `range.end <= len()` (checked in debug builds), and
    /// * for as long as the returned slice lives, nothing else reads or
    ///   writes any index in `range`: no other `slice_mut` range overlaps it
    ///   and no `write`/`write_slice`/`read` targets it. The engine
    ///   guarantees this by cutting the bucket ranges from one exclusive
    ///   prefix sum (consecutive, hence pairwise disjoint) and claiming each
    ///   bucket id exactly once ([`crate::steal::ChunkQueue`]). Debug builds
    ///   panic when two non-empty ranges handed out by one `SharedSlice`
    ///   overlap.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(
            range.start <= range.end && range.end <= self.len,
            "SharedSlice sub-slice out of bounds: {range:?} of {}",
            self.len
        );
        #[cfg(debug_assertions)]
        if !range.is_empty() {
            let mut lent = self.lent.lock().unwrap_or_else(|e| e.into_inner());
            let before = lent.range(..range.end).next_back();
            assert!(
                before.is_none_or(|(_, &end)| end <= range.start),
                "SharedSlice sub-slices overlap: {range:?} vs {before:?}"
            );
            lent.insert(range.start, range.end);
        }
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }

    /// Read the value at `index`.
    ///
    /// # Safety
    ///
    /// * `index < len()` (checked in debug builds), and
    /// * no other thread writes `index` concurrently.
    #[inline]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(index < self.len);
        unsafe { self.ptr.add(index).read() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_parallel_writes() {
        let n = 1 << 14;
        let mut out = vec![0u32; n];
        let shared = SharedSlice::new(&mut out);
        let threads = 8;
        std::thread::scope(|s| {
            for t in 0..threads {
                let shared = &shared;
                s.spawn(move || {
                    // Thread t writes the strided positions i ≡ t (mod 8):
                    // disjoint across threads, interleaved in memory.
                    let mut i = t;
                    while i < n {
                        unsafe { shared.write(i, i as u32) };
                        i += threads;
                    }
                });
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn block_writes_land_contiguously() {
        let n = 1024;
        let mut out = vec![0u32; n];
        let shared = SharedSlice::new(&mut out);
        std::thread::scope(|s| {
            for t in 0..4 {
                let shared = &shared;
                s.spawn(move || {
                    // Thread t owns [t*256, (t+1)*256), written as 8 blocks.
                    for b in 0..8 {
                        let base = t * 256 + b * 32;
                        let block: Vec<u32> = (base..base + 32).map(|i| i as u32).collect();
                        unsafe { shared.write_slice(base, &block) };
                    }
                });
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn disjoint_sub_slices_are_plain_mutable_slices() {
        let n = 1000;
        let mut out = vec![0u32; n];
        let shared = SharedSlice::new(&mut out);
        // Consecutive ranges from one prefix sum, empty ones included.
        let bounds = [0usize, 10, 10, 400, 401, 1000];
        std::thread::scope(|s| {
            for (b, w) in bounds.windows(2).enumerate() {
                let shared = &shared;
                s.spawn(move || {
                    // SAFETY: the ranges are consecutive and each is taken once.
                    let part = unsafe { shared.slice_mut(w[0]..w[1]) };
                    part.fill(b as u32 + 1);
                    part.reverse();
                });
            }
        });
        for (b, w) in bounds.windows(2).enumerate() {
            assert!(out[w[0]..w[1]].iter().all(|&v| v == b as u32 + 1));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sub-slices overlap")]
    fn overlapping_sub_slices_are_caught_in_debug_builds() {
        let mut out = vec![0u32; 100];
        let shared = SharedSlice::new(&mut out);
        // Only the assertion is under test: the second slice is never formed.
        let _a = unsafe { shared.slice_mut(10..50) };
        let _b = unsafe { shared.slice_mut(49..60) };
    }

    #[test]
    fn read_back() {
        let mut data = vec![7u32; 4];
        let s = SharedSlice::new(&mut data);
        unsafe {
            s.write(2, 42);
            assert_eq!(s.read(2), 42);
            assert_eq!(s.read(0), 7);
        }
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use ccsort_rng::{check_cases, SplitMix64};

    /// Any permutation written through disjoint SharedSlice writes in
    /// parallel lands exactly.
    #[test]
    fn arbitrary_disjoint_permutation() {
        // Fisher–Yates from the case's generator.
        let case = |rng: &mut SplitMix64| {
            let mut perm: Vec<usize> = (0..rng.random_range(1..2000)).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.random_range(0..=i));
            }
            perm
        };
        check_cases(256, case, |perm| {
            let n = perm.len();
            let mut out = vec![u32::MAX; n];
            let shared = SharedSlice::new(&mut out);
            let threads = 4.min(n);
            std::thread::scope(|s| {
                for t in 0..threads {
                    let shared = &shared;
                    s.spawn(move || {
                        let mut i = t;
                        while i < n {
                            // SAFETY: perm is a bijection and the strided
                            // sources are disjoint, so targets are disjoint.
                            unsafe { shared.write(perm[i], i as u32) };
                            i += threads;
                        }
                    });
                }
            });
            for (i, &p) in perm.iter().enumerate() {
                assert_eq!(out[p], i as u32);
            }
        });
    }
}
