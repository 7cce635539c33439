//! An experiment's host memory is the simulated machine's and nothing more.
//!
//! A counting global allocator (this binary's alone) tracks the live heap.
//! Doubling the key count from 2^16 to 2^17 must grow the peak live heap of
//! [`run_experiment`] and of [`run_sequential_baseline`] by no more, per
//! added key, than the machine itself grows: its two key arrays (4 bytes
//! each per key), the directory entries of their lines, and the per-page
//! tables that map them. Everything else a run holds — caches, TLB slots,
//! histograms, section records — is fixed in n and cancels out. A host
//! copy of the keys, kept for verification or to load the machine, is 4
//! more bytes per key and fails the bound.
//!
//! Release only, like `golden_quick`: the debug profile's equivalence
//! sampler clones the whole machine now and then, which is n-sized host
//! memory of its own (`cargo test --release -p ccsort-algos --test
//! host_memory`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use ccsort_algos::{run_experiment, run_sequential_baseline, Algorithm, Dist, ExpConfig};
use ccsort_machine::MachineConfig;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// the caller's guarantees for this allocator are the ones `System` needs;
// the counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is (see the impl).
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is (see the impl).
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is (see the impl).
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as is (see the impl).
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak live heap of `run` above the live heap it started from, in bytes.
fn peak_above_start(run: impl FnOnce()) -> usize {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    run();
    PEAK.load(Relaxed) - start
}

/// Host bytes per key the machine itself needs for two key arrays of `n`
/// keys each: the `u32` data; the directory entry of each line (a presence
/// word, a state byte and a `u8` owner, sized exactly but for a headroom
/// that does not grow with `n`); and per page, a `u8` home and, on every
/// processor, a `u16` TLB slot index. The per-page
/// vectors grow by doubling as later arrays extend the address space, so
/// they are allowed twice their length.
fn machine_bytes_per_key(cfg: &MachineConfig) -> f64 {
    let keys_per_line = (cfg.l2.line / 4) as f64;
    let keys_per_page = (cfg.page_size / 4) as f64;
    let line_bytes = (8 + 1 + 1) as f64;
    let page_bytes = (1 + 2 * cfg.n_procs) as f64;
    2.0 * (4.0 + line_bytes / keys_per_line + 2.0 * page_bytes / keys_per_page)
}

/// Peak-heap growth per added key from `n` to `2n` keys.
fn growth_per_key(n: usize, run: impl Fn(usize)) -> f64 {
    let small = peak_above_start(|| run(n));
    let large = peak_above_start(|| run(2 * n));
    (large as f64 - small as f64) / n as f64
}

/// One test, so no other test's allocations land in the counters.
#[test]
fn peak_heap_grows_by_the_machine_alone() {
    if cfg!(debug_assertions) {
        eprintln!("host_memory: skipped in debug profile (run with --release)");
        return;
    }
    const N: usize = 1 << 16;
    const SCALE: usize = 64;

    // The program that allocates no n-sized array beyond the two key arrays.
    let p = 8;
    let bound = machine_bytes_per_key(&MachineConfig::origin2000(p).scaled_down(SCALE));
    let per_key = growth_per_key(N, |n| {
        let cfg = ExpConfig::new(Algorithm::RadixCcsas, n, p).scale(SCALE);
        assert!(run_experiment(&cfg).verified);
    });
    assert!(
        per_key <= bound,
        "run_experiment: peak heap grows {per_key:.2} B/key, the machine needs {bound:.2}"
    );

    let bound = machine_bytes_per_key(&MachineConfig::origin2000(1).scaled_down(SCALE));
    let per_key = growth_per_key(N, |n| {
        assert!(run_sequential_baseline(n, 8, Dist::Gauss, 271828, SCALE, 1).verified);
    });
    assert!(
        per_key <= bound,
        "sequential baseline: peak heap grows {per_key:.2} B/key, the machine needs {bound:.2}"
    );
}
