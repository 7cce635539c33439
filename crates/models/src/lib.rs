//! # ccsort-models
//!
//! The three programming-model runtimes of Shan & Singh (SC 1999), built on
//! the simulated DSM machine from `ccsort-machine`:
//!
//! * **CC-SAS** — a load/store cache-coherent shared address space. Programs
//!   use the machine's coherent accessors directly; this crate contributes
//!   the SPLASH-2-style binary [`prefix::PrefixTree`] used for histogram
//!   accumulation, whose efficient fine-grained communication is the reason
//!   CC-SAS wins at small data sets (Section 4.2 of the paper).
//! * **MPI** ([`mpi::Mpi`]) — two implementations: [`mpi::MpiMode::Staged`]
//!   models the vendor library that bounces every message through an
//!   internal buffer, and [`mpi::MpiMode::Direct`] models the authors'
//!   "impure" MPICH that transfers directly into the destination address
//!   space. Both use 1-deep per-pair mailboxes, whose back-to-back-message
//!   stall is the source of MPI's extra SYNC time (Figure 4).
//! * **SHMEM** ([`shmem::Shmem`]) — one-sided `put`/`get` on a symmetric
//!   address space, with `get` installing data in the destination cache.
//!
//! The crate holds runtimes only: which runtime call a sort makes in which
//! phase — the `Communicator` of each model — is written beside the two
//! sorting skeletons in `ccsort-algos`.
//!
//! Execution model: programs are bulk-synchronous. A *phase* is a closure
//! run once per processor ([`spmd`]); [`ccsort_machine::Machine::barrier`]
//! separates phases. This sequential-per-phase schedule is semantically
//! identical to a parallel one for the sorting programs because all their
//! intra-phase writes are to disjoint locations, and it makes the whole
//! simulation deterministic.

pub mod mpi;
pub mod prefix;
pub mod shmem;

use ccsort_machine::{ArrayId, Machine};

pub use mpi::{Mpi, MpiMode};
pub use prefix::PrefixTree;
pub use shmem::Shmem;

/// Run `body` once per processor (in processor order), then barrier.
///
/// ```
/// use ccsort_machine::{Machine, MachineConfig};
/// let mut m = Machine::new(MachineConfig::origin2000(4));
/// ccsort_models::spmd(&mut m, |m, pe| m.busy_cycles(pe, 10.0 * (pe as f64 + 1.0)));
/// // All clocks aligned afterwards.
/// let t = m.now(0);
/// assert!((0..4).all(|pe| (m.now(pe) - t).abs() < 1e-9));
/// ```
pub fn spmd<F: FnMut(&mut Machine, usize)>(m: &mut Machine, mut body: F) {
    for pe in 0..m.n_procs() {
        body(m, pe);
    }
    m.barrier();
}

/// Timed CPU copy of `len` elements between simulated arrays, performed by
/// `pe` with streamed loads and stores plus `cyc_per_elem` cycles of
/// instruction work per element.
#[allow(clippy::too_many_arguments)]
pub fn cpu_copy(
    m: &mut Machine,
    pe: usize,
    src: ArrayId,
    src_off: usize,
    dst: ArrayId,
    dst_off: usize,
    len: usize,
    cyc_per_elem: f64,
) {
    if len == 0 {
        return;
    }
    m.touch_run(pe, src, src_off, len, false);
    m.touch_run(pe, dst, dst_off, len, true);
    m.busy_cycles(pe, cyc_per_elem * len as f64);
    #[expect(clippy::disallowed_methods, reason = "the two touch_run calls above charge this \
        transfer's full memory-system cost; the untimed call is only the backing-store data \
        motion of the same copy")]
    m.copy_untimed(pe, src, src_off, dst, dst_off, len);
}

/// Timed scattered read of a handful of shared values (splitters, flags):
/// gather `idxs.len()` of them in one submission through the machine's
/// walk (one detector dispatch and base resolution for the whole set).
pub fn gather_scattered(m: &mut Machine, pe: usize, arr: ArrayId, idxs: &[usize], out: &mut [u32]) {
    m.gather_run(pe, arr, idxs, out);
}

/// Read a *fixed-size* (n-independent) structure: the full data is
/// returned, but only a representative `1/fixed_cost_div` prefix goes
/// through the timed path, so the charged cost keeps the weight it has on
/// the full-scale machine (see `MachineConfig::scaled_down`).
pub fn read_fixed(m: &mut Machine, pe: usize, arr: ArrayId, off: usize, out: &mut [u32]) {
    if out.is_empty() {
        return;
    }
    let k = m.fixed_prefix(out.len());
    m.read_run(pe, arr, off, &mut out[..k]);
    if out.len() > k {
        let end = off + out.len();
        out[k..].copy_from_slice(&m.raw(arr)[off + k..end]);
    }
}

/// Write a fixed-size structure; cost-scaled counterpart of `write_run`.
pub fn write_fixed(m: &mut Machine, pe: usize, arr: ArrayId, off: usize, src: &[u32]) {
    if src.is_empty() {
        return;
    }
    let k = m.fixed_prefix(src.len());
    m.write_run(pe, arr, off, &src[..k]);
    if src.len() > k {
        m.raw_mut(arr)[off + k..off + src.len()].copy_from_slice(&src[k..]);
    }
}

/// Copy between fixed-size structures; cost-scaled counterpart of
/// [`cpu_copy`].
#[allow(clippy::too_many_arguments)]
pub fn cpu_copy_fixed(
    m: &mut Machine,
    pe: usize,
    src: ArrayId,
    src_off: usize,
    dst: ArrayId,
    dst_off: usize,
    len: usize,
    cyc_per_elem: f64,
) {
    if len == 0 {
        return;
    }
    let k = m.fixed_prefix(len);
    cpu_copy(m, pe, src, src_off, dst, dst_off, k, cyc_per_elem);
    if len > k {
        #[expect(clippy::disallowed_methods, reason = "fixed-size structure: the representative \
            prefix above carries the scaled cost (MachineConfig::scaled_down); the remainder \
            moves untimed by design")]
        m.copy_untimed(pe, src, src_off + k, dst, dst_off + k, len - k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsort_machine::{MachineConfig, Placement};

    #[test]
    fn cpu_copy_moves_data_and_charges_both_sides() {
        let mut m = Machine::new(MachineConfig::origin2000(2).scaled_down(16));
        let a = m.alloc(256, Placement::Node(0), "a");
        let b = m.alloc(256, Placement::Node(0), "b");
        for i in 0..256 {
            m.raw_mut(a)[i] = i as u32;
        }
        cpu_copy(&mut m, 0, a, 64, b, 0, 128, 1.0);
        assert_eq!(m.raw(b)[0], 64);
        assert_eq!(m.raw(b)[127], 191);
        let brk = m.breakdown(0);
        assert!(brk.busy > 0.0);
        assert!(brk.lmem > 0.0);
    }

    #[test]
    fn spmd_runs_all_pes_in_order() {
        let mut m = Machine::new(MachineConfig::origin2000(8));
        let mut order = Vec::new();
        spmd(&mut m, |_, pe| order.push(pe));
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod fixed_helper_tests {
    use super::*;
    use ccsort_machine::{MachineConfig, Placement};

    fn scaled_machine() -> Machine {
        Machine::new(MachineConfig::origin2000(2).scaled_down(16))
    }

    #[test]
    fn read_fixed_returns_full_data_but_charges_prefix() {
        let mut m = scaled_machine();
        let a = m.alloc(512, Placement::Node(0), "a");
        for i in 0..512 {
            m.raw_mut(a)[i] = i as u32;
        }
        let mut out = vec![0u32; 512];
        read_fixed(&mut m, 0, a, 0, &mut out);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32));
        let fixed_time = m.now(0);
        m.read_run(1, a, 0, &mut out);
        let full_time = m.now(1);
        assert!(fixed_time < full_time, "fixed read ({fixed_time}) must charge less than full ({full_time})");
    }

    #[test]
    fn write_fixed_roundtrip() {
        let mut m = scaled_machine();
        let a = m.alloc(512, Placement::Node(0), "a");
        let src: Vec<u32> = (0..512).map(|i| i * 3).collect();
        write_fixed(&mut m, 0, a, 0, &src);
        assert_eq!(m.raw(a), &src[..]);
    }

    #[test]
    fn cpu_copy_fixed_moves_everything() {
        let mut m = scaled_machine();
        let a = m.alloc(300, Placement::Node(0), "a");
        let b = m.alloc(300, Placement::Node(0), "b");
        for i in 0..300 {
            m.raw_mut(a)[i] = 1000 + i as u32;
        }
        cpu_copy_fixed(&mut m, 0, a, 10, b, 20, 200, 1.0);
        assert_eq!(m.raw(b)[20], 1010);
        assert_eq!(m.raw(b)[219], 1209);
        assert!(m.now(0) > 0.0);
    }
}
