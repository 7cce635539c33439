//! Parallel sample sort under the three programming models (Section 3.2).
//!
//! The five phases of the paper's program:
//!
//! 1. every process sorts its own keys locally (radix sort);
//! 2. every process selects 128 regularly-spaced sample keys;
//! 3. the samples are combined and `p-1` splitters chosen — under CC-SAS,
//!    groups of 32 processes each delegate a collector and splitters are
//!    published through shared memory; under MPI/SHMEM the samples are
//!    allgathered and every process computes the splitters redundantly;
//! 4. every process partitions its sorted keys by the splitters and an
//!    all-to-all personalized communication moves each bucket to its
//!    destination — *contiguous* blocks, one per process pair (remote
//!    *reads* under CC-SAS, `send`/`recv` under MPI, `get` under SHMEM);
//! 5. every process sorts its received keys locally.
//!
//! Sample sort thus does roughly double the local sorting work of radix
//! sort but has far better-behaved communication — the crossover the
//! paper's Table 3 maps out.
//!
//! Like radix sort, the algorithm is written once ([`sort_with_comm`])
//! against [`ccsort_models::comm::Communicator`]; the model decides how
//! splitters are selected (group collectors vs redundant allgathered
//! sorts), how counts are replicated, and what transport moves the buckets.

pub mod ccsas;
pub mod mpi;
pub mod shmem;

use ccsort_machine::{ArrayId, Machine, Placement};
use ccsort_models::comm::{Communicator, ExchangePlan, Permute};
use ccsort_models::{gather_scattered, write_fixed, CcsasComm, MpiComm, MpiMode, ShmemComm};

use crate::common::{local_radix_sort, n_passes, part_range};
use crate::costs;

/// Samples taken per process (the paper's choice).
pub const SAMPLES_PER_PE: usize = 128;
/// Processes per sample-collection group in the CC-SAS program.
pub use ccsort_models::comm::GROUP;

/// Which programming model runs the communication phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Ccsas,
    Mpi(MpiMode),
    Shmem,
}

impl Model {
    /// The communicator instantiating this model. (Sample sort's own
    /// transport is contiguous per-pair blocks; the [`Permute`] style only
    /// selects the radix-permutation arm and is irrelevant here.)
    pub fn communicator(&self) -> Box<dyn Communicator> {
        let costs = costs::comm_costs();
        match *self {
            Model::Ccsas => Box::new(CcsasComm::new(Permute::DirectScatter, costs)),
            Model::Mpi(mode) => Box::new(MpiComm::new(mode, Permute::ChunkMessages, costs)),
            Model::Shmem => Box::new(ShmemComm::new(Permute::ReceiverGet, costs)),
        }
    }
}

/// How sample keys are chosen in phase 2 — "there are many ways to decide
/// how to sample the keys ... these affect load balance and program
/// complexity" (Section 3.2, citing Li et al.'s regular-sampling study).
/// The paper chose 128 regularly-spaced samples per process
/// ([`SamplingStrategy::default`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// `per_pe` regularly-spaced keys from each process's sorted partition
    /// (regular sampling; the paper's choice with `per_pe = 128`).
    Regular { per_pe: usize },
    /// `per_pe` pseudo-random positions per process (seeded, deterministic).
    Random { per_pe: usize, seed: u64 },
    /// Regular sampling with `factor * p` samples per process —
    /// oversampling trades splitter-phase cost for balance.
    Oversample { factor: usize },
}

impl Default for SamplingStrategy {
    fn default() -> Self {
        SamplingStrategy::Regular { per_pe: SAMPLES_PER_PE }
    }
}

impl SamplingStrategy {
    /// Samples per process for a given processor count and partition size.
    fn per_pe(&self, p: usize, part_len: usize) -> usize {
        let want = match *self {
            SamplingStrategy::Regular { per_pe } => per_pe,
            SamplingStrategy::Random { per_pe, .. } => per_pe,
            SamplingStrategy::Oversample { factor } => factor.max(1) * p,
        };
        want.min(part_len).max(1)
    }

    /// The `k`-th sample index within a partition of `len` keys.
    fn index(&self, pe: usize, k: usize, s: usize, len: usize) -> usize {
        match *self {
            SamplingStrategy::Regular { .. } | SamplingStrategy::Oversample { .. } => k * len / s,
            SamplingStrategy::Random { seed, .. } => {
                // Hash of (seed, pe, k): deterministic pseudo-random
                // positions.
                ccsort_rng::mix64(seed ^ ((pe as u64) << 32) ^ k as u64) as usize % len
            }
        }
    }
}

/// Sort `keys[0]` (partitioned over all processors), using `keys[1]` and
/// two freshly allocated arrays as scratch. Returns the array holding the
/// fully sorted result (process regions concatenated in rank order).
pub fn sort(m: &mut Machine, model: Model, keys: [ArrayId; 2], n: usize, r: u32, key_bits: u32) -> ArrayId {
    sort_with(m, model, keys, n, r, key_bits, SamplingStrategy::default())
}

/// [`sort`], with an explicit sampling strategy.
#[allow(clippy::too_many_arguments)]
pub fn sort_with(
    m: &mut Machine,
    model: Model,
    keys: [ArrayId; 2],
    n: usize,
    r: u32,
    key_bits: u32,
    strategy: SamplingStrategy,
) -> ArrayId {
    let mut comm = model.communicator();
    sort_with_comm(m, comm.as_mut(), keys, n, r, key_bits, strategy)
}

/// The one parallel sample sort, parameterized over the programming model.
#[allow(clippy::too_many_arguments)]
pub fn sort_with_comm(
    m: &mut Machine,
    comm: &mut dyn Communicator,
    keys: [ArrayId; 2],
    n: usize,
    r: u32,
    key_bits: u32,
    strategy: SamplingStrategy,
) -> ArrayId {
    let p = m.n_procs();
    let s = strategy.per_pe(p, n / p);
    let bits = key_bits.max(1);
    let local_passes = n_passes(bits, r);

    let recv = m.alloc(n, Placement::Partitioned { parts: p }, "recv");
    let recv_scratch = m.alloc(n, Placement::Partitioned { parts: p }, "recv-scratch");
    let samples = m.alloc(p * s, Placement::Partitioned { parts: p }, "samples");

    // ------------------------------------------------------------------
    // Phase 1: local radix sort of each partition.
    // ------------------------------------------------------------------
    m.section("local-sort-1");
    for pe in 0..p {
        let range = part_range(n, p, pe);
        local_radix_sort(m, pe, keys[0], keys[1], range.start, range.len(), r, bits);
    }
    m.barrier();
    // All partitions have the same pass parity, so the sorted data is in
    // the same array everywhere.
    let sorted = if local_passes % 2 == 1 { keys[1] } else { keys[0] };

    // ------------------------------------------------------------------
    // Phase 2: regular sampling.
    // ------------------------------------------------------------------
    m.section("sampling");
    for pe in 0..p {
        let range = part_range(n, p, pe);
        let len = range.len();
        let mut local_samples = vec![0u32; s];
        m.busy_cycles_fixed(pe, costs::SELECT_CYC_PER_SAMPLE * s as f64);
        let timed = m.fixed_prefix(s);
        let idxs: Vec<usize> = (0..s).map(|k| range.start + strategy.index(pe, k, s, len)).collect();
        // Sampling is fixed-size work: time a representative prefix as one
        // batched gather; the remainder is read untimed.
        gather_scattered(m, pe, sorted, &idxs[..timed], &mut local_samples[..timed]);
        for k in timed..s {
            local_samples[k] = m.raw(sorted)[idxs[k]];
        }
        write_fixed(m, pe, samples, pe * s, &local_samples);
    }
    m.barrier();

    // ------------------------------------------------------------------
    // Phase 3: splitter selection (model-specific).
    // ------------------------------------------------------------------
    m.section("splitters");
    let splitters = comm.select_splitters(m, samples, s);
    debug_assert_eq!(splitters.len(), p - 1);

    // ------------------------------------------------------------------
    // Phase 4: partition by splitters and exchange.
    // ------------------------------------------------------------------
    // Bucket boundaries within each sorted partition (host math; the
    // binary-search instruction work is charged below). Ties on duplicated
    // splitter values are spread across the tied buckets so heavily
    // duplicated keys (e.g. the `zero` distribution) don't overload one
    // process.
    let mut bounds: Vec<Vec<usize>> = Vec::with_capacity(p);
    for pe in 0..p {
        let range = part_range(n, p, pe);
        let len = range.len();
        m.busy_cycles_fixed(
            pe,
            costs::BSEARCH_CYC_PER_STEP * (p.max(2) - 1) as f64 * (len.max(2) as f64).log2(),
        );
        let part = &m.raw(sorted)[range.clone()];
        bounds.push(splitter_bounds(part, &splitters));
    }

    // counts[i][j]: keys process i sends to process j.
    let counts: Vec<Vec<u32>> = (0..p)
        .map(|i| (0..p).map(|j| (bounds[i][j + 1] - bounds[i][j]) as u32).collect())
        .collect();

    // Exchange the counts (cheap collective, same flavour per model) and
    // compute the receive layout: region j = [rbase[j], rbase[j+1]), with
    // source i's block at rbase[j] + sum_{i'<i} counts[i'][j].
    exchange_counts(m, comm, &counts);
    let mut rbase = vec![0usize; p + 1];
    for j in 0..p {
        let inbound: u32 = (0..p).map(|i| counts[i][j]).sum();
        rbase[j + 1] = rbase[j] + inbound as usize;
    }
    debug_assert_eq!(rbase[p], n);
    let plan = ExchangePlan {
        src_off: (0..p)
            .map(|i| (0..p).map(|j| part_range(n, p, i).start + bounds[i][j]).collect())
            .collect(),
        dst_off: (0..p)
            .map(|i| {
                (0..p)
                    .map(|j| rbase[j] + (0..i).map(|i2| counts[i2][j] as usize).sum::<usize>())
                    .collect()
            })
            .collect(),
        max_region: (0..p).map(|j| rbase[j + 1] - rbase[j]).max().unwrap_or(0),
        counts,
    };

    m.section("exchange");
    comm.exchange_keys(m, sorted, recv, &plan);
    m.barrier();

    // ------------------------------------------------------------------
    // Phase 5: local sort of the received region.
    // ------------------------------------------------------------------
    m.section("local-sort-2");
    for pe in 0..p {
        let off = rbase[pe];
        let len = rbase[pe + 1] - rbase[pe];
        local_radix_sort(m, pe, recv, recv_scratch, off, len, r, bits);
    }
    m.barrier();
    if local_passes % 2 == 1 {
        recv_scratch
    } else {
        recv
    }
}

/// Bucket cut points of a sorted `part` under `splitters`, spreading keys
/// equal to a run of tied splitters evenly over the tied buckets.
///
/// A value `v` appearing as splitters `a..=b` may legally land in any of
/// buckets `a..=b+1`: buckets `a+1..=b` hold nothing but `v`, bucket `a`
/// holds keys `< v` plus `v`s, bucket `b+1` holds `v`s plus keys `> v`, and
/// the phase-5 local sorts restore order inside every bucket. Without the
/// spreading, all duplicates of a splitter value pile onto one process —
/// the paper's `zero` distribution (every tenth key zero) would overload
/// process 0 by an order of magnitude.
pub fn splitter_bounds(part: &[u32], splitters: &[u32]) -> Vec<usize> {
    let p = splitters.len() + 1;
    let len = part.len();
    let mut b = vec![0usize; p + 1];
    b[p] = len;
    let mut j = 0usize;
    while j < splitters.len() {
        let v = splitters[j];
        let mut jl = j;
        while jl + 1 < splitters.len() && splitters[jl + 1] == v {
            jl += 1;
        }
        if jl == j {
            b[j + 1] = part.partition_point(|&x| x < v);
            j += 1;
            continue;
        }
        // Tied group: splitters j..=jl all equal v; spread the run of v's
        // over buckets j..=jl+1.
        let lower = part.partition_point(|&x| x < v);
        let upper = part.partition_point(|&x| x <= v);
        let run = upper - lower;
        let slots = jl - j + 2;
        for (k, cut) in (j + 1..=jl + 1).enumerate() {
            b[cut] = lower + (k + 1) * run / slots;
        }
        j = jl + 1;
    }
    b
}

/// Exchange the per-pair key counts ahead of the all-to-all: publish every
/// row into the shared/symmetric count matrix, then replicate it through
/// the model's collective.
fn exchange_counts(m: &mut Machine, comm: &mut dyn Communicator, counts: &[Vec<u32>]) {
    let p = m.n_procs();
    if p == 1 {
        return;
    }
    let flat_count_arr = m.alloc(p * p, Placement::Partitioned { parts: p }, "counts");
    for pe in 0..p {
        m.busy_cycles_fixed(pe, p as f64);
        write_fixed(m, pe, flat_count_arr, pe * p, &counts[pe]);
    }
    m.barrier();
    comm.replicate_counts(m, flat_count_arr);
    m.barrier();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{generate, Dist, KEY_BITS};
    use ccsort_machine::MachineConfig;

    pub(crate) fn run_model(model: Model, n: usize, p: usize, r: u32, dist: Dist, seed: u64) -> (Vec<u32>, Vec<u32>, f64) {
        let mut m = Machine::new(MachineConfig::origin2000(p).scaled_down(64));
        let a = m.alloc(n, Placement::Partitioned { parts: p }, "keys0");
        let b = m.alloc(n, Placement::Partitioned { parts: p }, "keys1");
        let input = generate(dist, n, p, r, seed);
        m.raw_mut(a).copy_from_slice(&input);
        let out = sort(&mut m, model, [a, b], n, r, KEY_BITS);
        (input, m.raw(out).to_vec(), m.parallel_time())
    }

    #[test]
    fn all_models_sort_gauss() {
        for model in [Model::Ccsas, Model::Mpi(MpiMode::Direct), Model::Mpi(MpiMode::Staged), Model::Shmem] {
            let (mut input, output, t) = run_model(model, 8192, 8, 8, Dist::Gauss, 21);
            input.sort_unstable();
            assert_eq!(output, input, "{model:?}");
            assert!(t > 0.0);
        }
    }

    #[test]
    fn all_models_agree() {
        let (_, a, _) = run_model(Model::Ccsas, 4096, 4, 8, Dist::Random, 5);
        let (_, b, _) = run_model(Model::Mpi(MpiMode::Direct), 4096, 4, 8, Dist::Random, 5);
        let (_, c, _) = run_model(Model::Shmem, 4096, 4, 8, Dist::Random, 5);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn handles_heavy_duplicates() {
        // The zero distribution concentrates ~10% of keys in one bucket.
        let (mut input, output, _) = run_model(Model::Shmem, 4096, 8, 8, Dist::Zero, 9);
        input.sort_unstable();
        assert_eq!(output, input);
    }

    #[test]
    fn handles_single_process() {
        let (mut input, output, _) = run_model(Model::Ccsas, 1024, 1, 8, Dist::Gauss, 3);
        input.sort_unstable();
        assert_eq!(output, input);
    }

    #[test]
    fn handles_more_groups_than_one() {
        // p = 64 exercises the two-group CC-SAS collection path (GROUP=32).
        let (mut input, output, _) = run_model(Model::Ccsas, 64 * 64, 64, 8, Dist::Random, 17);
        input.sort_unstable();
        assert_eq!(output, input);
    }

    #[test]
    fn skewed_distributions_sort_correctly() {
        for dist in [Dist::Bucket, Dist::Stagger, Dist::Local, Dist::Remote, Dist::Half] {
            let (mut input, output, _) = run_model(Model::Mpi(MpiMode::Direct), 4096, 8, 8, dist, 31);
            input.sort_unstable();
            assert_eq!(output, input, "{dist:?}");
        }
    }
}

#[cfg(test)]
mod strategy_tests {
    use super::*;
    use crate::dist::{generate, Dist, KEY_BITS};
    use ccsort_machine::MachineConfig;

    fn run_strategy(strategy: SamplingStrategy, dist: Dist) -> (bool, f64) {
        let n = 1 << 14;
        let p = 8;
        let mut m = Machine::new(MachineConfig::origin2000(p).scaled_down(64));
        let a = m.alloc(n, Placement::Partitioned { parts: p }, "k0");
        let b = m.alloc(n, Placement::Partitioned { parts: p }, "k1");
        let input = generate(dist, n, p, 8, 3);
        m.raw_mut(a).copy_from_slice(&input);
        let out = sort_with(&mut m, Model::Shmem, [a, b], n, 8, KEY_BITS, strategy);
        let mut expect = input;
        expect.sort_unstable();
        let ok = m.raw(out) == &expect[..];
        // Work imbalance across PEs (non-sync time max/mean).
        let work: Vec<f64> = (0..p).map(|pe| {
            let b = m.breakdown(pe);
            b.busy + b.lmem + b.rmem
        }).collect();
        let mean = work.iter().sum::<f64>() / p as f64;
        (ok, work.iter().cloned().fold(0.0_f64, f64::max) / mean)
    }

    #[test]
    fn every_strategy_sorts_every_stress_dist() {
        for strategy in [
            SamplingStrategy::Regular { per_pe: 16 },
            SamplingStrategy::Regular { per_pe: 512 },
            SamplingStrategy::Random { per_pe: 64, seed: 1 },
            SamplingStrategy::Oversample { factor: 4 },
        ] {
            for dist in [Dist::Gauss, Dist::Zero, Dist::Stagger, Dist::Local] {
                let (ok, _) = run_strategy(strategy, dist);
                assert!(ok, "{strategy:?} on {dist:?} failed");
            }
        }
    }

    #[test]
    fn regular_sampling_balances_at_least_as_well_as_random() {
        let (_, reg) = run_strategy(SamplingStrategy::Regular { per_pe: 128 }, Dist::Gauss);
        let (_, rnd) = run_strategy(SamplingStrategy::Random { per_pe: 128, seed: 1 }, Dist::Gauss);
        assert!(
            reg <= rnd * 1.05,
            "regular sampling ({reg:.3}) should balance no worse than random ({rnd:.3})"
        );
    }

    #[test]
    fn random_sampling_positions_are_pinned() {
        // Not a key stream: the position hash must not move with the PRNG.
        let strategy = SamplingStrategy::Random { per_pe: 4, seed: 7 };
        let idxs: Vec<usize> = (0..4).map(|k| strategy.index(3, k, 4, 1000)).collect();
        assert_eq!(idxs, [799, 328, 120, 975]);
    }

    #[test]
    fn degenerate_strategies_still_work() {
        // One sample per process; oversample bigger than the partition.
        let (ok, _) = run_strategy(SamplingStrategy::Regular { per_pe: 1 }, Dist::Random);
        assert!(ok);
        let (ok2, _) = run_strategy(SamplingStrategy::Oversample { factor: 1000 }, Dist::Random);
        assert!(ok2);
    }
}
