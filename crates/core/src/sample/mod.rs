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
//! Like radix sort, the algorithm is written once (`sort_with_comm`)
//! against the crate's private `Communicator` trait, the same one the
//! radix skeleton uses; the model decides how splitters are selected (group
//! collectors vs redundant allgathered sorts), how counts are replicated,
//! and what transport moves the buckets. The four `Sample*` rows of
//! [`crate::Algorithm`] pair it with a communicator:
//!
//! | algorithm | splitters and counts | key exchange |
//! |---|---|---|
//! | `SampleCcsas` | group collectors publish through shared memory | contiguous *remote reads* — no remote writes at all, which is why CC-SAS sample sort stays competitive at every size (Figure 7) |
//! | `SampleMpiStaged`, `SampleMpiDirect` | `MPI_Allgather`, redundant local sort on every rank | exactly one message per process pair, so MPI's per-message costs hurt far less than in radix sort (Figure 2 vs Figure 1) |
//! | `SampleShmem` | `shmem_fcollect`, otherwise as MPI | the send/receive pair becomes a one-sided `get` |

use ccsort_machine::{ArrayId, Machine, Placement};

use crate::comm::{Communicator, ExchangePlan};
use crate::common::{local_radix_sort, n_passes, part_range};
use crate::costs;
use crate::runtime::write_fixed;

/// Samples taken per process (the paper's choice).
pub const SAMPLES_PER_PE: usize = 128;

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

/// The one parallel sample sort, parameterized over the programming model.
///
/// Sorts `keys[0]` (partitioned over all processors), using `keys[1]` and
/// two freshly allocated arrays as scratch. Returns the array holding the
/// fully sorted result (process regions concatenated in rank order).
#[allow(clippy::too_many_arguments)]
pub(crate) fn sort_with_comm(
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
        m.gather_run(pe, sorted, &idxs[..timed], &mut local_samples[..timed]);
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
    use crate::dist::Dist;
    use crate::driver::{run_experiment, Algorithm, ExpConfig, ExpResult};

    /// One experiment on the 1/64-scale machine the unit tests share.
    fn run(alg: Algorithm, n: usize, p: usize, r: u32) -> ExpResult {
        let res = run_experiment(&ExpConfig::new(alg, n, p).radix_bits(r).scale(64));
        assert!(res.verified, "{alg:?} n={n} p={p} r={r}");
        res
    }

    #[test]
    fn handles_more_groups_than_one() {
        // p = 64 exercises the two-group CC-SAS collection path (GROUP=32).
        let cfg = ExpConfig::new(Algorithm::SampleCcsas, 64 * 64, 64).scale(64);
        assert!(run_experiment(&cfg.dist(Dist::Random).seed(17)).verified);
    }

    #[test]
    fn no_remote_writes_in_exchange() {
        // CC-SAS sample sort communicates with remote reads; the writes all
        // target the process's own recv region. We can't observe "remote
        // write" directly, but invalidation counts during the whole sort
        // should be far below radix CC-SAS on the same input.
        let invalidations = |alg| {
            run(alg, 8192, 8, 8).events.iter().map(|e| e.invalidations).sum::<u64>()
        };
        let inv_sample = invalidations(Algorithm::SampleCcsas);
        let inv_radix = invalidations(Algorithm::RadixCcsas);
        assert!(
            inv_sample * 2 < inv_radix,
            "sample CC-SAS invalidations ({inv_sample}) should be well below radix CC-SAS ({inv_radix})"
        );
    }

    #[test]
    fn one_message_per_pair_in_exchange() {
        // Messages per rank: p-1 sample-allgather + p-1 count-allgather +
        // at most p-1 data messages.
        let p = 4;
        for (pe, e) in run(Algorithm::SampleMpiDirect, 8192, p, 8).events.iter().enumerate() {
            assert!(e.messages <= 3 * (p as u64 - 1), "pe {pe} sent {} messages", e.messages);
        }
    }

    #[test]
    fn staged_and_direct_agree_on_output() {
        // Both verify against the same sorted input, so they agree.
        let ta = run(Algorithm::SampleMpiDirect, 4096, 8, 11).parallel_ns;
        let tb = run(Algorithm::SampleMpiStaged, 4096, 8, 11).parallel_ns;
        assert!(tb > ta, "staged ({tb}) must be slower than direct ({ta})");
    }

    #[test]
    fn shmem_beats_mpi_on_time() {
        // One-sided exchange and cheap collectives: SHMEM sample sort must
        // be at least as fast as MPI sample sort on the same input.
        let t_shmem = run(Algorithm::SampleShmem, 8192, 8, 8).parallel_ns;
        let t_mpi = run(Algorithm::SampleMpiDirect, 8192, 8, 8).parallel_ns;
        assert!(t_shmem < t_mpi, "SHMEM {t_shmem} vs MPI {t_mpi}");
    }
}

#[cfg(test)]
mod strategy_tests {
    use super::SamplingStrategy;
    use crate::dist::Dist;
    use crate::driver::{run_experiment, Algorithm, ExpConfig};

    fn run_strategy(strategy: SamplingStrategy, dist: Dist) -> (bool, f64) {
        let cfg = ExpConfig::new(Algorithm::SampleShmem, 1 << 14, 8).scale(64);
        let res = run_experiment(&cfg.dist(dist).seed(3).sampling(strategy));
        (res.verified, res.imbalance())
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
