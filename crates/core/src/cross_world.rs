//! The simulated and the threaded programs plan the same exchanges. Each
//! world starts from its own inputs — the machine's sorted partitions and
//! histograms, read through the simulated programs' own phases, and the
//! threaded ranks' parts, sorted and counted by `ccsort-parallel` — and
//! both feed `ccsort_parallel::plan`: the simulated per-PE received counts
//! must equal the threaded region sizes, and the radix piece lists must be
//! equal pass by pass.

use ccsort_machine::{Machine, MachineConfig};
use ccsort_parallel::plan::{self, Layout, RadixPlan, SAMPLES_PER_PART};
use ccsort_parallel::{radix_sort_with_scratch, RadixKey};

use crate::common::{local_histogram, n_passes, part_range};
use crate::dist::{generate, Dist, KEY_BITS};
use crate::driver::{load_keys, Algorithm};
use crate::{radix, sample, SamplingStrategy};

const N: usize = 1 << 12;
const R: u32 = 8;
const SEED: u64 = 18;

fn machine(p: usize, input: &[u32]) -> (Machine, [ccsort_machine::ArrayId; 2]) {
    let mut m = Machine::new(MachineConfig::origin2000(p).scaled_down(64));
    let keys = load_keys(&mut m, input);
    (m, keys)
}

/// The threaded ranks' parts of `keys`, each with where it starts.
fn parts(keys: &[u32], p: usize) -> Vec<(usize, Vec<u32>)> {
    (0..p).map(|i| (part_range(N, p, i).start, keys[part_range(N, p, i)].to_vec())).collect()
}

fn sample_regions_agree(dist: Dist, p: usize, input: &[u32]) {
    let (mut m, keys) = machine(p, input);
    let mut comm = Algorithm::SampleMpiDirect.communicator();
    let strategy = SamplingStrategy::default();
    let (_, layout) = sample::partition(&mut m, comm.as_mut(), keys, N, R, KEY_BITS, strategy);
    let simulated: Vec<usize> = (0..p).map(|j| layout.region(j).len()).collect();

    let s = plan::samples_per_part(SAMPLES_PER_PART, N, p);
    let mut parts = parts(input, p);
    for (_, part) in &mut parts {
        let mut scratch = vec![0; part.len()];
        radix_sort_with_scratch(part, &mut scratch, R);
    }
    let keys: Vec<u64> = parts.iter().flat_map(|(_, part)| plan::regular_samples(part, s)).collect();
    let splitters = plan::splitters(keys.into_iter().zip(plan::regular_positions(N, p, s)), p);
    let counts: Vec<Vec<u64>> = parts.iter().map(|(base, part)| plan::bucket_sizes(part, *base, &splitters)).collect();
    let layout = Layout::new(&counts);
    let threaded: Vec<usize> = (0..p).map(|j| layout.region(j).len()).collect();
    assert_eq!(simulated, threaded, "sample sort, {dist:?} p={p}");
}

fn radix_pieces_agree(dist: Dist, p: usize, input: &[u32]) {
    for pass in 0..n_passes(KEY_BITS, R) {
        // The machine after `pass` passes of the simulated program.
        let (mut m, keys) = machine(p, input);
        let src = if pass == 0 {
            keys[0]
        } else {
            let mut comm = Algorithm::RadixShmem.communicator();
            radix::sort(&mut m, comm.as_mut(), keys, N, R, pass * R)
        };
        let hists: Vec<Vec<u32>> =
            (0..p).map(|pe| local_histogram(&mut m, pe, src, part_range(N, p, pe), pass, R)).collect();
        let simulated = RadixPlan::new(&hists);

        // The threaded ranks hold the keys LSD-sorted on the passes so far.
        let mut keys = input.to_vec();
        keys.sort_by_key(|&k| k & ((1u64 << (pass * R)) - 1) as u32);
        let mask = (1u64 << R) - 1;
        let hists: Vec<Vec<u64>> = parts(&keys, p)
            .iter()
            .map(|(_, part)| {
                let mut hist = vec![0; 1 << R];
                part.iter().for_each(|k| hist[k.digit(pass * R, mask)] += 1);
                hist
            })
            .collect();
        let threaded = RadixPlan::new(&hists);
        for src in 0..p {
            assert_eq!(simulated.pieces(src), threaded.pieces(src), "radix sort, {dist:?} p={p} pass {pass} rank {src}");
        }
    }
}

#[test]
fn both_worlds_plan_the_same_exchanges() {
    for dist in Dist::ALL {
        for p in [3, 4, 8, 16] {
            let input = generate(dist, N, p, R, SEED);
            sample_regions_agree(dist, p, &input);
            radix_pieces_agree(dist, p, &input);
        }
    }
}
