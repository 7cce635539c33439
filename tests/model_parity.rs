//! Model parity: every programming-model variant of each sort is the same
//! algorithm over a different transport, so on identical input every
//! variant must produce **bit-identical** sorted output — not merely "some
//! sorted permutation". This is the behavioural half of the communicator
//! refactor's contract: the skeleton owns the algorithm, the communicator
//! only moves bytes, so no (skeleton, communicator) pairing may disagree
//! with any other.
//!
//! The grid deliberately includes a non-power-of-two processor count: the
//! uneven partition boundaries (`n mod p != 0`) are where an off-by-one in
//! a transport's offset arithmetic would first diverge. This is the slice
//! of `ccsort-algos`' `driver::tests::conformance_table` that tier-1 runs
//! through the facade.

use ccsort::algos::dist::{generate, Dist};
use ccsort::algos::{load_keys, Algorithm, SamplingStrategy};
use ccsort::machine::{Machine, MachineConfig};

const N: usize = 2048;
const R: u32 = 8;
const SEED: u64 = 4242;

/// Every algorithm of one skeleton, on a fresh machine per (p, dist) cell,
/// against the sorted input — and so against each other.
fn all_agree(is_radix: bool) {
    for p in [4usize, 7] {
        for dist in [Dist::Gauss, Dist::Zero, Dist::Local] {
            let input = generate(dist, N, p, R, SEED);
            let mut expect = input.clone();
            expect.sort_unstable();
            for alg in Algorithm::ALL.into_iter().filter(|a| a.is_radix() == is_radix) {
                let mut m = Machine::new(MachineConfig::origin2000(p).scaled_down(64));
                let keys = load_keys(&mut m, &input);
                let out = alg.sort(&mut m, keys, N, R, SamplingStrategy::default());
                assert_eq!(m.raw(out), &expect[..], "{} diverged at p={p}, {dist:?}", alg.name());
            }
        }
    }
}

#[test]
fn all_radix_variants_agree_bit_for_bit() {
    all_agree(true);
}

#[test]
fn all_sample_models_agree_bit_for_bit() {
    all_agree(false);
}
