//! Acceptance tests for the directory past the real machine's 64
//! processors: at p = 256 the full map's sharer bit-vector spans four
//! words, and the sorted output must still be exact, with the directory's
//! invariants clean at the end of the run.

use ccsort::algos::dist::generate;
use ccsort::algos::{load_keys, run_experiment, Algorithm, Dist, ExpConfig, SamplingStrategy};
use ccsort::machine::{Machine, MachineConfig};

/// A p = 256 radix sort at radix 8 produces `sort_unstable` of its input,
/// and the end-of-run machine audit is clean.
#[test]
fn p256_radix_sort_output_is_representation_independent() {
    let (n, p, r) = (1 << 12, 256usize, 8u32);
    let input = generate(Dist::Gauss, n, p, r, 7);
    let mut expect = input.clone();
    expect.sort_unstable();

    let mut m = Machine::new(MachineConfig::origin2000(p).scaled_down(256));
    let keys = load_keys(&mut m, &input);
    let out = Algorithm::RadixCcsas.sort(&mut m, keys, n, r, SamplingStrategy::default());
    assert!(m.raw(out) == &expect[..], "output is not the sorted input");
    assert_eq!(m.audit(), Vec::<String>::new(), "machine audit failed");
}

/// The same at p = 256 through the experiment driver (which cross-checks
/// the output against `sort_unstable` internally) for the sample sort,
/// whose splitter exchange shares lines much more widely than the radix
/// permutation does.
#[test]
fn p256_sample_sort_verifies_in_every_mode() {
    let res = run_experiment(
        &ExpConfig::new(Algorithm::SampleCcsas, 1 << 12, 256)
            .radix_bits(8)
            .dist(Dist::Stagger)
            .seed(7)
            .scale(256),
    );
    assert!(res.verified, "output not a sorted permutation");
}
