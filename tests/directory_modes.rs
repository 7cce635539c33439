//! Acceptance tests for the directory's sharer-set representations
//! (`DirectoryMode`): past the real machine's 64 processors, the sorted
//! output must not depend on which representation tracked the sharers —
//! the modes change invalidation *cost*, never *state* — and the
//! limited-pointer mode's broadcast-on-overflow must visibly inflate the
//! permutation phase's invalidation bill relative to full-map at the same
//! processor count.

use ccsort::algos::dist::generate;
use ccsort::algos::{
    load_keys, run_experiment, Algorithm, Dist, ExpConfig, ExpResult, SamplingStrategy,
};
use ccsort::machine::{DirectoryMode, Machine, MachineConfig};

const MODES: [DirectoryMode; 3] = [
    DirectoryMode::FullMap,
    DirectoryMode::LimitedPointer(8),
    DirectoryMode::CoarseVector(8),
];

/// The headline acceptance criterion: a p = 256 radix sort completes under
/// all three representations with bit-identical sorted output (each equals
/// `sort_unstable` of the one input), and the end-of-run machine audit is
/// clean in each (the imprecise modes satisfy the conservative-superset
/// invariants, they never under-invalidate).
#[test]
fn p256_radix_sort_output_is_representation_independent() {
    let (n, p, r) = (1 << 12, 256usize, 8u32);
    let input = generate(Dist::Gauss, n, p, r, 7);
    let mut expect = input.clone();
    expect.sort_unstable();

    for mode in MODES {
        let cfg = MachineConfig::origin2000(p).scaled_down(256).with_directory_mode(mode);
        let mut m = Machine::new(cfg);
        let keys = load_keys(&mut m, &input);
        let out = Algorithm::RadixCcsas.sort(&mut m, keys, n, r, SamplingStrategy::default());
        assert!(m.raw(out) == &expect[..], "dir={mode}: output is not the sorted input");
        assert_eq!(m.audit(), Vec::<String>::new(), "dir={mode}: machine audit failed");
    }
}

/// And the same independence through the experiment driver (which also
/// cross-checks the output against `sort_unstable` internally) for the
/// sample sort, whose splitter exchange shares lines much more widely
/// than the radix permutation does.
#[test]
fn p256_sample_sort_verifies_in_every_mode() {
    for mode in MODES {
        let res = run_experiment(
            &ExpConfig::new(Algorithm::SampleCcsas, 1 << 12, 256)
                .radix_bits(8)
                .dist(Dist::Stagger)
                .seed(7)
                .scale(256)
                .directory_mode(mode),
        );
        assert!(res.verified, "dir={mode}: output not a sorted permutation");
    }
}

/// Dir-i-B economics, end to end: with a 1-pointer directory every second
/// sharer overflows the entry, and each subsequent write broadcasts
/// invalidations to all other processors instead of the handful full-map
/// would target. At the same p the run must charge strictly more
/// invalidations, spend strictly more time in the permutation phase (the
/// scattered-remote-write phase where the broadcasts land), and finish
/// strictly later.
#[test]
fn limited_pointer_overflow_inflates_permutation_invalidation_cost() {
    let run = |mode: DirectoryMode| {
        run_experiment(
            &ExpConfig::new(Algorithm::RadixCcsas, 1 << 11, 16)
                .radix_bits(6)
                .dist(Dist::Gauss)
                .seed(0)
                .scale(256)
                .directory_mode(mode),
        )
    };
    let full = run(DirectoryMode::FullMap);
    let lp = run(DirectoryMode::LimitedPointer(1));
    assert!(full.verified && lp.verified);

    let invalidations =
        |r: &ExpResult| r.events.iter().map(|e| e.invalidations).sum::<u64>();
    assert!(
        invalidations(&lp) > invalidations(&full),
        "overflow broadcasts must inflate invalidations: lp={} full={}",
        invalidations(&lp),
        invalidations(&full)
    );

    let permute_ns = |r: &ExpResult| {
        r.sections
            .iter()
            .filter(|(name, _)| name == "permute")
            .map(|(_, t)| t.total())
            .sum::<f64>()
    };
    assert!(
        permute_ns(&lp) > permute_ns(&full),
        "broadcast cost must land in the permutation phase: lp={} full={}",
        permute_ns(&lp),
        permute_ns(&full)
    );
    assert!(
        lp.parallel_ns > full.parallel_ns,
        "total time must grow too: lp={} full={}",
        lp.parallel_ns,
        full.parallel_ns
    );
}

/// Coarse-vector over-targeting also costs more than full-map, but less
/// imprecision (wider groups track fewer distinct sharers) can only add
/// invalidations, never remove them: full-map <= cv across group sizes.
#[test]
fn coarse_vector_cost_is_monotone_in_imprecision() {
    let run = |mode: DirectoryMode| {
        run_experiment(
            &ExpConfig::new(Algorithm::RadixCcsas, 1 << 11, 16)
                .radix_bits(6)
                .dist(Dist::Gauss)
                .seed(0)
                .scale(256)
                .directory_mode(mode),
        )
    };
    let invalidations =
        |r: &ExpResult| r.events.iter().map(|e| e.invalidations).sum::<u64>();
    let full = invalidations(&run(DirectoryMode::FullMap));
    let cv4 = invalidations(&run(DirectoryMode::CoarseVector(4)));
    assert!(cv4 >= full, "coarse groups must not shrink the bill: cv4={cv4} full={full}");
}
