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
//!
//! The timing half of the contract is [`radix_rows_simulate_bit_for_bit`]:
//! every radix row's simulated time, event counters and phase breakdowns,
//! hashed and pinned, in debug and release builds alike.

use ccsort::algos::dist::{generate, Dist};
use ccsort::algos::{load_keys, run_experiment, Algorithm, ExpConfig, SamplingStrategy};
use ccsort::machine::{Machine, MachineConfig};
use ccsort_rng::mix64;

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

/// One `u64` over everything a run measured: `parallel_ns`'s bits, every
/// PE's twelve event counters, and each section's name and breakdown bits,
/// in order.
fn fingerprint(alg: Algorithm, p: usize) -> u64 {
    let res = run_experiment(&ExpConfig::new(alg, N, p).dist(Dist::Gauss).scale(64));
    assert!(res.verified, "{} p={p}", alg.name());
    let mut words = vec![res.parallel_ns.to_bits()];
    for e in &res.events {
        words.extend([
            e.l1_hits,
            e.cache_hits,
            e.misses_local,
            e.misses_remote,
            e.interventions,
            e.invalidations,
            e.upgrades,
            e.updates,
            e.writebacks,
            e.tlb_misses,
            e.messages,
            e.message_bytes,
        ]);
    }
    for (name, t) in &res.sections {
        words.extend(name.bytes().map(u64::from));
        words.extend([t.busy, t.lmem, t.rmem, t.sync].map(f64::to_bits));
    }
    words.into_iter().fold(0, |h, w| mix64(h ^ w))
}

/// The seven radix rows at n = 2048, Gauss keys, 1/64 scale, p = 4 and 7:
/// a changed loop order, barrier, section or allocation in any transport
/// moves its row's hash.
#[test]
fn radix_rows_simulate_bit_for_bit() {
    const PINNED: [(Algorithm, [u64; 2]); 7] = [
        (Algorithm::RadixCcsas, [0xce91857e4db8bd18, 0x6caa3e0dfc7ca92e]),
        (Algorithm::RadixCcsasNew, [0x056a07e10f5ef527, 0x1c8fd6f66591cf68]),
        (Algorithm::RadixMpiStaged, [0xb1e88df87a8f46aa, 0x096fff60ff750f89]),
        (Algorithm::RadixMpiDirect, [0x35b2d28e2e156069, 0x815537a3a848c0f7]),
        (Algorithm::RadixMpiCoalesced, [0xd21e37392ca9bd23, 0xe1eac54c1207f267]),
        (Algorithm::RadixShmem, [0xbabaa6876128faab, 0x79caba1207c2b3f3]),
        (Algorithm::RadixShmemPut, [0xa39e923a4f7dc420, 0xfe692d83a13480eb]),
    ];
    let mut moved = Vec::new();
    for (alg, pinned) in PINNED {
        let got = [4, 7].map(|p| fingerprint(alg, p));
        if got != pinned {
            moved.push(format!("        (Algorithm::{alg:?}, [{:#018x}, {:#018x}]),", got[0], got[1]));
        }
    }
    assert!(
        moved.is_empty(),
        "simulated radix timing moved. If the change is meant to move it, \
         replace these rows of PINNED with the lines below and regenerate \
         results/golden_quick.txt in the same commit:\n{}",
        moved.join("\n")
    );
}
