//! Property tests of the sorting service's one correctness claim:
//! however a workload is split into requests, and however the batcher's
//! flush timing groups those requests into batches, every request's reply
//! is byte-identical to a solo engine sort of that request alone.
//!
//! Flush timing is driven deterministically: `executors: 0` makes
//! [`SortService::drain_one`] the only pump, so interleaving submissions
//! with drains (and varying `max_batch_bytes`) explores arbitrary batch
//! compositions — from all-solo to one giant batch — without relying on
//! real-time windows. Request sizes straddle the size gate
//! (`COALESCE_GATE_KEYS`): every case mixes below-gate requests, which
//! coalesce, with at-or-above-gate ones, which are claimed alone between
//! them.

use ccsort::parallel::{par_radix_sort_pairs_with, par_radix_sort_with};
use ccsort::service::{ServiceConfig, SortService, SubmitError, COALESCE_GATE_KEYS};
use ccsort_rng::{check_cases, SplitMix64};

/// Split `workload` at the given fractional cut points into contiguous
/// request slices (some possibly empty — empty requests are legal). Each
/// `near_gate` entry then cuts one more request off the front of the
/// longest slice, `COALESCE_GATE_KEYS - 1 + entry` keys long, so sizes one
/// below, at and one above the gate occur whatever the random cuts did.
fn split_requests<T: Clone>(workload: &[T], cuts: &[usize], near_gate: &[usize]) -> Vec<Vec<T>> {
    let n = workload.len();
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (n + 1)).collect();
    bounds.push(0);
    bounds.push(n);
    for &delta in near_gate {
        bounds.sort_unstable();
        let longest = bounds.windows(2).max_by_key(|w| w[1] - w[0]).expect("two bounds");
        let cut = longest[0] + COALESCE_GATE_KEYS - 1 + delta;
        if cut < longest[1] {
            bounds.push(cut);
        }
    }
    bounds.sort_unstable();
    bounds.windows(2).map(|w| workload[w[0]..w[1]].to_vec()).collect()
}

/// Cases per property.
const CASES: u64 = 48;

/// Up to `max_len - 1` draws from `0..below`.
fn vec_below(rng: &mut SplitMix64, below: usize, max_len: usize) -> Vec<usize> {
    (0..rng.random_range(0..max_len)).map(|_| rng.random_range(0..below)).collect()
}

/// A service pumped only by `drain_one` / `drain_all`.
fn manual_service(max_batch_bytes: usize, queue_limit: usize) -> SortService {
    let cfg = ServiceConfig { executors: 0, max_batch_bytes, queue_limit, ..ServiceConfig::default() };
    SortService::start(cfg).unwrap()
}

/// Any split of a u32 workload into requests, any batch-size cap, any
/// drain interleaving: per-request replies equal solo sorts.
#[test]
fn coalesced_u32_equals_solo_any_split_any_flush() {
    let case = |rng: &mut SplitMix64| {
        let workload: Vec<u32> = (0..rng.random_range(0..6000)).map(|_| rng.random()).collect();
        let requests = split_requests(&workload, &vec_below(rng, 6000, 24), &vec_below(rng, 3, 4));
        (requests, rng.random_range(64usize..(1 << 16)), rng.random_range(1usize..6))
    };
    check_cases(CASES, case, |(requests, max_batch_bytes, drain_every)| {
        let svc = manual_service(*max_batch_bytes, 64);
        let cfg = ServiceConfig::default().sort;
        let mut tickets = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            let mut solo = req.clone();
            par_radix_sort_with(&mut solo, &cfg);
            tickets.push((svc.submit_u32(req.clone()).unwrap(), solo));
            // Interleave drains with submissions: every prefix of the
            // queue is a flush boundary somewhere in the case space.
            if (i + 1) % drain_every == 0 {
                svc.drain_one();
            }
        }
        svc.drain_all();
        for (t, solo) in tickets {
            assert_eq!(t.wait().keys, solo);
        }
        svc.shutdown();
    });
}

/// Pairs lane under heavy key duplication: split-back must preserve the
/// stable order of equal keys within every request.
#[test]
fn coalesced_pairs_equal_solo_and_stay_stable() {
    let case = |rng: &mut SplitMix64| {
        let workload: Vec<u64> = (0..rng.random_range(0..4000)).map(|_| rng.random_range(0..16)).collect();
        let requests = split_requests(&workload, &vec_below(rng, 4000, 16), &vec_below(rng, 3, 4));
        (requests, rng.random_range(256usize..(1 << 15)), rng.random_range(1usize..5))
    };
    check_cases(CASES, case, |(requests, max_batch_bytes, drain_every)| {
        let svc = manual_service(*max_batch_bytes, 64);
        let cfg = ServiceConfig::default().sort;
        let mut tickets = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            let vals: Vec<u64> = (0..req.len() as u64).collect();
            let (mut sk, mut sv) = (req.clone(), vals.clone());
            par_radix_sort_pairs_with(&mut sk, &mut sv, &cfg);
            tickets.push((svc.submit_pairs_u64(req.clone(), vals).unwrap(), sk, sv));
            if (i + 1) % drain_every == 0 {
                svc.drain_one();
            }
        }
        svc.drain_all();
        for (t, sk, sv) in tickets {
            let r = t.wait();
            assert_eq!(r.keys, sk);
            assert_eq!(r.vals, sv);
        }
        svc.shutdown();
    });
}

/// Overload: the queue never exceeds its bound, every over-limit
/// submission is rejected explicitly with its buffers intact, and the
/// accepted prefix still completes correctly.
#[test]
fn backpressure_bounds_memory_and_rejects_explicitly() {
    let case = |rng: &mut SplitMix64| {
        (rng.random_range(1usize..24), rng.random_range(0usize..40), rng.random_range(0usize..64))
    };
    check_cases(CASES, case, |&(queue_limit, extra, req_len)| {
        let svc = manual_service(ServiceConfig::default().max_batch_bytes, queue_limit);
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for i in 0..queue_limit + extra {
            let input: Vec<u32> = (0..req_len as u32).map(|j| j ^ (i as u32) << 5).collect();
            match svc.submit_u32(input.clone()) {
                Ok(t) => accepted.push((t, input)),
                Err(SubmitError::Rejected { keys, pending, .. }) => {
                    assert_eq!(keys, input);
                    assert_eq!(pending, queue_limit);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected submit error: {e:?}"),
            }
            assert!(svc.pending() <= queue_limit);
        }
        assert_eq!(accepted.len(), queue_limit);
        assert_eq!(rejected, extra as u64);
        svc.drain_all();
        for (t, input) in accepted {
            let mut expect = input;
            expect.sort_unstable();
            assert_eq!(t.wait().keys, expect);
        }
        let stats = svc.shutdown();
        assert_eq!(stats.completed, queue_limit as u64);
        assert_eq!(stats.rejected, extra as u64);
    });
}
