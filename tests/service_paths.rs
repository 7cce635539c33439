//! Deterministic coverage of the sorting service — threaded executors,
//! the coalescing batcher's split-back, backpressure, and steady-state
//! scratch reuse — sized for the curated ThreadSanitizer CI tier: real
//! threads, real condvar wake-ups and batch claims, no generate-and-check loops.
//!
//! (The arbitrary-split / arbitrary-flush-timing equivalence properties
//! live in `tests/prop_service.rs`; this file is the fixed-seed subset
//! whose behaviour is identical on every run, so a TSan report here is
//! always reproducible.)

use ccsort::parallel::{par_radix_sort_pairs_with, par_radix_sort_with};
use ccsort::service::{ServiceConfig, SortService, SubmitError, COALESCE_GATE_KEYS};

/// Deterministic keys (splitmix64) — the same arrays on every run.
fn keys(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = ccsort_rng::SplitMix64::seed_from_u64(seed);
    (0..n).map(|_| rng.random()).collect()
}

fn keys64(n: usize, seed: u64) -> Vec<u64> {
    keys(n, seed).into_iter().map(|k| (k as u64) << 3 | (seed & 7)).collect()
}

/// Mixed request sizes on both sides of the size gate: the small ones
/// coalesce, the 511- and 1024-key ones are claimed alone.
fn sizes() -> Vec<usize> {
    (0..48).map(|i| [3, 17, 64, 130, 511, 1024][i % 6] + i).collect()
}

#[test]
fn threaded_service_matches_solo_sorts_u32() {
    let svc = SortService::start(ServiceConfig {
        executors: 3,
        max_wait_us: 50,
        max_batch_bytes: 1 << 14,
        ..ServiceConfig::default()
    })
    .unwrap();
    let cfg = ServiceConfig::default().sort;
    let tickets: Vec<_> = sizes()
        .into_iter()
        .enumerate()
        .map(|(i, n)| {
            let input = keys(n, 0xA000 + i as u64);
            let mut solo = input.clone();
            par_radix_sort_with(&mut solo, &cfg);
            (svc.submit_u32(input).unwrap(), solo)
        })
        .collect();
    for (t, solo) in tickets {
        assert_eq!(t.wait().keys, solo, "service reply diverges from solo sort");
    }
    let stats = svc.shutdown();
    assert_eq!(stats.completed, 48);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn threaded_service_pairs_are_stable_and_identical() {
    let svc = SortService::start(ServiceConfig {
        executors: 2,
        max_wait_us: 50,
        ..ServiceConfig::default()
    })
    .unwrap();
    let cfg = ServiceConfig::default().sort;
    let tickets: Vec<_> = (0..24)
        .map(|i| {
            // Few distinct keys → heavy duplication, so stability is load-
            // bearing: payloads of equal keys must keep submission order.
            let n = 200 + 13 * i;
            let k: Vec<u64> = keys64(n, i as u64).iter().map(|x| x % 9).collect();
            let v: Vec<u64> = (0..n as u64).collect();
            let (mut sk, mut sv) = (k.clone(), v.clone());
            par_radix_sort_pairs_with(&mut sk, &mut sv, &cfg);
            (svc.submit_pairs_u64(k, v).unwrap(), sk, sv)
        })
        .collect();
    for (t, sk, sv) in tickets {
        let r = t.wait();
        assert_eq!((r.keys, r.vals), (sk, sv), "pairs reply diverges from solo sort");
    }
    svc.shutdown();
}

#[test]
fn backpressure_is_bounded_and_explicit() {
    // Deterministic overload: no executor drains the queue, so admission
    // control is the only thing standing between the client and the
    // service's memory. The bound must hold exactly and every request
    // past it must be rejected explicitly with its buffers intact.
    let limit = 16usize;
    let svc = SortService::start(ServiceConfig {
        executors: 0,
        queue_limit: limit,
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for i in 0..4 * limit {
        let input = keys(32, i as u64);
        match svc.submit_u32(input.clone()) {
            Ok(t) => accepted.push((t, input)),
            Err(SubmitError::Rejected { keys: k, pending, .. }) => {
                assert_eq!(k, input, "rejected buffer must come back untouched");
                assert_eq!(pending, limit, "rejection must happen exactly at the bound");
                rejected += 1;
            }
            Err(e) => panic!("unexpected submit error: {e:?}"),
        }
        assert!(svc.pending() <= limit, "queue exceeded its bound");
    }
    assert_eq!(accepted.len(), limit);
    assert_eq!(rejected, 3 * limit as u64);
    assert_eq!(svc.stats().rejected, rejected);
    // The accepted requests still complete correctly after the storm.
    svc.drain_all();
    for (t, input) in accepted {
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(t.wait().keys, expect);
    }
    let stats = svc.shutdown();
    assert_eq!(stats.completed, limit as u64);
}

/// Submit `keys`/`vals` until the service accepts them, handing every
/// rejected buffer straight back in and counting the rejections.
fn submit_until_accepted<K, P, T>(
    mut kv: (Vec<K>, Vec<P>),
    rejected: &mut u64,
    submit: impl Fn(Vec<K>, Vec<P>) -> Result<T, SubmitError<K, P>>,
) -> T {
    loop {
        match submit(kv.0, kv.1) {
            Ok(t) => return t,
            Err(SubmitError::Rejected { keys, vals, .. }) => kv = (keys, vals),
            Err(SubmitError::ShuttingDown { .. }) => panic!("service shut down under load"),
        }
        *rejected += 1;
        std::thread::sleep(std::time::Duration::from_micros(20));
    }
}

#[test]
fn overload_with_live_executors_resubmits_and_matches_solo_sorts() {
    // A 4-deep queue in front of one running executor: submissions outrun
    // it, and every rejected buffer goes back in until it is accepted.
    // Whether any submission is rejected depends on timing, so only the
    // bookkeeping is asserted: the client's count and the service's agree.
    let svc =
        SortService::start(ServiceConfig { executors: 1, queue_limit: 4, ..ServiceConfig::default() })
            .unwrap();
    let cfg = ServiceConfig::default().sort;
    let mut rejected = 0u64;
    let (mut singles, mut pairs) = (Vec::new(), Vec::new());
    for i in 0..64usize {
        // Both sides of the 256-key gate, up to 2^16 keys.
        let n = [7, 100, 255, 256, 1_000, 4_096, 16_384, 65_472][i % 8] + i / 8;
        let input = keys(n, 0xC000 + i as u64);
        let mut solo = input.clone();
        par_radix_sort_with(&mut solo, &cfg);
        let t = submit_until_accepted((input, vec![]), &mut rejected, |k, _| svc.submit_u32(k));
        singles.push((t, solo));
        if i % 10 == 9 {
            let n = [50, 300, 5_000][pairs.len() % 3] + i;
            let k: Vec<u64> = keys64(n, i as u64).iter().map(|x| x % 17).collect();
            let v: Vec<u64> = (0..n as u64).collect();
            let (mut sk, mut sv) = (k.clone(), v.clone());
            par_radix_sort_pairs_with(&mut sk, &mut sv, &cfg);
            let t = submit_until_accepted((k, v), &mut rejected, |k, v| svc.submit_pairs_u64(k, v));
            pairs.push((t, sk, sv));
        }
    }
    let requests = (singles.len() + pairs.len()) as u64;
    for (t, solo) in singles {
        assert_eq!(t.wait().keys, solo, "service reply diverges from solo sort");
    }
    for (t, sk, sv) in pairs {
        let r = t.wait();
        assert_eq!((r.keys, r.vals), (sk, sv), "pairs reply diverges from solo sort");
    }
    let stats = svc.shutdown();
    assert_eq!(stats.completed, requests);
    assert_eq!(stats.rejected, rejected, "client and service disagree on rejections");
}

#[test]
fn steady_state_serving_allocates_no_scratch() {
    // Same-shaped waves through the deterministic drain: after the first
    // wave has shaped every engine buffer, the reallocation counter must
    // go flat — the data plane allocates nothing per request. Requests sit
    // below the size gate, so a wave is one coalesced batch.
    const KEYS: usize = 200;
    const _: () = assert!(KEYS < COALESCE_GATE_KEYS);
    let svc = SortService::start(ServiceConfig { executors: 0, ..ServiceConfig::default() })
        .unwrap();
    let mut warm = None;
    for wave in 0..4u64 {
        let tickets: Vec<_> = (0..16)
            .map(|i| svc.submit_u32(keys(KEYS, wave * 100 + i)).unwrap())
            .collect();
        svc.drain_all();
        for t in tickets {
            let r = t.wait();
            assert!(r.keys.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(r.batch_requests, 16, "whole wave should share one batch");
        }
        match warm {
            None => warm = Some(svc.stats().scratch_reallocations),
            Some(w) => assert_eq!(
                svc.stats().scratch_reallocations,
                w,
                "steady-state wave {wave} grew an engine buffer"
            ),
        }
    }
    svc.shutdown();
}

/// The queue shape of the gate tests: `s` = a below-gate request, `B` = one
/// at or above the gate.
const GATE_QUEUE: [bool; 8] = [false, false, true, false, true, true, false, false];
/// How `[s, s, B, s, B, B, s, s]` must drain: runs of `s` coalesce, every
/// `B` goes alone, nothing overtakes.
const GATE_BATCHES: [usize; 6] = [2, 1, 1, 1, 1, 2];

fn gate_queue_len(i: usize, big: bool) -> usize {
    if big {
        COALESCE_GATE_KEYS + 37 * i
    } else {
        40 + 11 * i
    }
}

#[test]
fn size_gate_drains_fifo_runs_on_the_keys_lane() {
    let svc = SortService::start(ServiceConfig { executors: 0, ..ServiceConfig::default() })
        .unwrap();
    let mut tickets: Vec<_> = GATE_QUEUE
        .iter()
        .enumerate()
        .map(|(i, &big)| {
            let input = keys(gate_queue_len(i, big), 0xB000 + i as u64);
            let mut solo = input.clone();
            solo.sort();
            Some((svc.submit_u32(input).unwrap(), solo))
        })
        .collect();
    let mut done = 0;
    for (b, &want) in GATE_BATCHES.iter().enumerate() {
        assert!(svc.drain_one(), "batch {b} must be claimable");
        // Exactly the next `want` requests completed, in submission order.
        for slot in &mut tickets[done..done + want] {
            let (t, solo) = slot.take().unwrap();
            let r = t.try_wait().unwrap_or_else(|| panic!("batch {b} skipped a request"));
            assert_eq!(r.batch_requests as usize, want, "batch {b}");
            assert_eq!(r.keys, solo, "reply diverges from a solo sort");
        }
        done += want;
        for (t, _) in tickets[done..].iter().flatten() {
            assert!(t.try_wait().is_none(), "batch {b} overtook the queue");
        }
    }
    assert!(!svc.drain_one());
    let stats = svc.shutdown();
    assert_eq!((stats.batches, stats.completed, stats.coalesced_requests), (6, 8, 4));
}

#[test]
fn size_gate_drains_fifo_runs_on_the_pairs_lane() {
    let svc = SortService::start(ServiceConfig { executors: 0, ..ServiceConfig::default() })
        .unwrap();
    let tickets: Vec<_> = GATE_QUEUE
        .iter()
        .enumerate()
        .map(|(i, &big)| {
            // Nine distinct keys: stability decides most of the order.
            let n = gate_queue_len(i, big);
            let k: Vec<u64> = keys64(n, i as u64).iter().map(|x| x % 9).collect();
            let v: Vec<u64> = (0..n as u64).map(|j| j * 8 + i as u64).collect();
            let mut solo: Vec<(u64, u64)> = k.iter().copied().zip(v.iter().copied()).collect();
            solo.sort_by_key(|p| p.0); // stable
            (svc.submit_pairs_u64(k, v).unwrap(), solo)
        })
        .collect();
    svc.drain_all();
    // Request i's batch size: each batch of b requests contributes b entries.
    let want = GATE_BATCHES.iter().flat_map(|&b| std::iter::repeat_n(b, b));
    for (i, ((t, solo), want)) in tickets.into_iter().zip(want).enumerate() {
        let r = t.wait();
        assert_eq!(r.batch_requests as usize, want, "request {i}");
        let got: Vec<(u64, u64)> = r.keys.into_iter().zip(r.vals).collect();
        assert_eq!(got, solo, "pairs reply {i} diverges from a solo stable sort");
    }
    assert_eq!(svc.shutdown().batches, 6);
}

#[test]
fn the_gate_is_a_key_count_and_is_inclusive() {
    // Two requests of n keys each: one batch of two below the gate, two
    // batches of one at it and above — on every lane, whatever the bytes.
    for (n, want) in [
        (COALESCE_GATE_KEYS - 1, 2),
        (COALESCE_GATE_KEYS, 1),
        (COALESCE_GATE_KEYS + 1, 1),
    ] {
        let svc = SortService::start(ServiceConfig { executors: 0, ..ServiceConfig::default() })
            .unwrap();
        let a: Vec<_> = (0..2).map(|i| svc.submit_u32(keys(n, i)).unwrap()).collect();
        let b: Vec<_> = (0..2).map(|i| svc.submit_u64(keys64(n, i)).unwrap()).collect();
        let c: Vec<_> = (0..2)
            .map(|i| svc.submit_pairs_u64(keys64(n, i), vec![7; n]).unwrap())
            .collect();
        svc.drain_all();
        for t in a {
            assert_eq!(t.wait().batch_requests, want, "u32 lane, {n} keys");
        }
        for t in b {
            assert_eq!(t.wait().batch_requests, want, "u64 lane, {n} keys");
        }
        for t in c {
            assert_eq!(t.wait().batch_requests, want, "pairs lane, {n} keys");
        }
        svc.shutdown();
    }
}

#[test]
fn stats_include_a_request_before_its_ticket_resolves() {
    // The executor publishes a batch's counters before it sends the
    // replies, so a client back from `wait()` never reads stats that lag
    // its own request.
    let svc = SortService::start(ServiceConfig {
        executors: 1,
        max_wait_us: 0,
        ..ServiceConfig::default()
    })
    .unwrap();
    for i in 1..=1000u64 {
        let n = 8 + (i as usize % 5) * 100;
        let reply = svc.submit_u32(keys(n, i)).unwrap().wait();
        assert_eq!(reply.keys.len(), n);
        let stats = svc.stats();
        assert!(stats.completed >= i, "completed = {} after reply {i}", stats.completed);
        assert!(stats.batches >= i, "batches = {} after reply {i}", stats.batches);
    }
    let stats = svc.shutdown();
    assert_eq!((stats.completed, stats.batches), (1000, 1000));
}

#[test]
fn flush_window_completes_a_lone_request() {
    // A single tiny request at idle must not wait for the byte threshold:
    // the max_wait_us window flushes it. `wait()` blocking forever here
    // would be the bug; no drain call is made.
    let svc = SortService::start(ServiceConfig {
        executors: 1,
        max_wait_us: 100,
        max_batch_bytes: usize::MAX >> 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let t = svc.submit_u64(vec![5, 2, 9, 1]).unwrap();
    assert_eq!(t.wait().keys, vec![1, 2, 5, 9]);
    svc.shutdown();
}
