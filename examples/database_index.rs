//! Building a database index — the application the paper's introduction
//! motivates ("sorting ... is a core utility for database systems in
//! organizing and indexing data") — as the sorting *service*'s seed
//! workload.
//!
//! ```text
//! cargo run --release --example database_index [rows]
//! ```
//!
//! Generates a table of synthetic orders keyed by a 64-bit composite
//! (customer id in the high bits, timestamp in the low bits) with a row-id
//! payload, then builds the index two ways:
//!
//! 1. **Monolithic**: one `par_radix_sort_pairs_with` over the whole table —
//!    the shape the original example had, kept as the reference.
//! 2. **As a service**: many concurrent client threads, each responsible
//!    for a shard of customers, submit one small index-build request per
//!    customer (that customer's keys + row ids) to a shared
//!    [`SortService`]. The request-coalescing batcher merges them into
//!    shared batches. The result is verified against the monolithic
//!    index, byte for byte.
//!
//! Per-customer indexes ordered by customer concatenate to exactly the
//! monolithic index: the composite key puts the customer in the high
//! bits, and both paths sort stably, so equal keys keep table order.

use std::time::Instant;

use ccsort::parallel::{par_radix_sort_pairs_with, RadixSortConfig};
use ccsort::service::{ServiceConfig, SortService};

mod support;

/// Pack (customer, timestamp) into one sortable key.
fn key(customer: u32, ts: u32) -> u64 {
    ((customer as u64) << 32) | ts as u64
}

fn main() {
    let rows = support::count_arg(1, "rows", 1 << 21);
    // Many customers → small per-customer requests (~128 keys at the
    // default row count): the many-small-concurrent-requests regime the
    // coalescing batcher exists for.
    let customers = 16384u32;
    let clients = 8usize;

    // Synthetic order stream: deterministic hash "random".
    let t = Instant::now();
    let table: Vec<(u64, u64)> = (0..rows as u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let customer = ((h >> 40) as u32) % customers;
            let ts = (h & 0xFFFF_FFFF) as u32;
            (key(customer, ts), i) // payload = row id
        })
        .collect();
    println!("generated {rows} orders in {:.1} ms", t.elapsed().as_secs_f64() * 1e3);

    // --- 1. the monolithic build: one big sort, the reference index. ---
    let mut mono_keys: Vec<u64> = table.iter().map(|&(k, _)| k).collect();
    let mut mono_rows: Vec<u64> = table.iter().map(|&(_, r)| r).collect();
    let t = Instant::now();
    par_radix_sort_pairs_with(&mut mono_keys, &mut mono_rows, &RadixSortConfig::default());
    println!("monolithic index build: {:.1} ms", t.elapsed().as_secs_f64() * 1e3);

    // --- 2. the service build: per-customer requests from many clients. ---
    // Bucket the table by customer once (the per-client request inputs).
    // Scanning rows in order keeps each request's duplicates in table
    // order, which is what makes the stable per-request sorts concatenate
    // to the stable monolithic one.
    let mut requests: Vec<(Vec<u64>, Vec<u64>)> =
        vec![(Vec::new(), Vec::new()); customers as usize];
    for &(k, r) in &table {
        let c = (k >> 32) as usize;
        requests[c].0.push(k);
        requests[c].1.push(r);
    }

    // The shipped defaults: ~128-key requests sit below the service's size
    // gate (`COALESCE_GATE_KEYS`), so they coalesce into cache-resident
    // batches of `max_batch_bytes`; only the queue is sized to the
    // workload.
    let svc =
        SortService::start(ServiceConfig { queue_limit: customers as usize, ..ServiceConfig::default() })
            .expect("valid service config");
    let t = Instant::now();
    // Each client thread owns a contiguous shard of customers and submits
    // one index-build request per customer, then waits for its replies —
    // many small concurrent requests, the regime the coalescing batcher
    // exists for. Each reply replaces its request's buffers in place.
    std::thread::scope(|s| {
        let svc = &svc;
        for shard in requests.chunks_mut(customers as usize / clients) {
            s.spawn(move || {
                let tickets: Vec<_> = shard
                    .iter_mut()
                    .map(|(k, v)| {
                        let (k, v) = (std::mem::take(k), std::mem::take(v));
                        svc.submit_pairs_u64(k, v).expect("queue sized to the workload")
                    })
                    .collect();
                for (t, slot) in tickets.into_iter().zip(shard.iter_mut()) {
                    let r = t.wait();
                    *slot = (r.keys, r.vals);
                }
            });
        }
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let stats = svc.shutdown();
    println!(
        "service index build: {ms:.1} ms — {} requests in {} batches (mean {:.1} req/batch)",
        stats.completed,
        stats.batches,
        stats.completed as f64 / stats.batches.max(1) as f64,
    );

    // Verify: per-customer indexes concatenate to the monolithic one.
    let mut off = 0usize;
    for (c, (k, v)) in requests.iter().enumerate() {
        assert_eq!(k[..], mono_keys[off..off + k.len()], "customer {c} keys diverge");
        assert_eq!(v[..], mono_rows[off..off + v.len()], "customer {c} row ids diverge");
        off += k.len();
    }
    assert_eq!(off, rows, "indexes cover the table");
    println!("service-built index verified byte-identical to the monolithic index");

    // Range queries against the monolithic index: all orders of a
    // customer, in time order.
    let t = Instant::now();
    let mut total = 0usize;
    for customer in (0..customers).step_by(97) {
        let lo = mono_keys.partition_point(|&k| k < key(customer, 0));
        let hi = mono_keys.partition_point(|&k| k < key(customer + 1, 0));
        let orders = &mono_keys[lo..hi];
        assert!(orders.iter().all(|&k| (k >> 32) as u32 == customer));
        assert!(orders.windows(2).all(|w| (w[0] & 0xFFFF_FFFF) <= (w[1] & 0xFFFF_FFFF)));
        total += orders.len();
    }
    println!(
        "answered {} range queries covering {total} orders in {:.2} ms",
        customers.div_ceil(97),
        t.elapsed().as_secs_f64() * 1e3
    );
}
