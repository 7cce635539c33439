//! Order statistics. Every reported time is a median or a percentile, never
//! a mean: one descheduled op must not move the number.

/// Sorted copy; panics on NaN, which no measurement here can produce.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Median of an ascending, non-empty slice (mean of the middle two when even).
pub fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values))
}

/// Nearest-rank percentile `q` in `[0, 1]` of an ascending, non-empty slice.
pub fn percentile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile that still has ten samples beyond it, as
/// `(quantile, value)`. With ten samples or fewer there is no such
/// percentile and the maximum is returned with quantile 1.
pub fn tail_sorted(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    assert!(n > 0, "tail of no samples");
    if n > 10 {
        ((n - 10) as f64 / n as f64, v[n - 11])
    } else {
        (1.0, v[n - 1])
    }
}

/// `[q1, q2, q3]` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the "exclusive" method) computes them, so `aa` reproduces the pipeline's
/// own spread figure. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Throughput as the median over `slices` equal-op-count slices of the timed
/// window: `ends_ns[i]` is the timed clock when op `i` finished, and every op
/// carries `keys_per_op` keys. A burst of interference slows a slice or two
/// and leaves the median alone, where the window mean would move.
pub fn median_slice_rate(ends_ns: &[u64], keys_per_op: u64, slices: usize) -> f64 {
    let n = ends_ns.len();
    assert!(n >= slices && slices > 0, "need at least one op per slice");
    let mut rates = Vec::with_capacity(slices);
    let mut prev_end = 0u64;
    for s in 0..slices {
        let lo = s * n / slices;
        let hi = (s + 1) * n / slices;
        let wall_ns = ends_ns[hi - 1] - prev_end;
        prev_end = ends_ns[hi - 1];
        rates.push(((hi - lo) as u64 * keys_per_op) as f64 / (wall_ns as f64 / 1e9));
    }
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn median_percentile_and_tail() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(tail_sorted(&v), (0.9, 90.0));
        assert_eq!(tail_sorted(&v[..5]), (1.0, 5.0));
    }

    #[test]
    fn one_slow_slice_does_not_move_the_rate() {
        // 100 ops of 1 ms each, except ops 40..50 take 10 ms.
        let mut t = 0u64;
        let ends: Vec<u64> = (0..100)
            .map(|i| {
                t += if (40..50).contains(&i) {
                    10_000_000
                } else {
                    1_000_000
                };
                t
            })
            .collect();
        assert_eq!(median_slice_rate(&ends, 1000, 10), 1e6);
    }
}
