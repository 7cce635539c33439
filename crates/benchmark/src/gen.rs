//! Input generators. Everything a workload sorts is a function of the
//! `--seed` argument alone; the programs under test only ever see the
//! generated arrays.

/// SplitMix64 (Steele, Lea & Flood): one add and three xor-shift-multiply
/// rounds per draw, full 2^64 period, and every seed is a good seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// SplitMix64's output function; also the hash behind the verifier's
/// multiset fingerprint.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` uniform `u32` keys.
pub fn uniform_u32(seed: u64, n: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| (rng.next_u64() >> 32) as u32).collect()
}

/// Zipf(θ) ranks over `1..=domain` by rejection-inversion (Hörmann &
/// Derflinger 1996): O(1) per draw with no table, so a 2^24 domain costs
/// no set-up memory.
pub struct Zipf {
    theta: f64,
    domain: f64,
    h_x1: f64,
    h_n: f64,
    s: f64,
}

impl Zipf {
    pub fn new(domain: u64, theta: f64) -> Self {
        assert!(domain >= 1 && theta > 0.0);
        let mut z = Zipf {
            theta,
            domain: domain as f64,
            h_x1: 0.0,
            h_n: 0.0,
            s: 0.0,
        };
        z.h_x1 = z.h_integral(1.5) - 1.0;
        z.h_n = z.h_integral(z.domain + 0.5);
        z.s = 2.0 - z.h_integral_inv(z.h_integral(2.5) - z.h(2.0));
        z
    }

    /// One rank in `1..=domain`; rank 1 is the most frequent.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.domain);
            if k - x <= self.s || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k as u64;
            }
        }
    }

    fn h(&self, x: f64) -> f64 {
        (-self.theta * x.ln()).exp()
    }

    fn h_integral(&self, x: f64) -> f64 {
        let lx = x.ln();
        expm1_over_x((1.0 - self.theta) * lx) * lx
    }

    fn h_integral_inv(&self, x: f64) -> f64 {
        let t = (x * (1.0 - self.theta)).max(-1.0);
        (ln1p_over_x(t) * x).exp()
    }
}

fn ln1p_over_x(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

fn expm1_over_x(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

/// `n` Zipf(θ)-distributed `u64` keys below `domain` (a power of two). Ranks
/// are scattered over the domain by an odd multiplier — a bijection modulo a
/// power of two — so the heavy hitters are not all small numbers.
pub fn zipf_u64(seed: u64, n: usize, domain: u64, theta: f64) -> Vec<u64> {
    assert!(domain.is_power_of_two());
    let zipf = Zipf::new(domain, theta);
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (zipf.sample(&mut rng) - 1).wrapping_mul(0x9E37_79B1) & (domain - 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567, from the reference C implementation.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn seeds_change_the_keys() {
        assert_eq!(uniform_u32(7, 1000), uniform_u32(7, 1000));
        assert_ne!(uniform_u32(7, 1000), uniform_u32(8, 1000));
        assert_ne!(
            zipf_u64(7, 1000, 1 << 24, 1.1),
            zipf_u64(8, 1000, 1 << 24, 1.1)
        );
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let domain = 1u64 << 24;
        let zipf = Zipf::new(domain, 1.1);
        let mut rng = SplitMix64::new(42);
        let n = 100_000;
        let mut rank1 = 0usize;
        let mut rank2 = 0usize;
        for _ in 0..n {
            let k = zipf.sample(&mut rng);
            assert!((1..=domain).contains(&k));
            rank1 += usize::from(k == 1);
            rank2 += usize::from(k == 2);
        }
        // P(1) = 1/H(2^24, 1.1) ≈ 0.12; P(2)/P(1) = 2^-1.1 ≈ 0.47.
        let p1 = rank1 as f64 / n as f64;
        assert!((0.09..0.16).contains(&p1), "P(rank 1) = {p1}");
        let ratio = rank2 as f64 / rank1 as f64;
        assert!((0.40..0.54).contains(&ratio), "P(2)/P(1) = {ratio}");
        assert!(zipf_u64(1, 1000, domain, 1.1).iter().all(|&k| k < domain));
    }
}
