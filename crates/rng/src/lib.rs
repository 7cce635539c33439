//! # ccsort-rng
//!
//! The workspace's one pseudo-random generator. Key streams — and through
//! them `results/golden_quick.txt` — are defined by this file alone, so a
//! checkout reproduces every seeded number without a registry crate.
//!
//! * [`SplitMix64`] (Steele, Lea & Flood): one add and three
//!   xor-shift-multiply rounds per draw, full 2^64 period, every seed a
//!   good seed. [`SplitMix64::random`] and [`SplitMix64::random_range`]
//!   draw integers from it.
//! * [`mix64`]: its output function, for hashing a value that is already
//!   a counter.
//! * [`check_cases`] / [`check_case`]: the seeded generate-and-check loop
//!   the property tests run on. A failing case names its seed, and
//!   `check_case(seed, ..)` with the same closures replays it.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// SplitMix64's output function.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The generator whose state starts at `seed` (the reference
    /// implementation's seeding).
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// A uniform value of `T`: the low bits of one draw.
    #[inline]
    pub fn random<T: Random>(&mut self) -> T {
        T::from_bits(self.next_u64())
    }

    /// A uniform integer in `range` (`a..b` or `a..=b`), from one draw by
    /// multiply-shift. Panics on an empty range.
    #[inline]
    pub fn random_range<T: Int, R: SampleRange<T>>(&mut self, range: R) -> T {
        let (lo, hi) = range.inclusive_bounds();
        // Sign extension keeps differences, so `hi - lo` is the span less
        // one for signed types too.
        let offset = match hi.wrapping_sub(lo).checked_add(1) {
            Some(span) => ((self.next_u64() as u128 * span as u128) >> 64) as u64,
            None => self.next_u64(), // all 2^64 values
        };
        T::from_bits(lo.wrapping_add(offset))
    }
}

/// Types [`SplitMix64::random`] draws.
pub trait Random {
    /// The value the low bits of `bits` spell.
    fn from_bits(bits: u64) -> Self;
}

/// Integer types [`SplitMix64::random_range`] draws.
pub trait Int: Random + Copy + PartialOrd {
    /// `self` widened to 64 bits (sign-extended when signed).
    fn to_bits(self) -> u64;
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Random for $t {
            #[inline]
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
        }
        impl Int for $t {
            #[inline]
            fn to_bits(self) -> u64 {
                self as u64
            }
        }
    )*};
}
impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl Random for bool {
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits & 1 == 1
    }
}

/// The two range forms [`SplitMix64::random_range`] accepts.
pub trait SampleRange<T> {
    /// Lowest and highest value of the range, widened as [`Int::to_bits`]
    /// does. Panics if the range is empty.
    fn inclusive_bounds(self) -> (u64, u64);
}

impl<T: Int> SampleRange<T> for Range<T> {
    fn inclusive_bounds(self) -> (u64, u64) {
        assert!(self.start < self.end, "random_range: empty range");
        (self.start.to_bits(), self.end.to_bits().wrapping_sub(1))
    }
}

impl<T: Int> SampleRange<T> for RangeInclusive<T> {
    fn inclusive_bounds(self) -> (u64, u64) {
        assert!(self.start() <= self.end(), "random_range: empty range");
        (self.start().to_bits(), self.end().to_bits())
    }
}

/// One generate-and-check case: `generate` draws an input from the
/// generator seeded with `seed`, `check` asserts on it. When `check`
/// panics, its own message has already been reported; this then panics
/// naming the seed and the input.
pub fn check_case<T: Debug>(
    seed: u64,
    generate: impl Fn(&mut SplitMix64) -> T,
    check: impl Fn(&T),
) {
    let input = generate(&mut SplitMix64::seed_from_u64(seed));
    if catch_unwind(AssertUnwindSafe(|| check(&input))).is_err() {
        panic!("case seed {seed} failed; replay it with check_case({seed}, ..). Input: {input:?}");
    }
}

/// [`check_case`] for every seed in `0..cases`.
pub fn check_cases<T: Debug>(
    cases: u64,
    generate: impl Fn(&mut SplitMix64) -> T,
    check: impl Fn(&T),
) {
    for seed in 0..cases {
        check_case(seed, &generate, &check);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs for seed 1234567, from the reference C implementation.
        let mut rng = SplitMix64::seed_from_u64(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        // The output function is the generator less its counter.
        assert_eq!(mix64(1234567u64.wrapping_add(0x9E37_79B9_7F4A_7C15)), 6457827717110365317);
    }

    #[test]
    fn a_seed_fixes_the_stream() {
        let draw = |seed| {
            let mut rng = SplitMix64::seed_from_u64(seed);
            (rng.random::<u64>(), rng.random_range(0..1000u32), rng.random::<i16>(), rng.random::<bool>())
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn random_is_the_low_bits_of_one_draw() {
        let bits = SplitMix64::seed_from_u64(42).next_u64();
        let draw = || SplitMix64::seed_from_u64(42);
        assert_eq!(draw().random::<u64>(), bits);
        assert_eq!(draw().random::<u32>(), bits as u32);
        assert_eq!(draw().random::<u8>(), bits as u8);
        assert_eq!(draw().random::<i64>(), bits as i64);
        assert_eq!(draw().random::<i8>(), bits as i8);
        assert_eq!(draw().random::<usize>(), bits as usize);
        assert_eq!(draw().random::<bool>(), bits & 1 == 1);
    }

    /// Every draw lands in the range, and a range of few values sees all
    /// of them.
    fn stays_inside<T: Int + Debug>(lo: T, hi: T, small: Range<T>, values: usize) {
        let mut rng = SplitMix64::seed_from_u64(9);
        let mut seen = Vec::new();
        for _ in 0..2000 {
            let x = rng.random_range(lo..=hi);
            assert!(lo <= x && x <= hi, "{x:?} outside {lo:?}..={hi:?}");
            let y = rng.random_range(small.clone());
            assert!(small.start <= y && y < small.end, "{y:?} outside {small:?}");
            if !seen.contains(&y.to_bits()) {
                seen.push(y.to_bits());
            }
        }
        assert_eq!(seen.len(), values, "{small:?} not covered");
        assert_eq!(rng.random_range(lo..=lo), lo);
        assert_eq!(rng.random_range(hi..=hi), hi);
    }

    #[test]
    fn ranges_of_every_integer_type() {
        stays_inside(u8::MIN, u8::MAX, 250..255, 5);
        stays_inside(u16::MIN, u16::MAX, 7..10, 3);
        stays_inside(u32::MIN, u32::MAX, 0..8, 8);
        stays_inside(u64::MIN, u64::MAX, u64::MAX - 4..u64::MAX, 4);
        stays_inside(usize::MIN, usize::MAX, 1..12, 11);
        stays_inside(i8::MIN, i8::MAX, -3..3, 6);
        stays_inside(i16::MIN, i16::MAX, -1..1, 2);
        stays_inside(i32::MIN, i32::MAX, i32::MIN..i32::MIN + 5, 5);
        stays_inside(i64::MIN, i64::MAX, -2..2, 4);
    }

    #[test]
    fn single_value_and_half_open_ranges() {
        let mut rng = SplitMix64::seed_from_u64(1);
        assert_eq!(rng.random_range(5..6u32), 5);
        assert_eq!(rng.random_range(-7..=-7i64), -7);
        assert_eq!(rng.random_range(u64::MAX..=u64::MAX), u64::MAX);
    }

    #[test]
    fn full_width_range_is_the_raw_draw() {
        let bits = SplitMix64::seed_from_u64(3).next_u64();
        assert_eq!(SplitMix64::seed_from_u64(3).random_range(0..=u64::MAX), bits);
        assert_eq!(
            SplitMix64::seed_from_u64(3).random_range(i64::MIN..=i64::MAX),
            (bits as i64).wrapping_add(i64::MIN)
        );
    }

    #[test]
    fn a_u64_range_is_one_multiply_shift() {
        // The draw `core/dist.rs` makes for every seeded distribution.
        let bits = SplitMix64::seed_from_u64(271828).next_u64();
        let got = SplitMix64::seed_from_u64(271828).random_range(100..(1u64 << 31));
        assert_eq!(got, 100 + ((bits as u128 * ((1u128 << 31) - 100)) >> 64) as u64);
    }

    #[test]
    #[should_panic(expected = "random_range: empty range")]
    fn empty_half_open_range_panics() {
        SplitMix64::seed_from_u64(0).random_range(4..4u32);
    }

    #[test]
    #[should_panic(expected = "random_range: empty range")]
    #[allow(clippy::reversed_empty_ranges)]
    fn empty_inclusive_range_panics() {
        SplitMix64::seed_from_u64(0).random_range(5..=4i32);
    }

    #[test]
    fn check_cases_runs_every_seed_once() {
        let seen = std::cell::RefCell::new(Vec::new());
        check_cases(16, |rng| rng.random::<u64>(), |&x| seen.borrow_mut().push(x));
        let expect: Vec<u64> = (0..16).map(|s| SplitMix64::seed_from_u64(s).next_u64()).collect();
        assert_eq!(*seen.borrow(), expect);
    }

    #[test]
    fn a_failing_case_names_a_seed_that_replays_it() {
        let generate = |rng: &mut SplitMix64| rng.random_range(0..100u32);
        let check = |&x: &u32| assert!(x < 90, "forced failure on {x}");
        let message = |panic: Box<dyn std::any::Any + Send>| *panic.downcast::<String>().unwrap();
        let first = message(catch_unwind(|| check_cases(256, generate, check)).unwrap_err());
        let seed: u64 = first
            .strip_prefix("case seed ")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("the message starts with the seed");
        let input = generate(&mut SplitMix64::seed_from_u64(seed));
        assert!(input >= 90);
        assert!(first.ends_with(&format!("Input: {input}")), "{first}");
        let replay = message(catch_unwind(|| check_case(seed, generate, check)).unwrap_err());
        assert_eq!(replay, first);
    }
}
