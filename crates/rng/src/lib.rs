//! Self-contained deterministic pseudo-random number generation.
//!
//! The workspace must build with no network access, so it cannot depend on
//! the `rand` crate. This crate provides the small surface the simulator
//! and generators actually use — a seedable small-state generator with
//! `gen`, `gen_bool` and `gen_range` — behind the same call shapes, so a
//! call site only swaps its `use rand::...` imports for `use
//! atmem_rng::SmallRng`.
//!
//! The generator is xoshiro256++ seeded through splitmix64: fast,
//! well-distributed, and deterministic for a fixed seed (the property every
//! test and experiment relies on). The streams differ from `rand`'s
//! `SmallRng`, which is fine: nothing in the workspace depends on specific
//! draws, only on determinism, range bounds, and rough distribution shape.

use std::ops::{Range, RangeInclusive};

/// A small, fast, seedable generator (xoshiro256++).
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Creates a generator from a 64-bit seed via splitmix64 expansion.
    /// Deterministic: equal seeds produce equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        SmallRng { s }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next 32 uniformly distributed bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Draws a value of a [`Standard`]-sampleable type. Floats are uniform
    /// in `[0, 1)`.
    #[inline]
    pub fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.gen::<f64>() < p
    }

    /// Draws a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// Types drawable by [`SmallRng::gen`].
pub trait Standard: Sized {
    /// Draws one value.
    fn sample(rng: &mut SmallRng) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample(rng: &mut SmallRng) -> Self {
        // 53 high bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn sample(rng: &mut SmallRng) -> Self {
        // 24 high bits → uniform in [0, 1).
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    #[inline]
    fn sample(rng: &mut SmallRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u32 {
    #[inline]
    fn sample(rng: &mut SmallRng) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    #[inline]
    fn sample(rng: &mut SmallRng) -> Self {
        rng.next_u64()
    }
}

impl Standard for usize {
    #[inline]
    fn sample(rng: &mut SmallRng) -> Self {
        rng.next_u64() as usize
    }
}

/// Ranges drawable by [`SmallRng::gen_range`].
pub trait SampleRange {
    /// Element type of the range.
    type Output;
    /// Draws one value uniformly from the range.
    fn sample(self, rng: &mut SmallRng) -> Self::Output;
}

/// Uniform draw from `[0, span)` without modulo bias (Lemire's method).
#[inline]
fn uniform_below(rng: &mut SmallRng, span: u64) -> u64 {
    // Internal invariant: every caller rejects an empty range first, and a
    // zero span would still panic on the `%` below in every profile.
    debug_assert!(span > 0);
    let threshold = span.wrapping_neg() % span;
    loop {
        let m = (rng.next_u64() as u128).wrapping_mul(span as u128);
        if m as u64 >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as u64) - (start as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                start + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}

int_range_impls!(u32, u64, usize);

macro_rules! float_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u: $t = rng.gen();
                self.start + u * (self.end - self.start)
            }
        }
    )*};
}

float_range_impls!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_and_divergence() {
        let stream = |seed| {
            let mut r = SmallRng::seed_from_u64(seed);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let a = r.gen_range(3u32..17);
            assert!((3..17).contains(&a));
            let b = r.gen_range(0usize..1);
            assert_eq!(b, 0);
            let c = r.gen_range(5u64..=9);
            assert!((5..=9).contains(&c));
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = r.gen_range(1.0f32..4.0);
            assert!((1.0..4.0).contains(&x));
            let y: f64 = r.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn ranges_are_roughly_uniform() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let mut r = SmallRng::seed_from_u64(0);
        let _ = r.gen_range(5u32..5);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SmallRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "p=0.25 gave {hits}/10000");
    }
}
