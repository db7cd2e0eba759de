//! Dependency-free stand-in for the `rand` crate.
//!
//! The build environment of this repository cannot reach a crates.io
//! mirror, so the workspace vendors the small API subset it uses:
//! [`Rng`], [`SeedableRng`] and [`rngs::StdRng`]. The generator is a
//! xoshiro256++ seeded through SplitMix64 — deterministic across
//! platforms, which is exactly what the reproduction harness needs
//! (`seed_from_u64` drives every synthetic workload).
//!
//! This is **not** a cryptographic RNG and makes no distribution-quality
//! claims beyond "good enough for simulation workloads".

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level entropy source: a stream of `u64`s.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Sampling interface over any [`RngCore`], mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// A uniformly distributed value of `T` (see [`Standard`] impls).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// A uniform value in `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        f64::sample(self) < p
    }
}

impl<T: RngCore> Rng for T {}

/// Types with a canonical uniform distribution.
pub trait Standard {
    /// Samples one value.
    fn sample(rng: &mut impl Rng) -> Self;
}

impl Standard for u64 {
    fn sample(rng: &mut impl Rng) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample(rng: &mut impl Rng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample(rng: &mut impl Rng) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for bool {
    fn sample(rng: &mut impl Rng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges that can be sampled uniformly.
pub trait SampleRange {
    /// The element type of the range.
    type Output;
    /// Samples one value.
    fn sample(self, rng: &mut impl Rng) -> Self::Output;
}

/// Uniform integer in `[0, n)` without modulo bias (Lemire rejection).
fn uniform_below(rng: &mut impl Rng, n: u64) -> u64 {
    assert!(n > 0, "cannot sample an empty range");
    // Rejection zone keeps the mapping unbiased.
    let zone = u64::MAX - (u64::MAX - n + 1) % n;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % n;
        }
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut impl Rng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut impl Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                if lo == <$t>::MIN && hi == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                let span = (hi as u64).wrapping_sub(lo as u64) + 1;
                lo + uniform_below(rng, span) as $t
            }
        }
    )*};
}

int_range!(usize, u64, u32, u16, u8, i64, i32);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut impl Rng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    fn sample(self, rng: &mut impl Rng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// Deterministically seedable generators.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (SplitMix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    ///
    /// Not the upstream `StdRng` algorithm (ChaCha12), but a solid,
    /// deterministic, fast PRNG with the same interface.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expands the 64-bit seed into the full state and
            // guarantees a non-zero state for any seed.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
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
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-2.0f64..=3.0);
            assert!((-2.0..=3.0).contains(&f));
            let u = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(42);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "{hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn full_u64_range_is_samplable() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = rng.gen_range(0u64..=u64::MAX);
        let _ = rng.gen::<u64>();
    }
}
