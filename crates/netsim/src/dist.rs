//! Seeded sampling distributions.
//!
//! The evaluation draws QoS values and link latencies from normal laws.
//! `rand` only ships uniform sampling in its core, so the law is
//! implemented here (Box–Muller) rather than pulling in an extra
//! dependency.

use rand::Rng;

/// Normal distribution `N(mean, std_dev²)` sampled via Box–Muller.
///
/// # Examples
///
/// ```
/// use qasom_netsim::dist::Normal;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let n = Normal::new(100.0, 15.0);
/// let x = n.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal law.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is non-finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "normal law needs finite mean and non-negative std dev"
        );
        Normal { mean, std_dev }
    }

    /// The mean `m`.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation `σ`.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        if self.std_dev == 0.0 {
            return self.mean;
        }
        // Box–Muller: u1 in (0, 1] to keep ln finite.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + self.std_dev * z
    }

    /// Draws one sample clamped to `[lo, hi]` (truncated law).
    pub fn sample_clamped(&self, rng: &mut impl Rng, lo: f64, hi: f64) -> f64 {
        self.sample(rng).clamp(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_sample_mean_converges() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = Normal::new(50.0, 10.0);
        let samples: Vec<f64> = (0..20_000).map(|_| n.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 50.0).abs() < 0.5, "mean {mean}");
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((var.sqrt() - 10.0).abs() < 0.5, "std {}", var.sqrt());
    }

    #[test]
    fn degenerate_normal_is_constant() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = Normal::new(7.0, 0.0);
        assert_eq!(n.sample(&mut rng), 7.0);
    }

    #[test]
    fn clamped_sample_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = Normal::new(0.0, 100.0);
        for _ in 0..1000 {
            let x = n.sample_clamped(&mut rng, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn sampling_is_deterministic_for_a_seed() {
        let n = Normal::new(10.0, 2.0);
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..10).map(|_| n.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..10).map(|_| n.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "non-negative std dev")]
    fn normal_rejects_negative_std() {
        let _ = Normal::new(0.0, -1.0);
    }
}
