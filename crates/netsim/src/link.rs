//! Wireless link model.

use rand::Rng;

use crate::dist::Normal;
use crate::SimDuration;

/// Configuration of the wireless link every message crosses: latency
/// law, jitter and loss.
///
/// # Examples
///
/// ```
/// use qasom_netsim::LinkConfig;
///
/// let lossy = LinkConfig::new(20.0, 5.0).with_loss(0.05);
/// assert_eq!(lossy.loss(), 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    latency_ms: f64,
    jitter_ms: f64,
    loss: f64,
}

impl LinkConfig {
    /// A link with normally distributed latency `N(latency_ms, jitter_ms²)`
    /// and no loss.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite parameters.
    pub fn new(latency_ms: f64, jitter_ms: f64) -> Self {
        assert!(
            latency_ms.is_finite() && latency_ms >= 0.0,
            "latency must be finite and non-negative"
        );
        assert!(
            jitter_ms.is_finite() && jitter_ms >= 0.0,
            "jitter must be finite and non-negative"
        );
        LinkConfig {
            latency_ms,
            jitter_ms,
            loss: 0.0,
        }
    }

    /// Sets the message-loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `loss` is in `[0, 1]`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0, 1]");
        self.loss = loss;
        self
    }

    /// Mean latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.latency_ms
    }

    /// Latency standard deviation in milliseconds.
    pub fn jitter_ms(&self) -> f64 {
        self.jitter_ms
    }

    /// Message-loss probability.
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// Samples one delivery: `None` when the message is lost, otherwise
    /// the transit delay.
    pub fn sample_delivery(&self, rng: &mut impl Rng) -> Option<SimDuration> {
        if self.loss > 0.0 && rng.gen::<f64>() < self.loss {
            return None;
        }
        let latency =
            Normal::new(self.latency_ms, self.jitter_ms).sample_clamped(rng, 0.0, f64::INFINITY);
        Some(SimDuration::from_millis_f64(latency))
    }
}

impl Default for LinkConfig {
    /// An ad hoc Wi-Fi-like default: 5 ms ± 1 ms, no loss.
    fn default() -> Self {
        LinkConfig::new(5.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lossless_link_always_delivers() {
        let mut rng = StdRng::seed_from_u64(1);
        let link = LinkConfig::new(10.0, 0.0);
        for _ in 0..100 {
            let d = link.sample_delivery(&mut rng).unwrap();
            assert_eq!(d.as_millis_f64(), 10.0);
        }
    }

    #[test]
    fn total_loss_never_delivers() {
        let mut rng = StdRng::seed_from_u64(2);
        let link = LinkConfig::new(5.0, 1.0).with_loss(1.0);
        for _ in 0..10 {
            assert!(link.sample_delivery(&mut rng).is_none());
        }
    }

    #[test]
    fn loss_rate_is_roughly_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        let link = LinkConfig::new(5.0, 0.0).with_loss(0.3);
        let delivered = (0..10_000)
            .filter(|_| link.sample_delivery(&mut rng).is_some())
            .count();
        let rate = delivered as f64 / 10_000.0;
        assert!((rate - 0.7).abs() < 0.02, "delivery rate {rate}");
    }

    #[test]
    fn jitter_never_goes_negative() {
        let mut rng = StdRng::seed_from_u64(4);
        let link = LinkConfig::new(1.0, 10.0);
        for _ in 0..1000 {
            let d = link.sample_delivery(&mut rng).unwrap();
            assert!(d.as_millis_f64() >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "loss must be in [0, 1]")]
    fn rejects_bad_loss() {
        let _ = LinkConfig::new(1.0, 0.0).with_loss(1.5);
    }
}
