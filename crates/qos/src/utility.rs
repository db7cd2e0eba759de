//! SAW (simple additive weighting) utility.
//!
//! Services and compositions are ranked by the weighted sum of their
//! normalised QoS scores — the `f_{s_{i,k}} = Σ_j w_j · norm_j(q_j)` of the
//! original formalisation. Weights come from user [`Preferences`]; scores
//! come from a fitted [`Normalizer`].

use crate::{Normalizer, PropertyId, QosVector};

/// User preferences: a weight per QoS property (the `W = {w_i}` of the
/// formal model), normalised to sum to `1`.
///
/// # Examples
///
/// ```
/// use qasom_qos::{Preferences, QosModel};
///
/// let model = QosModel::standard();
/// let rt = model.property("ResponseTime").unwrap();
/// let av = model.property("Availability").unwrap();
///
/// let prefs = Preferences::from_weights([(rt, 3.0), (av, 1.0)]);
/// assert!((prefs.weight(rt) - 0.75).abs() < 1e-12);
/// assert!((prefs.weight(av) - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Preferences {
    weights: Vec<(PropertyId, f64)>,
}

impl Preferences {
    /// Builds preferences from raw (non-negative) weights; they are
    /// normalised to sum to `1`. Non-positive weights are dropped.
    pub fn from_weights(weights: impl IntoIterator<Item = (PropertyId, f64)>) -> Self {
        let mut ws: Vec<(PropertyId, f64)> = weights
            .into_iter()
            .filter(|&(_, w)| w > 0.0 && w.is_finite())
            .collect();
        ws.sort_by_key(|&(p, _)| p);
        ws.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 += a.1;
                true
            } else {
                false
            }
        });
        let total: f64 = ws.iter().map(|&(_, w)| w).sum();
        if total > 0.0 {
            for (_, w) in &mut ws {
                *w /= total;
            }
        }
        Preferences { weights: ws }
    }

    /// Equal weights over the given properties.
    pub fn uniform(properties: impl IntoIterator<Item = PropertyId>) -> Self {
        Preferences::from_weights(properties.into_iter().map(|p| (p, 1.0)))
    }

    /// The normalised weight of `property` (`0` when unweighted).
    pub fn weight(&self, property: PropertyId) -> f64 {
        self.weights
            .binary_search_by_key(&property, |&(p, _)| p)
            .ok()
            .map_or(0.0, |i| self.weights[i].1)
    }

    /// Iterates over `(property, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PropertyId, f64)> + '_ {
        self.weights.iter().copied()
    }

    /// The weighted properties.
    pub fn properties(&self) -> impl Iterator<Item = PropertyId> + '_ {
        self.weights.iter().map(|&(p, _)| p)
    }

    /// Number of weighted properties.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether no property carries weight.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

impl FromIterator<(PropertyId, f64)> for Preferences {
    fn from_iter<T: IntoIterator<Item = (PropertyId, f64)>>(iter: T) -> Self {
        Preferences::from_weights(iter)
    }
}

/// SAW utility of a QoS vector: `Σ_j w_j · score_j` over the weighted
/// properties, in `[0, 1]` (higher is better).
///
/// A property the vector carries **no value** for scores `0` — an unknown
/// quality cannot contribute utility.
pub fn utility(qos: &QosVector, normalizer: &Normalizer, preferences: &Preferences) -> f64 {
    preferences
        .iter()
        .map(|(p, w)| match qos.get(p) {
            Some(v) => w * normalizer.score(p, v),
            None => 0.0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QosModel;

    fn v(pairs: &[(PropertyId, f64)]) -> QosVector {
        pairs.iter().copied().collect()
    }

    #[test]
    fn weights_are_normalised() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let av = m.property("Availability").unwrap();
        let p = Preferences::from_weights([(rt, 2.0), (av, 2.0)]);
        assert_eq!(p.weight(rt), 0.5);
        assert_eq!(p.weight(av), 0.5);
    }

    #[test]
    fn duplicate_weights_accumulate() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let av = m.property("Availability").unwrap();
        let p = Preferences::from_weights([(rt, 1.0), (rt, 1.0), (av, 2.0)]);
        assert_eq!(p.weight(rt), 0.5);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn non_positive_weights_are_dropped() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let av = m.property("Availability").unwrap();
        let p = Preferences::from_weights([(rt, -1.0), (av, 0.0)]);
        assert!(p.is_empty());
    }

    #[test]
    fn utility_is_weighted_sum_of_scores() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let av = m.property("Availability").unwrap();
        let best = v(&[(rt, 100.0), (av, 0.99)]);
        let worst = v(&[(rt, 300.0), (av, 0.9)]);
        let n = Normalizer::fit(&m, [&best, &worst]);
        let p = Preferences::uniform([rt, av]);
        assert_eq!(utility(&best, &n, &p), 1.0);
        assert_eq!(utility(&worst, &n, &p), 0.0);
        let mid = v(&[(rt, 200.0), (av, 0.945)]);
        assert!((utility(&mid, &n, &p) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn missing_property_scores_zero() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let av = m.property("Availability").unwrap();
        let a = v(&[(rt, 100.0), (av, 0.9)]);
        let b = v(&[(rt, 200.0), (av, 0.99)]);
        let n = Normalizer::fit(&m, [&a, &b]);
        let p = Preferences::uniform([rt, av]);
        let partial = v(&[(rt, 100.0)]);
        assert_eq!(utility(&partial, &n, &p), 0.5);
    }

    #[test]
    fn utility_stays_in_unit_interval() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let a = v(&[(rt, 100.0)]);
        let b = v(&[(rt, 900.0)]);
        let n = Normalizer::fit(&m, [&a, &b]);
        let p = Preferences::uniform([rt]);
        for val in [0.0, 100.0, 500.0, 900.0, 2000.0] {
            let u = utility(&v(&[(rt, val)]), &n, &p);
            assert!((0.0..=1.0).contains(&u));
        }
    }
}
