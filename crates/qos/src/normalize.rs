//! Min–max normalisation of QoS values.

use crate::{PropertyId, QosModel, QosVector, Tendency};

/// Per-property min–max statistics over a candidate set, used to map raw
/// QoS values onto `[0, 1]` scores where `1` is always *best*.
///
/// This is the normalisation step of the SAW utility of the original
/// formalisation: for a lower-is-better property the score is
/// `(max − v) / (max − min)`, for a higher-is-better property
/// `(v − min) / (max − min)`. When all candidates agree on a value
/// (`max = min`, including single-candidate pools) the ratio would be
/// `0/0`; every candidate scores the paper's neutral `0.5` instead, so
/// no `NaN` ever reaches the K-means clustering downstream.
///
/// # Examples
///
/// ```
/// use qasom_qos::{Normalizer, QosModel, QosVector};
///
/// let model = QosModel::standard();
/// let rt = model.property("ResponseTime").unwrap();
/// let mut a = QosVector::new();
/// a.set(rt, 100.0);
/// let mut b = QosVector::new();
/// b.set(rt, 300.0);
///
/// let norm = Normalizer::fit(&model, [&a, &b]);
/// assert_eq!(norm.score(rt, 100.0), 1.0); // fastest is best
/// assert_eq!(norm.score(rt, 300.0), 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Normalizer {
    stats: Vec<(PropertyId, Tendency, f64, f64)>,
}

impl Normalizer {
    /// Fits normalisation bounds over a set of QoS vectors.
    pub fn fit<'a>(model: &QosModel, candidates: impl IntoIterator<Item = &'a QosVector>) -> Self {
        let mut stats: Vec<(PropertyId, Tendency, f64, f64)> = Vec::new();
        for qos in candidates {
            for (p, v) in qos.iter() {
                if !v.is_finite() {
                    // Non-finite values (unreachable paths, failed
                    // measurements) must not poison the bounds; scoring
                    // them later still clamps to the worst score.
                    continue;
                }
                match stats.binary_search_by_key(&p, |&(id, ..)| id) {
                    Ok(i) => {
                        let (_, _, lo, hi) = &mut stats[i];
                        (*lo, *hi) = Normalizer::widen((*lo, *hi), (v, v));
                    }
                    Err(i) => stats.insert(i, (p, model.tendency(p), v, v)),
                }
            }
        }
        Normalizer { stats }
    }

    /// `(lo, hi)` widened to cover `(min, max)`, by explicit comparison:
    /// on a tie the existing end stays. `f64::min` and `f64::max` may
    /// return either zero for `-0.0` against `+0.0`, and a release build
    /// need not return the one a debug build does, so every bound this
    /// crate and ranking fold goes through here.
    pub fn widen((lo, hi): (f64, f64), (min, max): (f64, f64)) -> (f64, f64) {
        (
            if min < lo { min } else { lo },
            if max > hi { max } else { hi },
        )
    }

    /// Extends the fitted bounds so that `value` falls inside them
    /// (non-finite values are ignored).
    pub fn include(&mut self, model: &QosModel, property: PropertyId, value: f64) {
        if !value.is_finite() {
            return;
        }
        match self.stats.binary_search_by_key(&property, |&(id, ..)| id) {
            Ok(i) => {
                let (_, _, lo, hi) = &mut self.stats[i];
                (*lo, *hi) = Normalizer::widen((*lo, *hi), (value, value));
            }
            Err(i) => self
                .stats
                .insert(i, (property, model.tendency(property), value, value)),
        }
    }

    /// Extends the fitted bounds to cover `[min, max]`, a range the caller
    /// folded over finite values itself. A property seen for the first
    /// time takes the range exactly, so including a column's `(min, max)`
    /// fits what including each of its values in turn would.
    pub fn include_bounds(&mut self, model: &QosModel, property: PropertyId, min: f64, max: f64) {
        match self.stats.binary_search_by_key(&property, |&(id, ..)| id) {
            Ok(i) => {
                let (_, _, lo, hi) = &mut self.stats[i];
                (*lo, *hi) = Normalizer::widen((*lo, *hi), (min, max));
            }
            Err(i) => self
                .stats
                .insert(i, (property, model.tendency(property), min, max)),
        }
    }

    /// The fitted `(min, max)` bounds for `property`, if it was observed.
    pub fn bounds(&self, property: PropertyId) -> Option<(f64, f64)> {
        self.stats
            .binary_search_by_key(&property, |&(id, ..)| id)
            .ok()
            .map(|i| (self.stats[i].2, self.stats[i].3))
    }

    /// Normalised score of `value` for `property`, in `[0, 1]`, `1` best.
    ///
    /// Values outside the fitted bounds are clamped; unobserved properties
    /// score a neutral `1` (no candidate differentiates on them).
    pub fn score(&self, property: PropertyId, value: f64) -> f64 {
        self.scale(property).score(value)
    }

    /// The fitted range of `property`, looked up once, for a caller that
    /// scores many values of it: `scale(p).score(v)` is `score(p, v)`.
    pub fn scale(&self, property: PropertyId) -> Scale {
        Scale(
            self.stats
                .binary_search_by_key(&property, |&(id, ..)| id)
                .ok()
                .map(|i| {
                    let (_, tendency, min, max) = self.stats[i];
                    (tendency, min, max)
                }),
        )
    }

    /// Properties the normaliser observed.
    pub fn properties(&self) -> impl Iterator<Item = PropertyId> + '_ {
        self.stats.iter().map(|&(p, ..)| p)
    }
}

/// One property's fitted `(tendency, min, max)`, or nothing when the
/// normaliser never observed it: what [`Normalizer::score`] reads, so
/// scoring a column of values searches the fitted properties once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(Option<(Tendency, f64, f64)>);

impl Scale {
    /// Normalised score of `value`, in `[0, 1]`, `1` best: the min–max
    /// ratio under the property's tendency, clamped to the fitted range;
    /// `1` for an unobserved property, `0` for a non-finite value.
    pub fn score(self, value: f64) -> f64 {
        if !value.is_finite() {
            // Unknown or unusable quality is the worst quality.
            return 0.0;
        }
        let Some((tendency, min, max)) = self.0 else {
            return 1.0;
        };
        if max == min {
            // Degenerate range: the min–max ratio would be 0/0. Score the
            // paper's neutral 0.5 — the property cannot differentiate
            // candidates, and NaN must never leak into K-means centroids.
            return 0.5;
        }
        let raw = match tendency {
            Tendency::LowerBetter => (max - value) / (max - min),
            Tendency::HigherBetter => (value - min) / (max - min),
        };
        // Adding `+0.0` turns a `-0.0` (from `max == -0.0`, say) into
        // `+0.0` and leaves every other value as it is: a zero score is
        // always the same bits, so it sorts the same in every build.
        raw.clamp(0.0, 1.0) + 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (QosModel, PropertyId, PropertyId) {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let av = m.property("Availability").unwrap();
        (m, rt, av)
    }

    fn v(pairs: &[(PropertyId, f64)]) -> QosVector {
        pairs.iter().copied().collect()
    }

    #[test]
    fn direction_depends_on_tendency() {
        let (m, rt, av) = setup();
        let a = v(&[(rt, 100.0), (av, 0.9)]);
        let b = v(&[(rt, 200.0), (av, 0.99)]);
        let n = Normalizer::fit(&m, [&a, &b]);
        assert_eq!(n.score(rt, 100.0), 1.0);
        assert_eq!(n.score(rt, 200.0), 0.0);
        assert_eq!(n.score(av, 0.99), 1.0);
        assert_eq!(n.score(av, 0.9), 0.0);
    }

    #[test]
    fn degenerate_range_scores_neutral() {
        let (m, rt, _) = setup();
        let a = v(&[(rt, 100.0)]);
        let n = Normalizer::fit(&m, [&a, &a]);
        // min == max used to divide 0/0; the score must be the neutral
        // 0.5, never NaN.
        let score = n.score(rt, 100.0);
        assert!(score.is_finite());
        assert_eq!(score, 0.5);
    }

    #[test]
    fn single_candidate_pool_scores_neutral_not_nan() {
        let (m, rt, av) = setup();
        let only = v(&[(rt, 80.0), (av, 0.97)]);
        let n = Normalizer::fit(&m, [&only]);
        for (p, raw) in only.iter() {
            let score = n.score(p, raw);
            assert!(score.is_finite(), "NaN leaked for {p:?}");
            assert_eq!(score, 0.5);
        }
    }

    #[test]
    fn out_of_range_values_are_clamped() {
        let (m, rt, _) = setup();
        let a = v(&[(rt, 100.0)]);
        let b = v(&[(rt, 200.0)]);
        let n = Normalizer::fit(&m, [&a, &b]);
        assert_eq!(n.score(rt, 50.0), 1.0);
        assert_eq!(n.score(rt, 500.0), 0.0);
    }

    #[test]
    fn unobserved_property_is_neutral() {
        let (m, rt, av) = setup();
        let a = v(&[(rt, 100.0)]);
        let n = Normalizer::fit(&m, [&a]);
        assert_eq!(n.score(av, 0.5), 1.0);
    }

    #[test]
    fn include_extends_bounds() {
        let (m, rt, _) = setup();
        let a = v(&[(rt, 100.0)]);
        let mut n = Normalizer::fit(&m, [&a]);
        n.include(&m, rt, 300.0);
        assert_eq!(n.bounds(rt), Some((100.0, 300.0)));
        assert_eq!(n.score(rt, 200.0), 0.5);
    }

    #[test]
    fn a_scale_scores_as_the_normalizer() {
        let (m, rt, av) = setup();
        let a = v(&[(rt, 100.0), (av, 0.9)]);
        let b = v(&[(rt, 300.0), (av, 0.9)]);
        let n = Normalizer::fit(&m, [&a, &b]);
        let price = m.property("Price").unwrap();
        for p in [rt, av, price] {
            for x in [
                -0.0,
                0.0,
                50.0,
                100.0,
                0.9,
                250.0,
                400.0,
                f64::NAN,
                f64::INFINITY,
            ] {
                assert_eq!(n.scale(p).score(x).to_bits(), n.score(p, x).to_bits());
            }
        }
        assert_eq!(n.scale(price).score(7.0), 1.0);
        assert_eq!(n.scale(av).score(0.9), 0.5);
    }
}
