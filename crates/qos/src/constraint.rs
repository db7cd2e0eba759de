//! User QoS constraints (the `U = {u_i}` of the formal model).

use std::fmt;

use crate::{PropertyId, QosVector, Tendency};

/// A single global QoS constraint: a bound on one property, interpreted
/// through the property's [`Tendency`].
///
/// * `LowerBetter` property — satisfied when `value ≤ bound`
///   (e.g. *total response time ≤ 2 s*).
/// * `HigherBetter` property — satisfied when `value ≥ bound`
///   (e.g. *availability ≥ 0.95*).
///
/// A QoS vector that carries **no value** for the constrained property
/// violates the constraint: in an open environment an unknown quality
/// cannot be assumed satisfactory.
///
/// # Examples
///
/// ```
/// use qasom_qos::{Constraint, QosModel, QosVector, Tendency};
///
/// let model = QosModel::standard();
/// let rt = model.property("ResponseTime").unwrap();
/// let c = Constraint::new(rt, Tendency::LowerBetter, 200.0);
///
/// let mut qos = QosVector::new();
/// qos.set(rt, 150.0);
/// assert!(c.satisfied_by(&qos));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraint {
    property: PropertyId,
    tendency: Tendency,
    bound: f64,
}

impl Constraint {
    /// Creates a constraint on `property` with the given tendency and bound.
    pub fn new(property: PropertyId, tendency: Tendency, bound: f64) -> Self {
        Constraint {
            property,
            tendency,
            bound,
        }
    }

    /// The constrained property.
    pub fn property(&self) -> PropertyId {
        self.property
    }

    /// The bound, in the property's canonical unit.
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// The tendency the bound is interpreted under.
    pub fn tendency(&self) -> Tendency {
        self.tendency
    }

    /// Whether a raw value satisfies the constraint.
    pub fn is_satisfied(&self, value: f64) -> bool {
        self.tendency.at_least_as_good(value, self.bound)
    }

    /// Whether a QoS vector satisfies the constraint. Missing values count
    /// as violations.
    pub fn satisfied_by(&self, qos: &QosVector) -> bool {
        qos.get(self.property).is_some_and(|v| self.is_satisfied(v))
    }

    /// Signed margin between `value` and the bound: positive when the
    /// constraint is satisfied, negative when violated, in canonical units.
    pub fn slack(&self, value: f64) -> f64 {
        match self.tendency {
            Tendency::LowerBetter => self.bound - value,
            Tendency::HigherBetter => value - self.bound,
        }
    }

    /// How far `qos` misses the bound, relative to it:
    /// `max(0, −slack / max(|bound|, 1e-9))`, so 0 when the constraint
    /// holds (or the value is NaN). `None` when `qos` has no value for
    /// the property.
    pub fn shortfall(&self, qos: &QosVector) -> Option<f64> {
        let value = qos.get(self.property)?;
        Some((-self.slack(value) / self.bound.abs().max(1e-9)).max(0.0))
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.tendency {
            Tendency::LowerBetter => "<=",
            Tendency::HigherBetter => ">=",
        };
        write!(f, "{} {} {}", self.property, op, self.bound)
    }
}

/// The set of global QoS constraints attached to a user request.
///
/// At most one constraint per property is kept: adding a second constraint
/// on the same property *tightens* the set by keeping the stricter bound.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// Creates an empty set (every QoS vector satisfies it).
    pub fn new() -> Self {
        ConstraintSet::default()
    }

    /// Adds a constraint; if one already exists on the same property the
    /// stricter bound is kept.
    pub fn add(&mut self, constraint: Constraint) -> &mut Self {
        match self
            .constraints
            .iter_mut()
            .find(|c| c.property == constraint.property)
        {
            Some(existing) => {
                // The stricter bound is the harder one to satisfy: the
                // smaller for LowerBetter, the larger for HigherBetter.
                existing.bound = match existing.tendency {
                    Tendency::LowerBetter => existing.bound.min(constraint.bound),
                    Tendency::HigherBetter => existing.bound.max(constraint.bound),
                };
            }
            None => self.constraints.push(constraint),
        }
        self
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// The constraint on `property`, if any.
    pub fn get(&self, property: PropertyId) -> Option<&Constraint> {
        self.constraints.iter().find(|c| c.property == property)
    }

    /// Iterates over the constraints.
    pub fn iter(&self) -> impl Iterator<Item = &Constraint> {
        self.constraints.iter()
    }

    /// Whether `qos` satisfies *all* constraints.
    pub fn satisfied_by(&self, qos: &QosVector) -> bool {
        self.constraints.iter().all(|c| c.satisfied_by(qos))
    }

    /// The constraints `qos` violates (missing values included).
    pub fn violations<'a>(&'a self, qos: &'a QosVector) -> impl Iterator<Item = &'a Constraint> {
        self.constraints.iter().filter(|c| !c.satisfied_by(qos))
    }

    /// How badly `qos` misses the set: the number of violated
    /// constraints, then the sum of their [`Constraint::shortfall`]s, a
    /// missing or non-finite one counting `1e6`. Compared as a tuple,
    /// fewer violations win first, then the smaller total; a satisfying
    /// `qos` gives `(0, 0.0)`.
    pub fn miss(&self, qos: &QosVector) -> (usize, f64) {
        self.violations(qos).fold((0, 0.0), |(count, total), c| {
            let shortfall = c.shortfall(qos).filter(|s| s.is_finite());
            (count + 1, total + shortfall.unwrap_or(1e6))
        })
    }

    /// The violated constraint of largest [`Constraint::shortfall`], a
    /// missing value counting as infinite; the last such on ties.
    pub fn worst_violation(&self, qos: &QosVector) -> Option<&Constraint> {
        let violated = self.constraints.iter().filter(|c| !c.satisfied_by(qos));
        violated.max_by(|a, b| {
            let shortfall = |c: &Constraint| c.shortfall(qos).unwrap_or(f64::INFINITY);
            shortfall(a).total_cmp(&shortfall(b))
        })
    }

    /// The constrained properties.
    pub fn properties(&self) -> impl Iterator<Item = PropertyId> + '_ {
        self.constraints.iter().map(|c| c.property)
    }
}

impl FromIterator<Constraint> for ConstraintSet {
    fn from_iter<T: IntoIterator<Item = Constraint>>(iter: T) -> Self {
        let mut set = ConstraintSet::new();
        for c in iter {
            set.add(c);
        }
        set
    }
}

impl<'a> IntoIterator for &'a ConstraintSet {
    type Item = &'a Constraint;
    type IntoIter = std::slice::Iter<'a, Constraint>;

    fn into_iter(self) -> Self::IntoIter {
        self.constraints.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PropertyId {
        PropertyId(i)
    }

    #[test]
    fn lower_better_is_upper_bound() {
        let c = Constraint::new(p(0), Tendency::LowerBetter, 100.0);
        assert!(c.is_satisfied(100.0));
        assert!(c.is_satisfied(20.0));
        assert!(!c.is_satisfied(101.0));
    }

    #[test]
    fn higher_better_is_lower_bound() {
        let c = Constraint::new(p(0), Tendency::HigherBetter, 0.95);
        assert!(c.is_satisfied(0.95));
        assert!(c.is_satisfied(0.99));
        assert!(!c.is_satisfied(0.9));
    }

    #[test]
    fn missing_property_violates() {
        let c = Constraint::new(p(0), Tendency::LowerBetter, 100.0);
        assert!(!c.satisfied_by(&QosVector::new()));
    }

    #[test]
    fn slack_sign_matches_satisfaction() {
        let c = Constraint::new(p(0), Tendency::HigherBetter, 0.9);
        assert!(c.slack(0.95) > 0.0);
        assert!(c.slack(0.85) < 0.0);
        assert_eq!(c.slack(0.9), 0.0);
    }

    #[test]
    fn shortfall_is_the_relative_miss() {
        let c = Constraint::new(p(0), Tendency::LowerBetter, 200.0);
        let qos = |v: f64| QosVector::from_iter([(p(0), v)]);
        assert_eq!(c.shortfall(&qos(150.0)), Some(0.0));
        assert_eq!(c.shortfall(&qos(200.0)), Some(0.0));
        assert_eq!(c.shortfall(&qos(300.0)), Some(0.5));
        assert_eq!(c.shortfall(&qos(f64::NAN)), Some(0.0));
        assert_eq!(c.shortfall(&QosVector::new()), None);
        // A zero bound is scaled by 1e-9, not divided by.
        let zero = Constraint::new(p(0), Tendency::HigherBetter, 0.0);
        assert_eq!(zero.shortfall(&qos(-1e-9)), Some(1.0));
    }

    #[test]
    fn miss_counts_then_sums_the_shortfalls_and_names_the_worst() {
        let set: ConstraintSet = [
            Constraint::new(p(0), Tendency::LowerBetter, 100.0),
            Constraint::new(p(1), Tendency::HigherBetter, 0.5),
        ]
        .into_iter()
        .collect();
        let qos = |rt: f64, av: f64| QosVector::from_iter([(p(0), rt), (p(1), av)]);
        assert_eq!(set.miss(&qos(100.0, 0.5)), (0, 0.0));
        assert_eq!(set.miss(&qos(150.0, 0.5)), (1, 0.5));
        assert_eq!(set.miss(&qos(150.0, 0.25)), (2, 1.0));
        // A missing or infinite value counts 1e6.
        assert_eq!(set.miss(&QosVector::from_iter([(p(1), 0.5)])), (1, 1e6));
        assert_eq!(set.miss(&qos(f64::INFINITY, 0.5)), (1, 1e6));
        // Lexicographic: one huge miss beats two small ones.
        assert!(set.miss(&qos(1e9, 0.5)) < set.miss(&qos(101.0, 0.49)));
        assert!(set.miss(&qos(101.0, 0.5)) < set.miss(&qos(150.0, 0.5)));
        // The worst violation has the largest shortfall, a missing
        // value counting as infinite; ties go to the last constraint.
        let worst = |q: &QosVector| set.worst_violation(q).map(Constraint::property);
        assert_eq!(worst(&qos(100.0, 0.5)), None);
        assert_eq!(worst(&qos(150.0, 0.4)), Some(p(0)));
        assert_eq!(worst(&qos(110.0, 0.4)), Some(p(1)));
        assert_eq!(worst(&QosVector::from_iter([(p(1), 0.0)])), Some(p(0)));
        assert_eq!(worst(&QosVector::new()), Some(p(1)));
    }

    #[test]
    fn duplicate_constraints_keep_stricter_bound() {
        let mut set = ConstraintSet::new();
        set.add(Constraint::new(p(0), Tendency::LowerBetter, 200.0));
        set.add(Constraint::new(p(0), Tendency::LowerBetter, 150.0));
        assert_eq!(set.len(), 1);
        assert_eq!(set.get(p(0)).unwrap().bound(), 150.0);

        let mut set = ConstraintSet::new();
        set.add(Constraint::new(p(1), Tendency::HigherBetter, 0.9));
        set.add(Constraint::new(p(1), Tendency::HigherBetter, 0.99));
        assert_eq!(set.get(p(1)).unwrap().bound(), 0.99);
    }

    #[test]
    fn set_satisfaction_requires_all() {
        let set: ConstraintSet = [
            Constraint::new(p(0), Tendency::LowerBetter, 100.0),
            Constraint::new(p(1), Tendency::HigherBetter, 0.9),
        ]
        .into_iter()
        .collect();

        let mut good = QosVector::new();
        good.set(p(0), 50.0);
        good.set(p(1), 0.95);
        assert!(set.satisfied_by(&good));

        let mut bad = good.clone();
        bad.set(p(1), 0.5);
        assert!(!set.satisfied_by(&bad));
        assert_eq!(set.violations(&bad).count(), 1);
    }

    #[test]
    fn empty_set_accepts_anything() {
        assert!(ConstraintSet::new().satisfied_by(&QosVector::new()));
    }

    #[test]
    fn display_shows_direction() {
        let c = Constraint::new(p(2), Tendency::LowerBetter, 10.0);
        assert_eq!(c.to_string(), "p2 <= 10");
    }
}
