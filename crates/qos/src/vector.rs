//! QoS value vectors.

use std::fmt;

use crate::PropertyId;

/// Entries a [`QosVector`] keeps without a heap allocation. Every serving
/// workload advertises two properties (response time and availability),
/// so with two slots cloning an advertisement is a 40-byte copy instead of
/// a `malloc`. Selection tables copy values, not vectors, so the size
/// trades the bytes of every registered description against a heap
/// block per description, bound service and monitored vector with more
/// properties.
const INLINE: usize = 2;

/// A sparse vector of QoS values, keyed by [`PropertyId`], always stored in
/// the property's canonical unit.
///
/// `QosVector` is the `QoS_{s_{i,k}}` of the original formalisation: the
/// QoS advertised by (or measured on) a service, and — after aggregation —
/// the QoS of a whole composition.
///
/// Entries are kept sorted by property id, which makes iteration
/// deterministic and merging linear. Up to two entries live inline; the
/// third spills them to the heap, and removing back down to two brings
/// them inline again.
///
/// # Examples
///
/// ```
/// use qasom_qos::{QosModel, QosVector};
///
/// let model = QosModel::standard();
/// let rt = model.property("ResponseTime").unwrap();
///
/// let mut qos = QosVector::new();
/// qos.set(rt, 80.0);
/// assert_eq!(qos.get(rt), Some(80.0));
/// ```
#[derive(Clone, Default)]
pub struct QosVector {
    entries: Entries,
}

/// Sorted `(property, value)` storage: inline while it fits, a `Vec`
/// beyond. Slots of `buf` past `len` are stale and never read.
#[derive(Clone)]
enum Entries {
    Inline {
        len: u8,
        buf: [(PropertyId, f64); INLINE],
    },
    Spilled(Vec<(PropertyId, f64)>),
}

impl Default for Entries {
    fn default() -> Self {
        Entries::Inline {
            len: 0,
            buf: [(PropertyId(0), 0.0); INLINE],
        }
    }
}

impl Entries {
    fn as_slice(&self) -> &[(PropertyId, f64)] {
        match self {
            Entries::Inline { len, buf } => &buf[..usize::from(*len)],
            Entries::Spilled(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(PropertyId, f64)] {
        match self {
            Entries::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Entries::Spilled(v) => v,
        }
    }

    fn insert(&mut self, i: usize, entry: (PropertyId, f64)) {
        match self {
            Entries::Inline { len, buf } if usize::from(*len) < INLINE => {
                buf.copy_within(i..usize::from(*len), i + 1);
                buf[i] = entry;
                *len += 1;
            }
            Entries::Inline { buf, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(&buf[..i]);
                spilled.push(entry);
                spilled.extend_from_slice(&buf[i..]);
                *self = Entries::Spilled(spilled);
            }
            Entries::Spilled(v) => v.insert(i, entry),
        }
    }

    fn remove(&mut self, i: usize) -> (PropertyId, f64) {
        match self {
            Entries::Inline { len, buf } => {
                let removed = buf[i];
                buf.copy_within(i + 1..usize::from(*len), i);
                *len -= 1;
                removed
            }
            Entries::Spilled(v) => {
                let removed = v.remove(i);
                if v.len() <= INLINE {
                    let mut inline = Entries::default();
                    for (slot, &entry) in v.iter().enumerate() {
                        inline.insert(slot, entry);
                    }
                    *self = inline;
                }
                removed
            }
        }
    }
}

impl QosVector {
    /// Creates an empty vector.
    pub fn new() -> Self {
        QosVector::default()
    }

    /// Number of properties carrying a value.
    pub fn len(&self) -> usize {
        self.entries.as_slice().len()
    }

    /// Whether the vector carries no value.
    pub fn is_empty(&self) -> bool {
        self.entries.as_slice().is_empty()
    }

    fn search(&self, property: PropertyId) -> Result<usize, usize> {
        self.entries
            .as_slice()
            .binary_search_by_key(&property, |&(p, _)| p)
    }

    /// Value of `property`, if present.
    pub fn get(&self, property: PropertyId) -> Option<f64> {
        self.search(property)
            .ok()
            .map(|i| self.entries.as_slice()[i].1)
    }

    /// Sets (or replaces) the value of `property`, returning the previous
    /// value if there was one.
    pub fn set(&mut self, property: PropertyId, value: f64) -> Option<f64> {
        match self.search(property) {
            Ok(i) => Some(std::mem::replace(
                &mut self.entries.as_mut_slice()[i].1,
                value,
            )),
            Err(i) => {
                self.entries.insert(i, (property, value));
                None
            }
        }
    }

    /// Removes `property`, returning its value if it was present.
    pub fn remove(&mut self, property: PropertyId) -> Option<f64> {
        self.search(property).ok().map(|i| self.entries.remove(i).1)
    }

    /// Whether the vector carries a value for `property`.
    pub fn contains(&self, property: PropertyId) -> bool {
        self.search(property).is_ok()
    }

    /// Iterates over `(property, value)` pairs in property-id order.
    pub fn iter(&self) -> impl Iterator<Item = (PropertyId, f64)> + '_ {
        self.entries.as_slice().iter().copied()
    }

    /// The property ids carrying a value, in order.
    pub fn properties(&self) -> impl Iterator<Item = PropertyId> + '_ {
        self.entries.as_slice().iter().map(|&(p, _)| p)
    }

    /// Replaces the value of every property `self` carries with the one
    /// `other` carries for it. Properties only `other` carries are not
    /// added, so the vector never grows (or allocates).
    pub fn overwrite(&mut self, other: &QosVector) {
        for (p, v) in other.iter() {
            if let Ok(i) = self.search(p) {
                self.entries.as_mut_slice()[i].1 = v;
            }
        }
    }

    /// Merges `other` into `self`; on conflict the value chosen by
    /// `combine(self_value, other_value)` wins.
    pub fn merge_with(&mut self, other: &QosVector, mut combine: impl FnMut(f64, f64) -> f64) {
        for (p, v) in other.iter() {
            match self.get(p) {
                Some(cur) => {
                    self.set(p, combine(cur, v));
                }
                None => {
                    self.set(p, v);
                }
            }
        }
    }
}

impl PartialEq for QosVector {
    fn eq(&self, other: &Self) -> bool {
        self.entries.as_slice() == other.entries.as_slice()
    }
}

impl fmt::Debug for QosVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QosVector")
            .field("entries", &self.entries.as_slice())
            .finish()
    }
}

impl FromIterator<(PropertyId, f64)> for QosVector {
    fn from_iter<T: IntoIterator<Item = (PropertyId, f64)>>(iter: T) -> Self {
        let mut v = QosVector::new();
        for (p, val) in iter {
            v.set(p, val);
        }
        v
    }
}

impl Extend<(PropertyId, f64)> for QosVector {
    fn extend<T: IntoIterator<Item = (PropertyId, f64)>>(&mut self, iter: T) {
        for (p, val) in iter {
            self.set(p, val);
        }
    }
}

impl fmt::Display for QosVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (p, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}: {v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::shrink::Shrink;

    fn p(i: u32) -> PropertyId {
        PropertyId(i)
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = QosVector::new();
        assert_eq!(v.set(p(3), 1.5), None);
        assert_eq!(v.get(p(3)), Some(1.5));
        assert_eq!(v.get(p(4)), None);
    }

    #[test]
    fn set_replaces_and_returns_previous() {
        let mut v = QosVector::new();
        v.set(p(1), 1.0);
        assert_eq!(v.set(p(1), 2.0), Some(1.0));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn entries_stay_sorted() {
        let mut v = QosVector::new();
        for i in [5u32, 1, 3, 2, 4] {
            v.set(p(i), f64::from(i));
        }
        let ids: Vec<_> = v.properties().collect();
        assert_eq!(ids, vec![p(1), p(2), p(3), p(4), p(5)]);
    }

    #[test]
    fn remove_deletes_entry() {
        let mut v: QosVector = [(p(1), 1.0), (p(2), 2.0)].into_iter().collect();
        assert_eq!(v.remove(p(1)), Some(1.0));
        assert_eq!(v.remove(p(1)), None);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn merge_with_prefers_combined_value() {
        let mut a: QosVector = [(p(1), 10.0), (p(2), 5.0)].into_iter().collect();
        let b: QosVector = [(p(2), 7.0), (p(3), 1.0)].into_iter().collect();
        a.merge_with(&b, f64::max);
        assert_eq!(a.get(p(1)), Some(10.0));
        assert_eq!(a.get(p(2)), Some(7.0));
        assert_eq!(a.get(p(3)), Some(1.0));
    }

    #[test]
    fn overwrite_replaces_shared_properties_only() {
        let mut a: QosVector = [(p(1), 10.0), (p(2), 5.0)].into_iter().collect();
        let b: QosVector = [(p(2), 7.0), (p(3), 1.0)].into_iter().collect();
        a.overwrite(&b);
        assert_eq!(a, [(p(1), 10.0), (p(2), 7.0)].into_iter().collect());
    }

    #[test]
    fn display_is_nonempty_for_empty_vector() {
        assert_eq!(QosVector::new().to_string(), "{}");
    }

    #[test]
    fn from_iterator_deduplicates_keeping_last() {
        let v: QosVector = [(p(1), 1.0), (p(1), 9.0)].into_iter().collect();
        assert_eq!(v.get(p(1)), Some(9.0));
        assert_eq!(v.len(), 1);
    }

    /// The selection tables hold one vector per candidate row, so the
    /// per-session byte and RSS figures rest on this size.
    #[test]
    fn two_entries_fit_in_forty_bytes() {
        assert!(std::mem::size_of::<QosVector>() <= 40);
    }

    /// One mutation of the property below, over property ids `0..IDS`.
    #[derive(Debug, Clone)]
    enum Op {
        Set(u32, f64),
        Remove(u32),
        Merge(Vec<(u32, f64)>),
        Extend(Vec<(u32, f64)>),
    }

    /// Shrinking truncates the op sequence; single ops stay as sampled.
    impl Shrink for Op {
        fn shrink_candidates(&self) -> Vec<Self> {
            Vec::new()
        }
    }

    const IDS: u32 = 6;

    fn op() -> impl Strategy<Value = Op> {
        let pair = (0..IDS, 0.0..100.0);
        prop_oneof![
            4 => pair.clone().prop_map(|(id, value)| Op::Set(id, value)),
            3 => (0..IDS).prop_map(Op::Remove),
            1 => prop::collection::vec(pair.clone(), 0..4).prop_map(Op::Merge),
            1 => prop::collection::vec(pair, 0..4).prop_map(Op::Extend),
        ]
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(op(), 1..40)
    }

    /// The reference model: a `Vec` kept sorted by property id.
    fn model_set(model: &mut Vec<(PropertyId, f64)>, property: PropertyId, value: f64) {
        match model.iter_mut().find(|(q, _)| *q == property) {
            Some(entry) => entry.1 = value,
            None => {
                model.push((property, value));
                model.sort_by_key(|&(q, _)| q);
            }
        }
    }

    /// Applies `op` to both the vector and the model.
    fn apply(v: &mut QosVector, model: &mut Vec<(PropertyId, f64)>, op: &Op) {
        let combine = |cur: f64, new: f64| cur + 2.0 * new;
        match op {
            Op::Set(id, value) => {
                let previous = model.iter().find(|(q, _)| *q == p(*id)).map(|e| e.1);
                assert_eq!(v.set(p(*id), *value), previous);
                model_set(model, p(*id), *value);
            }
            Op::Remove(id) => {
                let previous = model.iter().position(|(q, _)| *q == p(*id));
                let removed = previous.map(|i| model.remove(i).1);
                assert_eq!(v.remove(p(*id)), removed);
            }
            Op::Merge(pairs) => {
                let other: QosVector = pairs.iter().map(|&(id, x)| (p(id), x)).collect();
                v.merge_with(&other, combine);
                for (q, x) in other.iter() {
                    let merged = match model.iter().find(|(r, _)| *r == q) {
                        Some(&(_, cur)) => combine(cur, x),
                        None => x,
                    };
                    model_set(model, q, merged);
                }
            }
            Op::Extend(pairs) => {
                v.extend(pairs.iter().map(|&(id, x)| (p(id), x)));
                for &(id, x) in pairs {
                    model_set(model, p(id), x);
                }
            }
        }
    }

    /// Every observable of `v` equals the model's.
    fn agrees(v: &QosVector, model: &[(PropertyId, f64)]) -> Result<(), TestCaseError> {
        for id in 0..IDS {
            let expected = model.iter().find(|(q, _)| *q == p(id)).map(|e| e.1);
            prop_assert_eq!(v.get(p(id)), expected);
            prop_assert_eq!(v.contains(p(id)), expected.is_some());
        }
        prop_assert_eq!(v.len(), model.len());
        prop_assert_eq!(v.is_empty(), model.is_empty());
        prop_assert_eq!(v.iter().collect::<Vec<_>>(), model.to_vec());
        prop_assert_eq!(
            format!("{v:?}"),
            format!("QosVector {{ entries: {model:?} }}")
        );
        // Equal to the same entries reached by another route: every id
        // set (spilled), then the absent ones removed.
        let mut rebuilt: QosVector = (0..IDS).map(|id| (p(id), -1.0)).collect();
        for id in 0..IDS {
            match model.iter().find(|(q, _)| *q == p(id)) {
                Some(&(_, x)) => rebuilt.set(p(id), x),
                None => rebuilt.remove(p(id)),
            };
        }
        prop_assert_eq!(v, &rebuilt);
        prop_assert_eq!(v.clone(), rebuilt);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn every_step_agrees_with_a_sorted_vec(ops in ops()) {
            let mut v = QosVector::new();
            let mut model = Vec::new();
            for op in &ops {
                apply(&mut v, &mut model, op);
                agrees(&v, &model)?;
            }
        }
    }

    /// The sampled sequences cross the inline boundary both ways, so the
    /// property above exercises spilling and coming back inline.
    #[test]
    fn sampled_sequences_spill_and_come_back_inline() {
        let crosses = (0..128).any(|seed| {
            let ops = ops().sample(&mut proptest::test_runner::TestRng::new(seed));
            let (mut v, mut model) = (QosVector::new(), Vec::new());
            let mut spilled = false;
            ops.iter().any(|op| {
                apply(&mut v, &mut model, op);
                spilled |= model.len() > INLINE;
                spilled && model.len() < INLINE
            })
        });
        assert!(crosses);
    }
}
