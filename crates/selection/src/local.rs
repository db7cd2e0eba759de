//! QASSA phase 1 — local selection.
//!
//! Per abstract activity, candidate services are clustered per QoS
//! property into ranked quality bands (1-D K-means), the band memberships
//! are combined into **QoS levels** and **QoS classes**, and candidates
//! are ordered best-first:
//!
//! * the *level* of a candidate is its worst band rank across the
//!   requested properties (`QL_r` — a service can only guarantee its worst
//!   band);
//! * within a level, its *class* is the number of properties stuck at that
//!   worst rank (`QC_{r,e}` — the fewer, the closer the candidate is to
//!   the better level);
//! * within a class, candidates are ordered by SAW utility.
//!
//! A candidate missing a requested property is ranked below every band
//! (its quality is unknown, which an open environment must treat as
//! worst).
//!
//! Ranking reads an activity's candidates as a table: one
//! [`RankedCandidate`] row per candidate, and its values in
//! [`QosColumns`], one column per property the request names. Nothing
//! else a service advertises is copied.

use std::sync::Arc;

use qasom_qos::{Normalizer, Preferences, PropertyId, QosModel, QosVector, Tendency};
use qasom_registry::ServiceId;

use crate::kmeans::{from_total_key, total_key};
use crate::{kmeans_1d_with, KmeansScratch, SelectionProblem, ServiceCandidate};

/// One row of an activity's ranked table: a candidate's id, the
/// position of its values in the table's [`QosColumns`], and its
/// local-selection rank. Ranking sorts these rows, not the values.
///
/// A row is its own best-first sort key, `(hi, lo)` ascending: `hi`
/// holds the level (8 bits), the class (24 bits) and the top half of
/// the utility's descending key (`!total_key(utility)`); `lo` holds that
/// key's bottom half and the id. So the order is level, then class, then
/// utility descending (`+0.0` before `-0.0`), then id, and a sort reads
/// two words per row instead of computing a key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct RankedCandidate {
    hi: u64,
    lo: u64,
    position: u32,
}

/// The low half of a row word.
const LOW: u64 = 0xFFFF_FFFF;

/// The largest class a row holds.
const CLASS_MAX: usize = 0xFF_FFFF;

impl RankedCandidate {
    /// An unranked row for candidate `id`, whose values are row
    /// `position` of the table's columns. [`LocalRank::rank_table`]
    /// fills in its level, class and utility where it sorts the table.
    pub fn new(id: ServiceId, position: u32) -> Self {
        let mut row = RankedCandidate {
            hi: 0,
            lo: u64::from(id.raw()),
            position,
        };
        row.set_utility(0.0);
        row
    }

    /// The registry id of the candidate.
    pub fn id(&self) -> ServiceId {
        ServiceId::from_raw(self.lo as u32)
    }

    /// Where the candidate's values sit in its table's columns: its
    /// index in the candidates the table was ranked from (after a
    /// merge, in the concatenation of both sides).
    pub fn position(&self) -> usize {
        self.position as usize
    }

    /// QoS level (`0` = best band).
    pub fn level(&self) -> usize {
        (self.hi >> 56) as usize
    }

    /// QoS class within the level (`1` = closest to the better level).
    /// It saturates at 2²⁴ − 1: more requested properties at the worst
    /// rank than that read as that many.
    pub fn class(&self) -> usize {
        (self.hi >> 32) as usize & CLASS_MAX
    }

    /// SAW utility among the activity's candidates (`f_{s_{i,k}}`).
    pub fn utility(&self) -> f64 {
        from_total_key(!(((self.hi & LOW) << 32) | (self.lo >> 32)))
    }

    fn set_utility(&mut self, utility: f64) {
        let key = !total_key(utility);
        self.hi = (self.hi & !LOW) | (key >> 32);
        self.lo = (key << 32) | (self.lo & LOW);
    }

    /// Folds the band rank of one more requested property into the
    /// level (the worst rank) and the class (how many properties are at
    /// it).
    fn note_rank(&mut self, rank: u8) {
        match usize::from(rank).cmp(&self.level()) {
            std::cmp::Ordering::Greater => {
                self.hi = (u64::from(rank) << 56) | (1 << 32) | (self.hi & LOW);
            }
            std::cmp::Ordering::Equal if self.class() < CLASS_MAX => self.hi += 1 << 32,
            _ => {}
        }
    }

    /// The best-first order: the row's two words.
    fn sort_key(&self) -> (u64, u64) {
        (self.hi, self.lo)
    }
}

impl std::fmt::Debug for RankedCandidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankedCandidate")
            .field("id", &self.id())
            .field("position", &self.position)
            .field("level", &self.level())
            .field("class", &self.class())
            .field("utility", &self.utility())
            .finish()
    }
}

/// The bits of a value a column does not hold: a signalling NaN, which
/// neither arithmetic nor parsing produces (both yield quiet NaNs), so a
/// value a QoS vector carries, NaN included, reads back as itself unless
/// it was built from exactly these bits.
const MISSING: u64 = 0x7FF0_0000_0000_0001;

/// The QoS values of one activity's candidates, as selection reads
/// them: one column of `f64`s per property, in the request's property
/// order, one value per row.
///
/// Discovery writes a compose's columns as it qualifies each service,
/// and K-means, the bound fold and the global phase read them in place.
/// The property list is shared (an `Arc`), so the columns of every
/// activity of one request point at one list.
#[derive(Debug, Clone, Default)]
pub struct QosColumns {
    properties: Arc<[PropertyId]>,
    /// Column `c` is `values[c * stride..][..len]`.
    values: Vec<f64>,
    stride: usize,
    len: usize,
}

impl QosColumns {
    /// Empty columns for `properties`, with room for `rows` rows before
    /// the first reallocation.
    pub fn with_capacity(properties: Arc<[PropertyId]>, rows: usize) -> Self {
        QosColumns {
            values: vec![f64::from_bits(MISSING); properties.len() * rows],
            properties,
            stride: rows,
            len: 0,
        }
    }

    /// The property of each column, in column order.
    pub fn properties(&self) -> &[PropertyId] {
        &self.properties
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no row was written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one row, reading each column's value from `value`, and
    /// returns the row's position.
    pub fn push(&mut self, value: impl Fn(PropertyId) -> Option<f64>) -> u32 {
        if self.len == self.stride {
            let rows = self.len;
            self.relayout((2 * rows).max(4), 0..rows);
        }
        for (c, &p) in self.properties.iter().enumerate() {
            self.values[c * self.stride + self.len] = value(p).unwrap_or(f64::from_bits(MISSING));
        }
        self.len += 1;
        (self.len - 1) as u32
    }

    /// The column index of `property`.
    fn column(&self, property: PropertyId) -> Option<usize> {
        self.properties.iter().position(|&p| p == property)
    }

    /// Column `c`, one slot per row, a missing value as [`MISSING`].
    fn column_values(&self, c: usize) -> &[f64] {
        &self.values[c * self.stride..][..self.len]
    }

    /// The value in column `c` of row `position`.
    fn at(&self, c: usize, position: usize) -> Option<f64> {
        let v = self.values[c * self.stride + position];
        (v.to_bits() != MISSING).then_some(v)
    }

    /// The value of `property` in row `position`; `None` when the row
    /// has none or no column holds the property.
    pub fn get(&self, position: usize, property: PropertyId) -> Option<f64> {
        self.at(self.column(property)?, position)
    }

    /// Row `position` as a QoS vector: the values it holds.
    pub fn qos(&self, position: usize) -> QosVector {
        (0..self.properties.len())
            .filter_map(|c| Some((self.properties[c], self.at(c, position)?)))
            .collect()
    }

    /// Rewrites the columns at `stride`, holding the rows `rows` names
    /// (by position), in that order.
    fn relayout(&mut self, stride: usize, rows: impl Iterator<Item = usize> + Clone) {
        let mut values = vec![f64::from_bits(MISSING); self.properties.len() * stride];
        for c in 0..self.properties.len() {
            let column = self.column_values(c);
            for (slot, position) in values[c * stride..].iter_mut().zip(rows.clone()) {
                *slot = column[position];
            }
        }
        self.len = rows.count();
        self.values = values;
        self.stride = stride;
    }

    /// Puts the rows in the order of `rows`, which name rows by
    /// position, and renumbers their positions to match: a row no entry
    /// names is dropped. Nothing is copied when `rows` names every row
    /// once, in column order.
    fn follow(&mut self, rows: &mut [RankedCandidate]) {
        if self.len == rows.len() && rows.iter().enumerate().all(|(i, r)| r.position() == i) {
            return;
        }
        self.relayout(rows.len(), rows.iter().map(RankedCandidate::position));
        for (i, row) in rows.iter_mut().enumerate() {
            row.position = i as u32;
        }
    }

    /// Appends the rows of `other` after these, under the union of both
    /// property lists (a value one side has no column for is missing).
    fn append(&mut self, other: &QosColumns) {
        let mut properties = self.properties.to_vec();
        for &p in other.properties.iter() {
            if !properties.contains(&p) {
                properties.push(p);
            }
        }
        let stride = self.len + other.len;
        let mut values = vec![f64::from_bits(MISSING); properties.len() * stride];
        for (c, &p) in properties.iter().enumerate() {
            let column = &mut values[c * stride..][..stride];
            for (side, offset) in [(&*self, 0), (other, self.len)] {
                if let Some(from) = side.column(p) {
                    column[offset..][..side.len].copy_from_slice(side.column_values(from));
                }
            }
        }
        if properties[..] != self.properties[..] {
            self.properties = properties.into();
        }
        self.values = values;
        self.stride = stride;
        self.len = stride;
    }
}

impl PartialEq for QosColumns {
    /// Same properties, rows and values, a missing value equal only to a
    /// missing one (and NaN to nothing, as in a [`QosVector`]).
    fn eq(&self, other: &Self) -> bool {
        self.properties == other.properties
            && self.len == other.len
            && (0..self.properties.len()).all(|c| {
                self.column_values(c)
                    .iter()
                    .zip(other.column_values(c))
                    .all(|(a, b)| a == b || (a.to_bits() == MISSING && b.to_bits() == MISSING))
            })
    }
}

/// Lloyd-iteration cap of the per-property K-means.
const KMEANS_ITERS: usize = 50;

/// Configuration of the local selection phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalRank {
    /// Number of K-means bands per property (the `k` of QASSA). Ranking
    /// reads it clamped to `1..=255`: `0` ranks as `1`, and a band rank
    /// (or the missing-value rank one below the last band) fits a byte.
    pub bands: usize,
}

impl Default for LocalRank {
    /// Four bands, as in the original evaluation set-up.
    fn default() -> Self {
        LocalRank { bands: 4 }
    }
}

/// Reusable buffers for [`LocalRank::rank_table`].
///
/// One arena holds the K-means scratch, and the value and present-row
/// columns a column with a missing or non-finite value is gathered into
/// (a column of finite values is clustered in place). Its buffers grow
/// to the largest table ranked through it and are then reused: compose
/// keeps one per worker, so a worker allocates them once per compose,
/// not once per activity.
#[derive(Debug, Clone, Default)]
pub struct LocalScratch {
    values: Vec<f64>,
    present: Vec<u32>,
    kmeans: KmeansScratch,
}

impl LocalScratch {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        LocalScratch::default()
    }
}

/// The `(min, max)` of `values`, folded in order with
/// [`Normalizer::widen`] (the first of two equal values stays); `None`
/// when empty.
fn fold_bounds(values: impl IntoIterator<Item = f64>) -> Option<(f64, f64)> {
    values.into_iter().fold(None, |bounds, v| {
        Some(bounds.map_or((v, v), |b| Normalizer::widen(b, (v, v))))
    })
}

impl LocalRank {
    /// Runs local selection for one activity's candidate set over the
    /// requested properties.
    pub fn rank(
        &self,
        model: &QosModel,
        candidates: &[ServiceCandidate],
        properties: &[PropertyId],
        preferences: &Preferences,
    ) -> QosLevels {
        self.rank_with(
            model,
            candidates,
            properties,
            preferences,
            &mut LocalScratch::new(),
        )
    }

    /// [`LocalRank::rank`] with caller-owned buffers: writes the
    /// candidates' values of the requested properties (and of weighted
    /// ones outside them, which utility reads) into columns and ranks
    /// them with [`LocalRank::rank_table`].
    pub fn rank_with(
        &self,
        model: &QosModel,
        candidates: &[ServiceCandidate],
        properties: &[PropertyId],
        preferences: &Preferences,
        scratch: &mut LocalScratch,
    ) -> QosLevels {
        let mut layout = properties.to_vec();
        for p in preferences.properties() {
            if !layout.contains(&p) {
                layout.push(p);
            }
        }
        let mut columns = QosColumns::with_capacity(layout.into(), candidates.len());
        let rows = candidates
            .iter()
            .map(|c| RankedCandidate::new(c.id(), columns.push(|p| c.qos().get(p))))
            .collect();
        self.rank_table(model, rows, columns, properties, preferences, scratch)
    }

    /// Ranks an owned table in place: fills in each row's level, class
    /// and utility from its values in `columns`, sorts the rows
    /// best-first and cuts them into levels. The rows' previous ranks
    /// are ignored. Rows are ranked in the order given, which may differ
    /// from the columns' (discovery puts better match degrees first); the
    /// columns are then copied once into that order. A property no
    /// column holds is missing from every row. A caller that builds the
    /// table itself (compose, from discovery) makes no other
    /// per-candidate copy.
    pub fn rank_table(
        &self,
        model: &QosModel,
        mut rows: Vec<RankedCandidate>,
        mut columns: QosColumns,
        properties: &[PropertyId],
        preferences: &Preferences,
        scratch: &mut LocalScratch,
    ) -> QosLevels {
        if rows.is_empty() {
            return QosLevels::default();
        }
        columns.follow(&mut rows);
        let n = rows.len();
        let bands = self.bands.clamp(1, usize::from(u8::MAX));

        // Worst possible rank: below the deepest band (missing values).
        let missing_rank = bands as u8;

        // Destructure for disjoint &mut borrows inside the column loop.
        let LocalScratch {
            values,
            present,
            kmeans,
        } = scratch;

        // Each row starts at level 0, class 0 and the empty sum (`-0.0`),
        // which utility adds its terms to below.
        let empty_sum: f64 = std::iter::empty::<f64>().sum();
        for row in rows.iter_mut() {
            row.hi = 0;
            row.set_utility(empty_sum);
        }

        // Per property: cluster the column and fold each row's band rank
        // into its level (the worst rank so far) and class (how many
        // properties share it). The column's bounds fit the min–max
        // normaliser, so the candidate pool is traversed once per
        // property.
        let mut normalizer = Normalizer::default();
        let mut bounds: Vec<(PropertyId, f64, f64)> = Vec::with_capacity(properties.len());
        for &p in properties {
            let tendency = model.tendency(p);
            let column = columns
                .column(p)
                .map_or(&[][..], |c| columns.column_values(c));
            // Non-finite values (e.g. an unreachable host's perceived
            // response time) count as missing: unknown or unusable
            // quality sinks below every band. A column without one is
            // clustered where it lies; any other is gathered first.
            let gathered = column.len() < n || !column.iter().all(|v| v.is_finite());
            if gathered {
                values.clear();
                present.clear();
                for (i, &v) in column.iter().enumerate() {
                    if v.is_finite() {
                        present.push(i as u32);
                        values.push(v);
                    }
                }
            }
            let finite: &[f64] = if gathered { &values[..] } else { column };
            // The column's raw value bounds are cached too: the global
            // phase fits its composition-level normaliser from these
            // instead of re-scanning every candidate.
            if let Some((lo, hi)) = fold_bounds(finite.iter().copied()) {
                normalizer.include_bounds(model, p, lo, hi);
                bounds.push((p, lo, hi));
            }
            let k = kmeans_1d_with(finite, bands, KMEANS_ITERS, kmeans);
            let band = |label: u8| -> u8 {
                // `label < k <= bands <= 255`.
                match tendency {
                    Tendency::LowerBetter => label,
                    Tendency::HigherBetter => (k - 1) as u8 - label,
                }
            };
            if gathered {
                let mut labelled = present.iter().zip(kmeans.assignments()).peekable();
                for (i, row) in rows.iter_mut().enumerate() {
                    let rank = match labelled.next_if(|&(&at, _)| at as usize == i) {
                        Some((_, &label)) => band(label),
                        None => missing_rank,
                    };
                    row.note_rank(rank);
                }
            } else {
                for (row, &label) in rows.iter_mut().zip(kmeans.assignments()) {
                    row.note_rank(band(label));
                }
            }
        }

        // Preference properties outside the requested set still need
        // normalisation bounds for the utility term.
        for p in preferences.properties() {
            if !properties.contains(&p) {
                let finite = columns
                    .column(p)
                    .map_or(&[][..], |c| columns.column_values(c))
                    .iter()
                    .copied()
                    .filter(|v| v.is_finite());
                if let Some((lo, hi)) = fold_bounds(finite) {
                    normalizer.include_bounds(model, p, lo, hi);
                }
            }
        }

        // Utility, one weighted property at a time: its column and fitted
        // range are looked up once per activity, and every row adds its
        // term, so each row sums its terms in preference order, the bits
        // `qasom_qos::utility::utility` gives its vector.
        let prefs = SelectionProblem::effective_preferences(preferences, properties);
        for (p, w) in prefs.iter() {
            let scale = normalizer.scale(p);
            let column = columns
                .column(p)
                .map_or(&[][..], |c| columns.column_values(c));
            for (i, row) in rows.iter_mut().enumerate() {
                let term = match column.get(i) {
                    Some(&v) if v.to_bits() != MISSING => w * scale.score(v),
                    _ => 0.0,
                };
                row.set_utility(row.utility() + term);
            }
        }

        bounds.sort_by_key(|&(p, ..)| p);
        // Ids are unique within one activity, so the key is total and an
        // unstable sort is exact.
        rows.sort_unstable_by_key(RankedCandidate::sort_key);
        let mut levels = QosLevels {
            ranked: rows,
            columns,
            ends: Vec::new(),
            bounds,
        };
        levels.index_levels();
        levels
    }
}

/// The ranked candidate hierarchy of one activity — the one list the
/// global phase descends, dynamic binding walks and substitution picks
/// alternates from. Stored once: every candidate's row in a single
/// best-first table (level, then class, then utility), with each level a
/// sub-slice of it, and the candidates' values in columns the rows
/// point into.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QosLevels {
    ranked: Vec<RankedCandidate>,
    columns: QosColumns,
    /// `ends[r]` is where level `r` ends in `ranked` (it starts where
    /// level `r - 1` ends); an empty intermediate level repeats its
    /// predecessor's offset.
    ends: Vec<usize>,
    /// Raw `(property, min, max)` value bounds over the finite values the
    /// ranking saw, sorted by property — cached so composition-level
    /// normalisation never re-scans the candidate pool.
    bounds: Vec<(PropertyId, f64, f64)>,
}

impl QosLevels {
    /// Re-derives the level offsets from the best-first table.
    fn index_levels(&mut self) {
        let level_count = self.ranked.last().map_or(0, |r| r.level() + 1);
        self.ends = (0..level_count)
            .map(|r| self.ranked.partition_point(|c| c.level() <= r))
            .collect();
    }

    /// Number of levels (including empty intermediate ones).
    pub fn level_count(&self) -> usize {
        self.ends.len()
    }

    /// Candidates of one level (best-first within the level); empty for
    /// an empty or out-of-range level.
    pub fn level(&self, r: usize) -> &[RankedCandidate] {
        let Some(&end) = self.ends.get(r) else {
            return &[];
        };
        let start = r.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.ranked[start..end]
    }

    /// All candidates, best-first across levels.
    pub fn best_first(&self) -> &[RankedCandidate] {
        &self.ranked
    }

    /// The values the rows point into.
    pub fn columns(&self) -> &QosColumns {
        &self.columns
    }

    /// The value of `property` a row of this table holds; `None` when
    /// the candidate has none or the property was not ranked on.
    pub fn value(&self, row: &RankedCandidate, property: PropertyId) -> Option<f64> {
        self.columns.get(row.position(), property)
    }

    /// A row of this table as a candidate: its id and the values the
    /// table holds for it, which are those of the properties it was
    /// ranked on, not everything the service advertises.
    pub fn candidate(&self, row: &RankedCandidate) -> ServiceCandidate {
        ServiceCandidate::new(row.id(), self.columns.qos(row.position()))
    }

    /// Total number of candidates.
    pub fn total(&self) -> usize {
        self.ranked.len()
    }

    /// Whether there is no candidate at all.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    /// The cached raw `(min, max)` of the finite values the ranking saw
    /// for `property` — `None` when no candidate offered a finite value.
    pub fn bound(&self, property: PropertyId) -> Option<(f64, f64)> {
        self.bounds
            .binary_search_by_key(&property, |&(p, ..)| p)
            .ok()
            .map(|i| (self.bounds[i].1, self.bounds[i].2))
    }

    /// Merges another hierarchy into this one (distributed QASSA: the
    /// coordinator unions provider-side digests): the tables are
    /// concatenated and put back in best-first order; value bounds widen
    /// to cover both sides.
    pub fn merge(&mut self, other: QosLevels) {
        let offset = self.columns.len() as u32;
        self.columns.append(&other.columns);
        self.ranked
            .extend(other.ranked.iter().map(|row| RankedCandidate {
                position: row.position + offset,
                ..*row
            }));
        // Digests from different providers may repeat an id: keep the
        // stable sort so such ties stay in arrival order.
        self.ranked.sort_by_key(RankedCandidate::sort_key);
        self.index_levels();
        for (p, lo, hi) in other.bounds {
            match self.bounds.binary_search_by_key(&p, |&(q, ..)| q) {
                Ok(i) => {
                    let (_, min, max) = &mut self.bounds[i];
                    (*min, *max) = Normalizer::widen((*min, *max), (lo, hi));
                }
                Err(i) => self.bounds.insert(i, (p, lo, hi)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_qos::QosVector;
    use qasom_registry::{ServiceDescription, ServiceRegistry};

    fn candidates(model: &QosModel, specs: &[(f64, f64)]) -> Vec<ServiceCandidate> {
        // specs: (response_time, availability)
        let rt = model.property("ResponseTime").unwrap();
        let av = model.property("Availability").unwrap();
        let mut reg = ServiceRegistry::new();
        specs
            .iter()
            .map(|&(t, a)| {
                let id = reg.register(ServiceDescription::new("s", "d#F"));
                let mut q = QosVector::new();
                q.set(rt, t);
                q.set(av, a);
                ServiceCandidate::new(id, q)
            })
            .collect()
    }

    fn props(model: &QosModel) -> Vec<PropertyId> {
        vec![
            model.property("ResponseTime").unwrap(),
            model.property("Availability").unwrap(),
        ]
    }

    #[test]
    fn best_candidates_land_in_level_zero() {
        let m = QosModel::standard();
        let cands = candidates(
            &m,
            &[
                (10.0, 0.99), // uniformly excellent
                (500.0, 0.5), // uniformly terrible
                (10.0, 0.5),  // mixed
            ],
        );
        let levels = LocalRank::default().rank(&m, &cands, &props(&m), &Preferences::default());
        let best = &levels.best_first()[0];
        assert_eq!(best.id(), cands[0].id());
        assert_eq!(best.level(), 0);
        // The uniformly terrible one sits in a deeper level.
        let worst_level = levels
            .best_first()
            .iter()
            .find(|r| r.id() == cands[1].id())
            .unwrap()
            .level();
        assert!(worst_level > 0);
    }

    #[test]
    fn class_counts_properties_at_worst_rank() {
        let m = QosModel::standard();
        let cands = candidates(
            &m,
            &[
                (10.0, 0.99), // uniformly good: level 0
                (10.0, 0.5),  // one property drags it down
                (500.0, 0.5), // both properties at the bottom
            ],
        );
        let levels = LocalRank::default().rank(&m, &cands, &props(&m), &Preferences::default());
        let by_id = |id| levels.best_first().iter().find(|r| r.id() == id).unwrap();
        let mixed = by_id(cands[1].id());
        let bad = by_id(cands[2].id());
        assert_eq!(mixed.level(), bad.level());
        assert!(mixed.class() < bad.class());
        // And the mixed one is therefore ranked first within the level.
        assert_eq!(levels.level(mixed.level())[0].id(), cands[1].id());
    }

    #[test]
    fn missing_property_sinks_below_all_bands() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let mut reg = ServiceRegistry::new();
        let full = {
            let id = reg.register(ServiceDescription::new("a", "d#F"));
            let mut q = QosVector::new();
            q.set(rt, 10.0);
            ServiceCandidate::new(id, q)
        };
        let empty = {
            let id = reg.register(ServiceDescription::new("b", "d#F"));
            ServiceCandidate::new(id, QosVector::new())
        };
        let cfg = LocalRank::default();
        let levels = cfg.rank(
            &m,
            &[full.clone(), empty.clone()],
            &[rt],
            &Preferences::default(),
        );
        let empty_rank = levels
            .best_first()
            .iter()
            .find(|r| r.id() == empty.id())
            .unwrap();
        assert_eq!(empty_rank.level(), cfg.bands);
        assert_eq!(levels.best_first()[0].id(), full.id());
        // The levels between the two are empty but counted, and asking
        // past the last one is as empty as asking for one of them.
        assert_eq!(levels.level_count(), cfg.bands + 1);
        assert_eq!(levels.level(0).len(), 1);
        for r in 1..cfg.bands {
            assert_eq!(levels.level(r), &[]);
        }
        assert_eq!(levels.level(cfg.bands), std::slice::from_ref(empty_rank));
        assert_eq!(levels.level(cfg.bands + 1), &[]);
    }

    #[test]
    fn levels_are_consecutive_slices_of_the_best_first_table() {
        let m = QosModel::standard();
        let specs: Vec<(f64, f64)> = (0..40)
            .map(|i| (10.0 + f64::from(i) * 20.0, 0.99 - f64::from(i) * 0.01))
            .collect();
        let cands = candidates(&m, &specs);
        let levels = LocalRank::default().rank(&m, &cands, &props(&m), &Preferences::default());
        let mut seen = 0;
        for r in 0..levels.level_count() {
            let level = levels.level(r);
            assert_eq!(level, &levels.best_first()[seen..seen + level.len()]);
            seen += level.len();
        }
        assert_eq!(seen, 40);
    }

    #[test]
    fn empty_candidates_give_empty_levels() {
        let m = QosModel::standard();
        let levels = LocalRank::default().rank(&m, &[], &props(&m), &Preferences::default());
        assert!(levels.is_empty());
        assert!(levels.best_first().is_empty());
        assert_eq!(levels.level_count(), 0);
    }

    #[test]
    fn merge_unions_levels() {
        let m = QosModel::standard();
        let a = candidates(&m, &[(10.0, 0.99), (500.0, 0.5)]);
        let b = candidates(&m, &[(12.0, 0.98), (480.0, 0.55)]);
        let cfg = LocalRank::default();
        let mut la = cfg.rank(&m, &a, &props(&m), &Preferences::default());
        let lb = cfg.rank(&m, &b, &props(&m), &Preferences::default());
        let total = la.total() + lb.total();
        la.merge(lb);
        assert_eq!(la.total(), total);
    }

    /// Ranking sorts these rows, and a compose keeps one per candidate
    /// beside its values, so the per-session byte figures rest on this
    /// size.
    #[test]
    fn a_ranked_row_fits_in_twenty_four_bytes() {
        assert_eq!(std::mem::size_of::<RankedCandidate>(), 24);
    }

    /// A row with `ranks` noted and `utility` set.
    fn row(id: u32, position: u32, ranks: &[u8], utility: f64) -> RankedCandidate {
        let mut row = RankedCandidate::new(ServiceId::from_raw(id), position);
        for &rank in ranks {
            row.note_rank(rank);
        }
        row.set_utility(utility);
        row
    }

    /// Every field reads back as written, whatever the others hold.
    #[test]
    fn a_row_round_trips_its_fields() {
        for id in [0, 1, 0xDEAD_BEEF, u32::MAX] {
            for position in [0, 7, u32::MAX] {
                for (ranks, level, class) in [
                    (&[][..], 0, 0),
                    (&[0, 0, 0][..], 0, 3),
                    (&[2, 1, 2][..], 2, 2),
                    (&[3, 255, 4, 255][..], 255, 2),
                ] {
                    for utility in [0.0, -0.0, 0.25, 1.0, f64::MIN_POSITIVE, 1.0 - f64::EPSILON] {
                        let r = row(id, position, ranks, utility);
                        assert_eq!(r.id().raw(), id);
                        assert_eq!(r.position(), position as usize);
                        assert_eq!((r.level(), r.class()), (level, class));
                        assert_eq!(r.utility().to_bits(), utility.to_bits());
                    }
                }
                let fresh = RankedCandidate::new(ServiceId::from_raw(id), position);
                assert_eq!(fresh.utility().to_bits(), 0.0f64.to_bits());
                assert_eq!((fresh.level(), fresh.class()), (0, 0));
            }
        }
    }

    /// The order the rows' words give is the order of the one-integer
    /// key `(level, class, !total_key(utility), id)`: utility
    /// descending puts `+0.0` before `-0.0`.
    #[test]
    fn rows_order_as_the_wide_key() {
        let wide = |r: &RankedCandidate| {
            (r.level() as u128) << 120
                | (r.class() as u128) << 96
                | u128::from(!total_key(r.utility())) << 32
                | u128::from(r.id().raw())
        };
        let mut rows = Vec::new();
        for id in [3, 1, 2] {
            for ranks in [&[][..], &[1][..], &[1, 1][..], &[0, 2][..]] {
                for utility in [0.0, -0.0, 0.5, 1.0, 1e-300] {
                    rows.push(row(id, id, ranks, utility));
                }
            }
        }
        let mut by_words = rows.clone();
        by_words.sort_by_key(RankedCandidate::sort_key);
        rows.sort_by_key(wide);
        assert_eq!(by_words, rows);
        assert!(row(1, 0, &[], 0.0).sort_key() < row(1, 0, &[], -0.0).sort_key());
    }

    /// The class saturates at 2²⁴ − 1 instead of carrying into the level.
    #[test]
    fn the_class_saturates() {
        let mut r = row(9, 0, &[1], 0.5);
        for _ in 0..CLASS_MAX + 5 {
            r.note_rank(1);
        }
        assert_eq!((r.level(), r.class()), (1, CLASS_MAX));
        assert_eq!(r.utility(), 0.5);
        assert_eq!(r.id().raw(), 9);
        r.note_rank(2);
        assert_eq!((r.level(), r.class()), (2, 1));
    }

    #[test]
    fn a_row_debugs_as_its_decoded_fields() {
        let r = row(4, 2, &[1, 1], 0.5);
        assert_eq!(
            format!("{r:?}"),
            format!(
                "RankedCandidate {{ id: {:?}, position: 2, level: 1, class: 2, utility: 0.5 }}",
                ServiceId::from_raw(4)
            )
        );
    }

    /// A lower-is-better property's bands rank as K-means labels them, a
    /// higher-is-better one's in reverse.
    #[test]
    fn band_ranks_follow_the_tendency() {
        let m = QosModel::standard();
        let cands = candidates(&m, &[(1.0, 0.5), (10.0, 0.99)]);
        let cfg = LocalRank { bands: 2 };
        let prefs = Preferences::default();
        let level_of = |levels: &QosLevels, id| {
            levels
                .best_first()
                .iter()
                .find(|r| r.id() == id)
                .unwrap()
                .level()
        };
        for (p, best) in [(props(&m)[0], 0), (props(&m)[1], 1)] {
            let levels = cfg.rank(&m, &cands, &[p], &prefs);
            assert_eq!(level_of(&levels, cands[best].id()), 0);
            assert_eq!(level_of(&levels, cands[1 - best].id()), 1);
        }
    }

    /// Rows ranked out of column order (discovery puts better match
    /// degrees first) rank as the same candidates handed in that order.
    #[test]
    fn rows_out_of_column_order_rank_as_if_in_order() {
        let m = QosModel::standard();
        let specs: Vec<(f64, f64)> = (0..30)
            .map(|i| {
                (
                    10.0 + f64::from(i * 7 % 11) * 30.0,
                    0.5 + f64::from(i % 5) * 0.1,
                )
            })
            .collect();
        let cands = candidates(&m, &specs);
        let properties: Arc<[PropertyId]> = props(&m).into();
        let mut columns = QosColumns::with_capacity(Arc::clone(&properties), 0);
        let mut rows: Vec<RankedCandidate> = cands
            .iter()
            .map(|c| RankedCandidate::new(c.id(), columns.push(|p| c.qos().get(p))))
            .collect();
        rows.reverse();
        let prefs = Preferences::default();
        let cfg = LocalRank::default();
        let reversed: Vec<ServiceCandidate> = cands.iter().rev().cloned().collect();
        let levels = cfg.rank_table(
            &m,
            rows,
            columns,
            &properties,
            &prefs,
            &mut LocalScratch::new(),
        );
        assert_eq!(levels, cfg.rank(&m, &reversed, &properties, &prefs));
        for row in levels.best_first() {
            assert_eq!(&levels.candidate(row), &reversed[row.position()]);
        }
    }

    /// Values of properties the ranking does not read are not copied,
    /// and a row reads back as the ranked values it holds.
    #[test]
    fn a_table_holds_only_the_ranked_properties() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let price = m.property("Price").unwrap();
        let mut cands = candidates(&m, &[(10.0, 0.99), (20.0, 0.5)]);
        let full: Vec<ServiceCandidate> = cands
            .drain(..)
            .map(|c| {
                let mut qos = c.qos().clone();
                qos.set(price, 3.0);
                ServiceCandidate::new(c.id(), qos)
            })
            .collect();
        let levels = LocalRank::default().rank(&m, &full, &[rt], &Preferences::default());
        assert_eq!(levels.columns().properties(), &[rt]);
        for row in levels.best_first() {
            let qos = levels.candidate(row).qos().clone();
            assert_eq!(qos.len(), 1);
            assert_eq!(qos.get(rt), full[row.position()].qos().get(rt));
            assert_eq!(levels.value(row, price), None);
        }
    }

    /// A merge of tables over different property lists keeps both
    /// sides' values under the union of the lists.
    #[test]
    fn merge_unions_the_columns() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let av = m.property("Availability").unwrap();
        let cands = candidates(&m, &[(10.0, 0.99), (500.0, 0.5), (40.0, 0.7)]);
        let cfg = LocalRank::default();
        let prefs = Preferences::default();
        let mut merged = cfg.rank(&m, &cands[..2], &[rt], &prefs);
        merged.merge(cfg.rank(&m, &cands[2..], &[av], &prefs));
        assert_eq!(merged.columns().properties(), &[rt, av]);
        let value = |id, p| {
            let row = merged.best_first().iter().find(|r| r.id() == id).unwrap();
            merged.value(row, p)
        };
        assert_eq!(value(cands[0].id(), rt), Some(10.0));
        assert_eq!(value(cands[0].id(), av), None);
        assert_eq!(value(cands[2].id(), av), Some(0.7));
        assert_eq!(value(cands[2].id(), rt), None);
    }

    #[test]
    fn zero_bands_rank_like_one() {
        let m = QosModel::standard();
        let specs: Vec<(f64, f64)> = (0..12)
            .map(|i| {
                (
                    10.0 + f64::from(i * 5 % 7) * 40.0,
                    0.6 + f64::from(i % 4) * 0.1,
                )
            })
            .collect();
        let cands = candidates(&m, &specs);
        let rank =
            |bands| LocalRank { bands }.rank(&m, &cands, &props(&m), &Preferences::default());
        let one = rank(1);
        assert_eq!(rank(0), one);
        assert_eq!(one.level_count(), 1);
        // Above a byte's worth of bands, ranking reads 255.
        assert_eq!(rank(1_000), rank(255));
    }

    #[test]
    fn utilities_are_in_unit_interval() {
        let m = QosModel::standard();
        let specs: Vec<(f64, f64)> = (0..25)
            .map(|i| {
                (
                    10.0 + f64::from(i * 13 % 7) * 30.0,
                    0.5 + f64::from(i % 5) * 0.1,
                )
            })
            .collect();
        let cands = candidates(&m, &specs);
        let levels = LocalRank::default().rank(&m, &cands, &props(&m), &Preferences::default());
        for r in levels.best_first() {
            assert!((0.0..=1.0).contains(&r.utility()), "{}", r.utility());
        }
    }
}
