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

use qasom_qos::utility::utility;
use qasom_qos::{Normalizer, Preferences, PropertyId, QosModel, Tendency};

use crate::kmeans::total_key;
use crate::{kmeans_1d_with, KmeansScratch, ServiceCandidate};

/// A candidate annotated with its local-selection rank: one row of an
/// activity's ranked table.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedCandidate {
    candidate: ServiceCandidate,
    utility: f64,
    class: u32,
    level: u8,
}

impl From<ServiceCandidate> for RankedCandidate {
    /// An unranked row. [`LocalRank::rank_table`] fills in its level,
    /// class and utility where it sorts the table.
    fn from(candidate: ServiceCandidate) -> Self {
        RankedCandidate {
            candidate,
            utility: 0.0,
            class: 0,
            level: 0,
        }
    }
}

impl RankedCandidate {
    /// The underlying candidate.
    pub fn candidate(&self) -> &ServiceCandidate {
        &self.candidate
    }

    /// QoS level (`0` = best band).
    pub fn level(&self) -> usize {
        usize::from(self.level)
    }

    /// QoS class within the level (`1` = closest to the better level).
    pub fn class(&self) -> usize {
        self.class as usize
    }

    /// SAW utility among the activity's candidates (`f_{s_{i,k}}`).
    pub fn utility(&self) -> f64 {
        self.utility
    }

    /// The best-first order as one integer: level, then class, then
    /// utility descending, then id. Ranking and merging both sort by it.
    /// A class beyond 2²⁴ − 1 (as many requested properties) saturates.
    fn sort_key(&self) -> u128 {
        (u128::from(self.level) << 120)
            | (u128::from(self.class.min(0xFF_FFFF)) << 96)
            | (u128::from(!total_key(self.utility)) << 32)
            | u128::from(self.candidate.id().raw())
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
/// One arena holds the per-property value column, the present-candidate
/// index column, the flat `|properties| × |candidates|` rank matrix and
/// the K-means scratch. Its buffers grow to the largest table ranked
/// through it and are then reused: compose keeps one per worker, so a
/// worker allocates them once per compose, not once per activity.
#[derive(Debug, Clone, Default)]
pub struct LocalScratch {
    values: Vec<f64>,
    present: Vec<u32>,
    ranks: Vec<u8>,
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

    /// [`LocalRank::rank`] with caller-owned buffers: copies the
    /// candidates into a table and ranks it with
    /// [`LocalRank::rank_table`].
    pub fn rank_with(
        &self,
        model: &QosModel,
        candidates: &[ServiceCandidate],
        properties: &[PropertyId],
        preferences: &Preferences,
        scratch: &mut LocalScratch,
    ) -> QosLevels {
        let table = candidates
            .iter()
            .cloned()
            .map(RankedCandidate::from)
            .collect();
        self.rank_table(model, table, properties, preferences, scratch)
    }

    /// Ranks an owned table of candidate rows in place: fills in each
    /// row's level, class and utility, sorts the table best-first and
    /// cuts it into levels. The rows' previous ranks are ignored. A
    /// caller that builds the rows itself (compose, from discovery)
    /// makes no other per-candidate copy.
    pub fn rank_table(
        &self,
        model: &QosModel,
        mut table: Vec<RankedCandidate>,
        properties: &[PropertyId],
        preferences: &Preferences,
        scratch: &mut LocalScratch,
    ) -> QosLevels {
        if table.is_empty() {
            return QosLevels::default();
        }
        let n = table.len();
        let bands = self.bands.clamp(1, usize::from(u8::MAX));

        // Worst possible rank: below the deepest band (missing values).
        let missing_rank = bands as u8;

        // Destructure for disjoint &mut borrows inside the column loop.
        let LocalScratch {
            values,
            present,
            ranks,
            kmeans,
        } = scratch;

        // Per property: gather the flat value column, cluster it, and
        // scatter band ranks into the flat rank matrix (column-major by
        // property). The column's bounds fit the min–max normaliser, so
        // the candidate pool is traversed once per property.
        ranks.clear();
        ranks.resize(properties.len() * n, missing_rank);
        let mut normalizer = Normalizer::default();
        let mut bounds: Vec<(PropertyId, f64, f64)> = Vec::with_capacity(properties.len());
        // Each column holds at most `n` values: size both buffers once.
        values.clear();
        values.reserve(n);
        present.clear();
        present.reserve(n);
        for (pi, &p) in properties.iter().enumerate() {
            let tendency = model.tendency(p);
            values.clear();
            present.clear();
            // Non-finite values (e.g. an unreachable host's perceived
            // response time) count as missing: unknown or unusable
            // quality sinks below every band.
            for (i, row) in table.iter().enumerate() {
                if let Some(v) = row.candidate.qos().get(p).filter(|v| v.is_finite()) {
                    present.push(i as u32);
                    values.push(v);
                }
            }
            // The column's raw value bounds are cached too: the global
            // phase fits its composition-level normaliser from these
            // instead of re-scanning every candidate.
            if let Some((lo, hi)) = fold_bounds(values.iter().copied()) {
                normalizer.include_bounds(model, p, lo, hi);
                bounds.push((p, lo, hi));
            }
            let k = kmeans_1d_with(values, bands, KMEANS_ITERS, kmeans);
            let column = &mut ranks[pi * n..(pi + 1) * n];
            for (&i, &label) in present.iter().zip(kmeans.assignments()) {
                // `label < k <= bands <= 255`.
                column[i as usize] = match tendency {
                    Tendency::LowerBetter => label,
                    Tendency::HigherBetter => k - 1 - label,
                } as u8;
            }
        }

        // Preference properties outside the requested set still need
        // normalisation bounds for the utility term.
        for p in preferences.properties() {
            if !properties.contains(&p) {
                let finite = table
                    .iter()
                    .filter_map(|row| row.candidate.qos().get(p))
                    .filter(|v| v.is_finite());
                if let Some((lo, hi)) = fold_bounds(finite) {
                    normalizer.include_bounds(model, p, lo, hi);
                }
            }
        }

        let prefs_owned;
        let prefs = if preferences.is_empty() {
            prefs_owned = Preferences::uniform(properties.iter().copied());
            &prefs_owned
        } else {
            preferences
        };

        for (i, row) in table.iter_mut().enumerate() {
            let mut worst = 0;
            let mut class = 0;
            for pi in 0..properties.len() {
                let r = ranks[pi * n + i];
                match r.cmp(&worst) {
                    std::cmp::Ordering::Greater => {
                        worst = r;
                        class = 1;
                    }
                    std::cmp::Ordering::Equal => class += 1,
                    std::cmp::Ordering::Less => {}
                }
            }
            row.level = worst;
            row.class = class;
            row.utility = utility(row.candidate.qos(), &normalizer, prefs);
        }

        bounds.sort_by_key(|&(p, ..)| p);
        // Ids are unique within one activity, so the key is total and an
        // unstable sort is exact.
        table.sort_unstable_by_key(RankedCandidate::sort_key);
        let mut levels = QosLevels {
            ranked: table,
            ends: Vec::new(),
            bounds,
        };
        levels.index_levels();
        levels
    }
}

/// The ranked candidate hierarchy of one activity — the one list the
/// global phase descends, dynamic binding walks and substitution picks
/// alternates from. Stored once: every candidate in a single best-first
/// table (level, then class, then utility), with each level a sub-slice
/// of it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QosLevels {
    ranked: Vec<RankedCandidate>,
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
    pub fn merge(&mut self, mut other: QosLevels) {
        self.ranked.append(&mut other.ranked);
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
        assert_eq!(best.candidate().id(), cands[0].id());
        assert_eq!(best.level(), 0);
        // The uniformly terrible one sits in a deeper level.
        let worst_level = levels
            .best_first()
            .iter()
            .find(|r| r.candidate().id() == cands[1].id())
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
        let by_id = |id| {
            levels
                .best_first()
                .iter()
                .find(|r| r.candidate().id() == id)
                .unwrap()
        };
        let mixed = by_id(cands[1].id());
        let bad = by_id(cands[2].id());
        assert_eq!(mixed.level(), bad.level());
        assert!(mixed.class() < bad.class());
        // And the mixed one is therefore ranked first within the level.
        assert_eq!(
            levels.level(mixed.level())[0].candidate().id(),
            cands[1].id()
        );
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
            .find(|r| r.candidate().id() == empty.id())
            .unwrap();
        assert_eq!(empty_rank.level(), cfg.bands);
        assert_eq!(levels.best_first()[0].candidate().id(), full.id());
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

    /// The ranked table is the one per-candidate copy a compose makes,
    /// so the per-session byte figures rest on this size.
    #[test]
    fn a_ranked_row_fits_in_sixty_four_bytes() {
        assert!(std::mem::size_of::<RankedCandidate>() <= 64);
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
