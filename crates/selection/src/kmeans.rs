//! Deterministic 1-D K-means, the clustering primitive of QASSA's local
//! selection phase.

use qasom_qos::Tendency;

/// Result of clustering scalar values into `k` quality bands.
///
/// Clusters are relabelled so that cluster `0` has the smallest centroid;
/// [`Clustering::ranks`] converts labels into quality ranks (rank `0` =
/// best) under a property's tendency.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    assignments: Vec<usize>,
    centroids: Vec<f64>,
}

impl Clustering {
    /// Number of clusters actually produced (≤ requested `k`).
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Cluster label of input point `i` (labels ordered by ascending
    /// centroid).
    pub fn assignment(&self, i: usize) -> usize {
        self.assignments[i]
    }

    /// All labels, parallel to the input slice.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Centroid of cluster `label`.
    pub fn centroid(&self, label: usize) -> f64 {
        self.centroids[label]
    }

    /// Quality rank (0 = best band) of every input point under the given
    /// tendency: ascending centroids are best for lower-is-better
    /// properties, descending for higher-is-better ones.
    pub fn ranks(&self, tendency: Tendency) -> Vec<usize> {
        let k = self.k();
        self.assignments
            .iter()
            .map(|&label| match tendency {
                Tendency::LowerBetter => label,
                Tendency::HigherBetter => k - 1 - label,
            })
            .collect()
    }
}

/// Reusable scratch buffers for repeated K-means runs.
///
/// The local selection phase clusters one column per (activity, property)
/// pair; at 10k+ candidates the per-call `Vec` churn dominates. One
/// scratch, cleared and refilled per column, keeps the hot loop
/// allocation-free after the first activity.
#[derive(Debug, Clone, Default)]
pub struct KmeansScratch {
    sorted: Vec<f64>,
    centroids: Vec<f64>,
    assignments: Vec<usize>,
    sums: Vec<f64>,
    counts: Vec<usize>,
    order: Vec<usize>,
    relabel: Vec<usize>,
}

impl KmeansScratch {
    /// A fresh, empty scratch arena.
    pub fn new() -> Self {
        KmeansScratch::default()
    }

    /// Final labels of the last run (relabelled, ascending-centroid
    /// order), parallel to its input slice.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Final centroids of the last run, ascending, empty clusters
    /// dropped.
    pub fn centroids(&self) -> &[f64] {
        &self.centroids
    }
}

/// An integer key whose unsigned order is `f64::total_cmp`'s: flip every
/// bit of a negative value, and only the sign bit of a non-negative one.
/// Ranking and K-means sort by it instead of calling a float comparator.
pub(crate) fn total_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// Clusters `values` into at most `k` bands with Lloyd's algorithm.
///
/// Deterministic: centroids are initialised at evenly spaced quantiles of
/// the sorted input. When the input has fewer than `k` distinct values,
/// the effective `k` shrinks to the distinct count, and a cluster that
/// loses every point mid-iteration is dropped from the result rather
/// than receiving a `0.0 / 0` (`NaN`) centroid update. An empty input
/// yields an empty clustering.
///
/// # Panics
///
/// Panics when `k == 0` with a non-empty input, or when a value is not
/// finite.
///
/// # Examples
///
/// ```
/// use qasom_selection::kmeans_1d;
///
/// let values = [1.0, 1.1, 0.9, 10.0, 10.2, 9.8];
/// let c = kmeans_1d(&values, 2, 50);
/// assert_eq!(c.k(), 2);
/// assert_eq!(c.assignment(0), c.assignment(1));
/// assert_ne!(c.assignment(0), c.assignment(3));
/// ```
pub fn kmeans_1d(values: &[f64], k: usize, max_iters: usize) -> Clustering {
    let mut scratch = KmeansScratch::new();
    kmeans_1d_with(values, k, max_iters, &mut scratch);
    Clustering {
        assignments: scratch.assignments,
        centroids: scratch.centroids,
    }
}

/// [`kmeans_1d`] into caller-owned buffers: the hot-path variant.
///
/// After the call, `scratch.assignments()` holds the relabelled cluster
/// labels (parallel to `values`) and `scratch.centroids()` the ascending
/// centroids; the returned value is the effective cluster count. No
/// allocation happens once the scratch has grown to the workload's size.
///
/// # Panics
///
/// Same conditions as [`kmeans_1d`].
pub fn kmeans_1d_with(
    values: &[f64],
    k: usize,
    max_iters: usize,
    scratch: &mut KmeansScratch,
) -> usize {
    scratch.assignments.clear();
    scratch.centroids.clear();
    if values.is_empty() {
        return 0;
    }
    assert!(k > 0, "k must be positive");
    assert!(
        values.iter().all(|v| v.is_finite()),
        "values must be finite"
    );

    scratch.sorted.clear();
    scratch.sorted.extend_from_slice(values);
    // Keys equal under `total_key` are bit-identical, so an unstable
    // sort by the integer key gives the column `total_cmp` would.
    scratch.sorted.sort_unstable_by_key(|&v| total_key(v));
    scratch.sorted.dedup();
    let k = k.min(scratch.sorted.len());

    // Quantile initialisation over distinct values.
    for i in 0..k {
        let pos = (i as f64 + 0.5) / k as f64 * (scratch.sorted.len() as f64 - 1.0);
        scratch.centroids.push(scratch.sorted[pos.round() as usize]);
    }
    scratch.centroids.dedup();

    scratch.assignments.resize(values.len(), 0);
    let kc = scratch.centroids.len();
    scratch.sums.clear();
    scratch.sums.resize(kc, 0.0);
    scratch.counts.clear();
    scratch.counts.resize(kc, 0);
    let KmeansScratch {
        centroids,
        assignments,
        sums,
        counts,
        ..
    } = scratch;
    for _ in 0..max_iters.max(1) {
        // One pass assigns each value and accumulates it into its
        // cluster. Values are visited in input order, so every sum adds
        // the same terms in the same order as a separate update pass.
        sums.iter_mut().for_each(|s| *s = 0.0);
        counts.iter_mut().for_each(|c| *c = 0);
        let mut changed = false;
        for (&v, label) in values.iter().zip(assignments.iter_mut()) {
            // The first nearest centroid: distances are finite or +inf
            // and never negative, so `<` orders them as `total_cmp` would.
            // Selects, not branches: the nearest centroid of a shuffled
            // column is unpredictable.
            let mut nearest = 0;
            let mut best = f64::INFINITY;
            for (j, &c) in centroids.iter().enumerate() {
                let distance = (v - c).abs();
                let closer = distance < best;
                nearest = if closer { j } else { nearest };
                best = if closer { distance } else { best };
            }
            changed |= *label != nearest;
            *label = nearest;
            sums[nearest] += v;
            counts[nearest] += 1;
        }
        // A cluster that lost every point keeps its old centroid here
        // (no 0/0 NaN); the relabel pass below drops it from the result
        // entirely.
        for ((c, &sum), &count) in centroids.iter_mut().zip(sums.iter()).zip(counts.iter()) {
            if count > 0 {
                *c = sum / count as f64;
            }
        }
        if !changed {
            break;
        }
    }

    // Drop empty clusters and relabel by ascending centroid. `counts`
    // reflects the final assignment pass, so `counts[j] > 0` is exactly
    // "cluster j survived". Plain index vectors keep this deterministic
    // (no hashed iteration order).
    scratch.order.clear();
    for j in 0..kc {
        if scratch.counts[j] > 0 {
            scratch.order.push(j);
        }
    }
    let centroids = &scratch.centroids;
    scratch
        .order
        .sort_by(|&a, &b| centroids[a].total_cmp(&centroids[b]));
    scratch.relabel.clear();
    scratch.relabel.resize(kc, usize::MAX);
    for (new, &old) in scratch.order.iter().enumerate() {
        scratch.relabel[old] = new;
    }
    for a in scratch.assignments.iter_mut() {
        *a = scratch.relabel[*a];
    }
    // Compact the surviving centroids through the (idle) sums buffer so
    // the reorder never reads a slot it already overwrote.
    scratch.sums.clear();
    for &old in &scratch.order {
        scratch.sums.push(scratch.centroids[old]);
    }
    scratch.centroids.clear();
    scratch.centroids.extend_from_slice(&scratch.sums);
    debug_assert!(scratch.centroids.iter().all(|c| c.is_finite()));
    scratch.centroids.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_obvious_bands() {
        let values = [1.0, 2.0, 1.5, 100.0, 101.0, 99.0, 50.0, 51.0];
        let c = kmeans_1d(&values, 3, 100);
        assert_eq!(c.k(), 3);
        assert_eq!(c.assignment(0), 0);
        assert_eq!(c.assignment(6), 1);
        assert_eq!(c.assignment(3), 2);
    }

    #[test]
    fn centroids_are_sorted_ascending() {
        let values = [9.0, 1.0, 5.0, 9.5, 1.2, 5.1];
        let c = kmeans_1d(&values, 3, 100);
        for w in (0..c.k()).collect::<Vec<_>>().windows(2) {
            assert!(c.centroid(w[0]) < c.centroid(w[1]));
        }
    }

    #[test]
    fn fewer_distinct_values_than_k() {
        let values = [5.0, 5.0, 5.0];
        let c = kmeans_1d(&values, 4, 10);
        assert_eq!(c.k(), 1);
        assert!(c.assignments().iter().all(|&a| a == 0));
    }

    #[test]
    fn degenerate_normalised_column_stays_finite() {
        // A min == max property column normalises to a constant 0.5
        // (the neutral score); clustering it must yield one finite
        // band, never a NaN centroid.
        let values = [0.5; 8];
        let c = kmeans_1d(&values, 4, 50);
        assert_eq!(c.k(), 1);
        assert!(c.centroid(0).is_finite());
        assert_eq!(c.centroid(0), 0.5);
    }

    #[test]
    fn empty_clusters_are_dropped_not_nan() {
        // Two tight value groups under k = 5: at most two clusters can
        // survive, and every surviving centroid must be finite.
        let values = [1.0, 1.0, 1.0001, 40.0, 40.0, 40.0001];
        let c = kmeans_1d(&values, 5, 100);
        assert!(c.k() <= 4);
        for label in 0..c.k() {
            assert!(c.centroid(label).is_finite(), "NaN centroid at {label}");
            assert!(c.assignments().contains(&label), "empty cluster {label}");
        }
    }

    #[test]
    fn empty_input_yields_empty_clustering() {
        let c = kmeans_1d(&[], 3, 10);
        assert_eq!(c.k(), 0);
        assert!(c.assignments().is_empty());
    }

    #[test]
    fn ranks_invert_for_higher_better() {
        let values = [1.0, 10.0];
        let c = kmeans_1d(&values, 2, 10);
        assert_eq!(c.ranks(Tendency::LowerBetter), vec![0, 1]);
        assert_eq!(c.ranks(Tendency::HigherBetter), vec![1, 0]);
    }

    #[test]
    fn deterministic_across_calls() {
        let values: Vec<f64> = (0..100).map(|i| f64::from(i % 17) * 3.3).collect();
        assert_eq!(kmeans_1d(&values, 4, 100), kmeans_1d(&values, 4, 100));
    }

    #[test]
    fn reused_scratch_matches_fresh_runs() {
        let mut scratch = KmeansScratch::new();
        let columns: Vec<Vec<f64>> = vec![
            (0..50).map(f64::from).collect(),
            vec![0.5; 7],
            (0..31).map(|i| f64::from(i % 3)).collect(),
        ];
        for values in &columns {
            let fresh = kmeans_1d(values, 4, 100);
            let k = kmeans_1d_with(values, 4, 100, &mut scratch);
            assert_eq!(k, fresh.k());
            assert_eq!(scratch.assignments(), fresh.assignments());
            assert_eq!(scratch.centroids(), &fresh.centroids[..]);
        }
    }

    #[test]
    fn partition_covers_all_points() {
        let values: Vec<f64> = (0..57).map(f64::from).collect();
        let c = kmeans_1d(&values, 4, 100);
        assert_eq!(c.assignments().len(), values.len());
        assert!(c.assignments().iter().all(|&a| a < c.k()));
        // Every cluster is non-empty.
        for label in 0..c.k() {
            assert!(c.assignments().contains(&label));
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        let _ = kmeans_1d(&[1.0, f64::NAN], 2, 10);
    }
}
