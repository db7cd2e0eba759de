//! Deterministic 1-D K-means, the clustering primitive of QASSA's local
//! selection phase.

/// Reusable scratch buffers for repeated K-means runs.
///
/// The local selection phase clusters one column per (activity, property)
/// pair; at 10k+ candidates the per-call `Vec` churn dominates. One
/// scratch, cleared and refilled per column, keeps the hot loop
/// allocation-free after the first activity. Labels are bytes: a run
/// makes at most [`MAX_CLUSTERS`] clusters.
#[derive(Debug, Clone, Default)]
pub struct KmeansScratch {
    /// The input's [`total_key`]s, sorted and deduplicated.
    sorted: Vec<u64>,
    centroids: Vec<f64>,
    assignments: Vec<u8>,
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
    pub fn assignments(&self) -> &[u8] {
        &self.assignments
    }

    /// Final centroids of the last run, ascending, empty clusters
    /// dropped.
    pub fn centroids(&self) -> &[f64] {
        &self.centroids
    }
}

/// The most clusters one run makes: a label fits a byte.
pub const MAX_CLUSTERS: usize = 256;

/// An integer key whose unsigned order is `f64::total_cmp`'s: flip every
/// bit of a negative value, and only the sign bit of a non-negative one.
/// Ranking and K-means sort by it instead of calling a float comparator.
pub(crate) fn total_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// The value whose [`total_key`] is `key`.
pub(crate) fn from_total_key(key: u64) -> f64 {
    f64::from_bits(key ^ (!(((key as i64) >> 63) as u64) | (1 << 63)))
}

/// Clusters `values` into at most `k` bands with Lloyd's algorithm,
/// into caller-owned buffers.
///
/// After the call, `scratch.assignments()` holds the cluster labels
/// (parallel to `values`, relabelled in ascending-centroid order) and
/// `scratch.centroids()` the ascending centroids; the returned value is
/// the effective cluster count. No allocation happens once the scratch
/// has grown to the workload's size.
///
/// Deterministic: centroids are initialised at evenly spaced quantiles of
/// the sorted input. A `k` above [`MAX_CLUSTERS`] clusters as
/// [`MAX_CLUSTERS`]. When the input has fewer than `k` distinct values,
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
/// use qasom_selection::{kmeans_1d_with, KmeansScratch};
///
/// let values = [1.0, 1.1, 0.9, 10.0, 10.2, 9.8];
/// let mut scratch = KmeansScratch::new();
/// assert_eq!(kmeans_1d_with(&values, 2, 50, &mut scratch), 2);
/// let labels = scratch.assignments();
/// assert_eq!(labels[0], labels[1]);
/// assert_ne!(labels[0], labels[3]);
/// ```
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

    // The keys sort as `total_cmp` orders the values. Equal keys are
    // bit-identical values, and equal values are adjacent keys, so the
    // dedup keeps the first of `-0.0` and `+0.0` as a float dedup would.
    scratch.sorted.clear();
    scratch.sorted.extend(values.iter().map(|&v| total_key(v)));
    scratch.sorted.sort_unstable();
    scratch
        .sorted
        .dedup_by(|a, b| from_total_key(*a) == from_total_key(*b));
    let k = k.min(scratch.sorted.len()).min(MAX_CLUSTERS);

    // Quantile initialisation over distinct values.
    for i in 0..k {
        let pos = (i as f64 + 0.5) / k as f64 * (scratch.sorted.len() as f64 - 1.0);
        scratch
            .centroids
            .push(from_total_key(scratch.sorted[pos.round() as usize]));
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
            // `nearest < kc <= MAX_CLUSTERS`.
            changed |= usize::from(*label) != nearest;
            *label = nearest as u8;
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
        // A new label is below the old cluster count, so still a byte.
        *a = scratch.relabel[usize::from(*a)] as u8;
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

    /// One run through a fresh scratch: `(k, labels, centroids)`.
    fn kmeans(values: &[f64], k: usize, max_iters: usize) -> (usize, Vec<u8>, Vec<f64>) {
        let mut scratch = KmeansScratch::new();
        let kc = kmeans_1d_with(values, k, max_iters, &mut scratch);
        (kc, scratch.assignments, scratch.centroids)
    }

    #[test]
    fn separates_obvious_bands() {
        let values = [1.0, 2.0, 1.5, 100.0, 101.0, 99.0, 50.0, 51.0];
        let (k, labels, _) = kmeans(&values, 3, 100);
        assert_eq!(k, 3);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[6], 1);
        assert_eq!(labels[3], 2);
    }

    #[test]
    fn centroids_are_sorted_ascending() {
        let values = [9.0, 1.0, 5.0, 9.5, 1.2, 5.1];
        let (k, _, centroids) = kmeans(&values, 3, 100);
        assert_eq!(centroids.len(), k);
        for w in centroids.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn fewer_distinct_values_than_k() {
        let values = [5.0, 5.0, 5.0];
        let (k, labels, _) = kmeans(&values, 4, 10);
        assert_eq!(k, 1);
        assert!(labels.iter().all(|&a| a == 0));
    }

    #[test]
    fn degenerate_normalised_column_stays_finite() {
        // A min == max property column normalises to a constant 0.5
        // (the neutral score); clustering it must yield one finite
        // band, never a NaN centroid.
        let values = [0.5; 8];
        let (k, _, centroids) = kmeans(&values, 4, 50);
        assert_eq!(k, 1);
        assert!(centroids[0].is_finite());
        assert_eq!(centroids[0], 0.5);
    }

    #[test]
    fn empty_clusters_are_dropped_not_nan() {
        // Two tight value groups under k = 5: at most two clusters can
        // survive, and every surviving centroid must be finite.
        let values = [1.0, 1.0, 1.0001, 40.0, 40.0, 40.0001];
        let (k, labels, centroids) = kmeans(&values, 5, 100);
        assert!(k <= 4);
        assert_eq!(centroids.len(), k);
        for (label, centroid) in centroids.iter().enumerate() {
            assert!(centroid.is_finite(), "NaN centroid at {label}");
            assert!(labels.contains(&(label as u8)), "empty cluster {label}");
        }
    }

    #[test]
    fn empty_input_yields_empty_clustering() {
        let (k, labels, centroids) = kmeans(&[], 3, 10);
        assert_eq!(k, 0);
        assert!(labels.is_empty());
        assert!(centroids.is_empty());
    }

    /// Labels ascend with the centroids; ranking inverts them for a
    /// higher-is-better property (`local::tests::
    /// band_ranks_follow_the_tendency`).
    #[test]
    fn labels_ascend_with_the_values() {
        let (_, labels, _) = kmeans(&[1.0, 10.0], 2, 10);
        assert_eq!(labels, [0, 1]);
        let (_, labels, _) = kmeans(&[10.0, 1.0], 2, 10);
        assert_eq!(labels, [1, 0]);
    }

    #[test]
    fn deterministic_across_calls() {
        let values: Vec<f64> = (0..100).map(|i| f64::from(i % 17) * 3.3).collect();
        assert_eq!(kmeans(&values, 4, 100), kmeans(&values, 4, 100));
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
            let (fresh_k, labels, centroids) = kmeans(values, 4, 100);
            let k = kmeans_1d_with(values, 4, 100, &mut scratch);
            assert_eq!(k, fresh_k);
            assert_eq!(scratch.assignments(), &labels[..]);
            assert_eq!(scratch.centroids(), &centroids[..]);
        }
    }

    #[test]
    fn partition_covers_all_points() {
        let values: Vec<f64> = (0..57).map(f64::from).collect();
        let (k, labels, _) = kmeans(&values, 4, 100);
        assert_eq!(labels.len(), values.len());
        assert!(labels.iter().all(|&a| usize::from(a) < k));
        // Every cluster is non-empty.
        for label in 0..k {
            assert!(labels.contains(&(label as u8)));
        }
    }

    #[test]
    fn more_than_a_bytes_worth_of_clusters_clusters_as_max() {
        let values: Vec<f64> = (0..600).map(f64::from).collect();
        let run = kmeans(&values, 1_000, 5);
        assert_eq!(run.0, MAX_CLUSTERS);
        assert_eq!(run, kmeans(&values, MAX_CLUSTERS, 5));
    }

    /// The key round-trips every value's bits, signed zeros and the
    /// extremes included, and orders values as `total_cmp` does.
    #[test]
    fn the_total_key_round_trips_and_orders() {
        let values = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            1e-300,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for &v in &values {
            assert_eq!(from_total_key(total_key(v)).to_bits(), v.to_bits());
        }
        for w in values.windows(2) {
            assert!(total_key(w[0]) < total_key(w[1]), "{} !< {}", w[0], w[1]);
        }
    }

    /// Signed zeros are one distinct value, kept as the first the sort
    /// meets (`-0.0`), as a float sort and dedup keep it.
    #[test]
    fn signed_zeros_are_one_distinct_value() {
        let mut scratch = KmeansScratch::new();
        assert_eq!(
            kmeans_1d_with(&[0.0, -0.0, 1.0, 0.0], 3, 10, &mut scratch),
            2
        );
        let distinct: Vec<u64> = scratch
            .sorted
            .iter()
            .map(|&key| from_total_key(key).to_bits())
            .collect();
        assert_eq!(distinct, [(-0.0f64).to_bits(), 1.0f64.to_bits()]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        let _ = kmeans(&[1.0, f64::NAN], 2, 10);
    }
}
