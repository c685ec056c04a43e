//! Fixed-bucket histograms for high-volume latency recording.
//!
//! The queueing simulator produces millions of latency samples at cluster
//! scale; storing each sample for exact percentiles costs memory linear in
//! the run length. [`Histogram`] trades a bounded relative error for O(1)
//! recording and O(buckets) quantiles, using logarithmically spaced buckets
//! (as production latency recorders do).

/// A log-bucketed histogram over positive values.
///
/// Values are assigned to buckets whose boundaries grow geometrically by
/// `1 + precision`; quantile estimates therefore carry at most `precision`
/// relative error.
///
/// ```
/// use simcore::hist::Histogram;
///
/// let mut h = Histogram::new(0.01);
/// for i in 1..=1000 {
///     h.record(i as f64);
/// }
/// let p50 = h.quantile(0.50);
/// assert!((p50 - 500.0).abs() / 500.0 < 0.02);
/// assert_eq!(h.count(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    precision: f64,
    log_gamma: f64,
    /// Bucket index → count. Index 0 holds values in `(0, 1]`; negative
    /// indices (values < 1) are offset by `OFFSET`.
    counts: std::collections::BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    zeros: u64,
}

impl Histogram {
    /// Create a histogram with the given relative `precision` (e.g. 0.01 for
    /// ~1 % quantile error).
    ///
    /// # Panics
    /// Panics unless `precision` is in `(0, 1)`.
    pub fn new(precision: f64) -> Histogram {
        assert!(
            precision > 0.0 && precision < 1.0,
            "precision must be in (0, 1)"
        );
        Histogram {
            precision,
            log_gamma: (1.0 + precision).ln(),
            counts: std::collections::BTreeMap::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            zeros: 0,
        }
    }

    /// Record one non-negative value.
    ///
    /// # Panics
    /// Panics if `value` is negative or not finite.
    pub fn record(&mut self, value: f64) {
        assert!(
            value.is_finite() && value >= 0.0,
            "values must be finite and non-negative"
        );
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value == 0.0 {
            self.zeros += 1;
            return;
        }
        let idx = (value.ln() / self.log_gamma).ceil() as i32;
        *self.counts.entry(idx).or_insert(0) += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded values.
    ///
    /// # Panics
    /// Panics if the histogram is empty.
    pub fn mean(&self) -> f64 {
        assert!(self.count > 0, "mean of an empty histogram");
        self.sum / self.count as f64
    }

    /// Minimum recorded value.
    ///
    /// # Panics
    /// Panics if the histogram is empty.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "min of an empty histogram");
        self.min
    }

    /// Maximum recorded value.
    ///
    /// # Panics
    /// Panics if the histogram is empty.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "max of an empty histogram");
        self.max
    }

    /// Estimated quantile `q` in `[0, 1]`, within the configured relative
    /// precision.
    ///
    /// # Panics
    /// Panics if the histogram is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.count > 0, "quantile of an empty histogram");
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        if rank <= self.zeros {
            return 0.0;
        }
        let mut seen = self.zeros;
        for (&idx, &n) in &self.counts {
            seen += n;
            if seen >= rank {
                // Bucket upper bound; midpoint of the bucket in log space.
                let upper = (idx as f64 * self.log_gamma).exp();
                let lower = ((idx - 1) as f64 * self.log_gamma).exp();
                return ((upper + lower) / 2.0).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram (must share the same precision).
    ///
    /// # Panics
    /// Panics if precisions differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            (self.precision - other.precision).abs() < 1e-12,
            "cannot merge histograms with different precisions"
        );
        for (&idx, &n) in &other.counts {
            *self.counts.entry(idx).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.zeros += other.zeros;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;
    use proptest::prelude::*;

    #[test]
    fn quantiles_within_precision_on_uniform_data() {
        let mut h = Histogram::new(0.01);
        for i in 1..=10_000 {
            h.record(i as f64 / 10.0);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = q * 1000.0;
            let est = h.quantile(q);
            assert!(
                (est - exact).abs() / exact < 0.02,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn handles_zeros() {
        let mut h = Histogram::new(0.05);
        for _ in 0..50 {
            h.record(0.0);
        }
        for _ in 0..50 {
            h.record(10.0);
        }
        assert_eq!(h.quantile(0.25), 0.0);
        assert!(h.quantile(0.95) > 9.0);
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    fn mean_and_extremes_are_exact() {
        let mut h = Histogram::new(0.01);
        for v in [1.0, 2.0, 3.0, 10.0] {
            h.record(v);
        }
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 10.0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new(0.01);
        let mut b = Histogram::new(0.01);
        let mut c = Histogram::new(0.01);
        let mut rng = Pcg32::seed_from_u64(5);
        for _ in 0..5000 {
            let v = rng.sample_lognormal(1.0, 0.8);
            a.record(v);
            c.record(v);
        }
        for _ in 0..5000 {
            let v = rng.sample_exp(0.3);
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        for q in [0.5, 0.9, 0.99] {
            assert!((a.quantile(q) - c.quantile(q)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "different precisions")]
    fn merge_rejects_mismatched_precision() {
        let mut a = Histogram::new(0.01);
        a.record(1.0);
        let b = Histogram::new(0.02);
        a.merge(&b);
    }

    proptest! {
        #[test]
        fn quantile_bounded_by_extremes(values in prop::collection::vec(0.001..1e6f64, 1..500), q in 0.0..1.0f64) {
            let mut h = Histogram::new(0.01);
            for &v in &values {
                h.record(v);
            }
            let est = h.quantile(q);
            prop_assert!(est >= h.min() - 1e-12);
            prop_assert!(est <= h.max() + 1e-12);
        }

        #[test]
        fn quantile_monotone(values in prop::collection::vec(0.001..1e4f64, 2..300)) {
            let mut h = Histogram::new(0.01);
            for &v in &values {
                h.record(v);
            }
            prop_assert!(h.quantile(0.25) <= h.quantile(0.75) + 1e-12);
            prop_assert!(h.quantile(0.75) <= h.quantile(0.99) + 1e-12);
        }
    }
}
