//! Regularly-sampled time series.
//!
//! Production traces in the paper are collected at a 5-minute granularity
//! (§V-B). [`TimeSeries`] models exactly that: a start time, a fixed step,
//! and one `f64` sample per step. [`SeriesWindow`] borrows a run of them;
//! its time-of-day grouping is the aggregation power templates are built on.

use crate::stats::{mean, percentile};
use crate::time::{SimDuration, SimTime, Weekday};

/// A regularly-sampled series of `f64` values.
///
/// ```
/// use simcore::series::TimeSeries;
/// use simcore::time::{SimDuration, SimTime};
///
/// let ts = TimeSeries::from_values(
///     SimTime::ZERO,
///     SimDuration::from_minutes(5),
///     vec![1.0, 2.0, 3.0],
/// );
/// assert_eq!(ts.len(), 3);
/// assert_eq!(ts.value_at(SimTime::ZERO + SimDuration::from_minutes(7)), Some(2.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    start: SimTime,
    step: SimDuration,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Create an empty series.
    ///
    /// # Panics
    /// Panics if `step` is zero.
    pub fn new(start: SimTime, step: SimDuration) -> TimeSeries {
        assert!(!step.is_zero(), "step must be non-zero");
        TimeSeries {
            start,
            step,
            values: Vec::new(),
        }
    }

    /// Create a series from existing values.
    ///
    /// # Panics
    /// Panics if `step` is zero.
    pub fn from_values(start: SimTime, step: SimDuration, values: Vec<f64>) -> TimeSeries {
        assert!(!step.is_zero(), "step must be non-zero");
        TimeSeries {
            start,
            step,
            values,
        }
    }

    /// Generate a series by sampling `f` at each tick in `[start, end)`.
    ///
    /// # Panics
    /// Panics if `step` is zero or `end < start`.
    pub fn generate<F: FnMut(SimTime) -> f64>(
        start: SimTime,
        end: SimTime,
        step: SimDuration,
        mut f: F,
    ) -> TimeSeries {
        let values = crate::time::ticks(start, end, step).map(&mut f).collect();
        TimeSeries {
            start,
            step,
            values,
        }
    }

    /// First sample's timestamp.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Sampling interval.
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// One-past-the-last timestamp covered by the series.
    pub fn end(&self) -> SimTime {
        self.start + self.step * self.values.len() as u64
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Append one sample at the next tick.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// The raw sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Timestamp of sample `i`.
    pub fn time_at_index(&self, i: usize) -> SimTime {
        self.start + self.step * i as u64
    }

    /// Slot index of the sample covering instant `t`, or `None` if `t` is
    /// before the series start. The index may be past the end of the data;
    /// `value_at(t) == self.values().get(self.index_at(t)?)`. Batched
    /// consumers (the columnar rack engine) compute the index once per step
    /// and probe many same-shaped series with it.
    pub fn index_at(&self, t: SimTime) -> Option<usize> {
        if t < self.start {
            return None;
        }
        Some((t.since(self.start).as_micros() / self.step.as_micros()) as usize)
    }

    /// Sample covering instant `t`, if within range.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        self.values.get(self.index_at(t)?).copied()
    }

    /// Iterate over `(timestamp, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (self.time_at_index(i), v))
    }

    /// Element-wise sum of multiple series with identical start/step/len.
    ///
    /// Used to aggregate per-server power into rack power.
    ///
    /// # Panics
    /// Panics if `series` is empty or shapes differ.
    pub fn sum_of(series: &[&TimeSeries]) -> TimeSeries {
        let first = *series.first().expect("need at least one series");
        for s in series {
            assert_eq!(s.start, first.start, "mismatched start");
            assert_eq!(s.step, first.step, "mismatched step");
            assert_eq!(s.len(), first.len(), "mismatched length");
        }
        let values = (0..first.len())
            .map(|i| series.iter().map(|s| s.values[i]).sum())
            .collect();
        TimeSeries {
            start: first.start,
            step: first.step,
            values,
        }
    }

    /// Apply a function to every value, producing a new series.
    pub fn map<F: FnMut(f64) -> f64>(&self, f: F) -> TimeSeries {
        SeriesWindow::from(self).map(f)
    }

    /// Sub-series covering `[from, to)` (clamped to the available range).
    pub fn slice(&self, from: SimTime, to: SimTime) -> TimeSeries {
        let window = self.window(from, to);
        TimeSeries {
            start: window.start,
            step: self.step,
            values: window.values.to_vec(),
        }
    }

    /// Borrowed view of the samples covering `[from, to)`, clamped like
    /// [`TimeSeries::slice`] but without copying them.
    pub fn window(&self, from: SimTime, to: SimTime) -> SeriesWindow<'_> {
        let lo = if from <= self.start {
            0
        } else {
            from.since(self.start)
                .as_micros()
                .div_ceil(self.step.as_micros()) as usize
        };
        let hi = if to <= self.start {
            0
        } else {
            to.since(self.start)
                .as_micros()
                .div_ceil(self.step.as_micros()) as usize
        };
        let lo = lo.min(self.values.len());
        let hi = hi.min(self.values.len()).max(lo);
        SeriesWindow {
            start: self.time_at_index(lo),
            step: self.step,
            values: self.values.get(lo..hi).unwrap_or_default(),
        }
    }

    /// Mean of all samples.
    ///
    /// # Panics
    /// Panics if the series is empty.
    pub fn mean(&self) -> f64 {
        mean(&self.values)
    }

    /// Percentile of all samples.
    ///
    /// # Panics
    /// Panics if the series is empty or `p` outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.values, p)
    }

    /// Maximum sample.
    ///
    /// # Panics
    /// Panics if the series is empty.
    pub fn max(&self) -> f64 {
        SeriesWindow::from(self).max()
    }
}

/// A borrowed run of consecutive samples with their timing — what a
/// read-only consumer (template training) takes, so that a training window
/// need not be copied out of its trace. Built by [`TimeSeries::window`],
/// or over a whole series with `SeriesWindow::from(&series)`.
#[derive(Debug, Clone, Copy)]
pub struct SeriesWindow<'a> {
    start: SimTime,
    step: SimDuration,
    values: &'a [f64],
}

impl<'a> From<&'a TimeSeries> for SeriesWindow<'a> {
    fn from(series: &'a TimeSeries) -> SeriesWindow<'a> {
        SeriesWindow {
            start: series.start,
            step: series.step,
            values: &series.values,
        }
    }
}

impl<'a> SeriesWindow<'a> {
    /// First sample's timestamp.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Sampling interval.
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw sample values.
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Timestamp of sample `i`.
    pub fn time_at_index(&self, i: usize) -> SimTime {
        self.start + self.step * i as u64
    }

    /// Apply a function to every value, producing an owned series.
    pub fn map<F: FnMut(f64) -> f64>(&self, f: F) -> TimeSeries {
        TimeSeries {
            start: self.start,
            step: self.step,
            values: self.values.iter().copied().map(f).collect(),
        }
    }

    /// Maximum sample.
    ///
    /// # Panics
    /// Panics if the window is empty.
    pub fn max(&self) -> f64 {
        assert!(!self.values.is_empty(), "max of an empty series");
        self.values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Per-day-slot aggregate (e.g. median) over selected weekdays; slots
    /// with no samples yield `f64::NAN`.
    ///
    /// Slot `i` aggregates, in time order, every sample whose time of day
    /// falls in the day's `i`-th step and whose weekday passes `day_filter`.
    /// This is the aggregation behind the paper's *DailyMed*/*DailyMax*
    /// templates ("the template's value at 9AM is the median of rack's power
    /// consumption at 9AM across all five weekdays", §IV-B).
    ///
    /// # Panics
    /// Panics if the step does not divide a day evenly.
    pub fn daily_profile<F: Fn(Weekday) -> bool, A: Fn(&[f64]) -> f64>(
        &self,
        day_filter: F,
        aggregate: A,
    ) -> Vec<f64> {
        let step = self.step.as_micros();
        assert!(
            SimDuration::DAY.as_micros().is_multiple_of(step),
            "step must divide a day evenly"
        );
        let slots_per_day = (SimDuration::DAY.as_micros() / step) as usize;
        // Sample `i` lies in day slot `(first_slot + i) % slots_per_day`, so
        // a slot's samples are every `slots_per_day`-th one, gathered into
        // one buffer reused from slot to slot.
        let first_slot = (self.start.time_of_day().as_micros() / step) as usize;
        let mut bucket = Vec::with_capacity(self.values.len().div_ceil(slots_per_day));
        (0..slots_per_day)
            .map(|slot| {
                bucket.clear();
                let first = (slot + slots_per_day - first_slot) % slots_per_day;
                let samples = self.values.iter().enumerate().skip(first);
                for (i, &v) in samples.step_by(slots_per_day) {
                    if day_filter(self.time_at_index(i).weekday()) {
                        bucket.push(v);
                    }
                }
                if bucket.is_empty() {
                    f64::NAN
                } else {
                    aggregate(&bucket)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn five_min_series(days: u64, f: impl FnMut(SimTime) -> f64) -> TimeSeries {
        TimeSeries::generate(
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_days(days),
            SimDuration::from_minutes(5),
            f,
        )
    }

    #[test]
    fn generate_has_expected_length() {
        let ts = five_min_series(1, |_| 1.0);
        assert_eq!(ts.len(), 288); // 24h * 12 samples/h
        assert_eq!(ts.end(), SimTime::ZERO + SimDuration::from_days(1));
    }

    #[test]
    fn value_at_picks_covering_sample() {
        let ts = TimeSeries::from_values(
            SimTime::from_secs(100),
            SimDuration::from_secs(10),
            vec![1.0, 2.0, 3.0],
        );
        assert_eq!(ts.value_at(SimTime::from_secs(99)), None);
        assert_eq!(ts.value_at(SimTime::from_secs(100)), Some(1.0));
        assert_eq!(ts.value_at(SimTime::from_secs(119)), Some(2.0));
        assert_eq!(ts.value_at(SimTime::from_secs(130)), None);
    }

    #[test]
    fn sum_of_aggregates_elementwise() {
        let a = TimeSeries::from_values(SimTime::ZERO, SimDuration::SECOND, vec![1.0, 2.0]);
        let b = TimeSeries::from_values(SimTime::ZERO, SimDuration::SECOND, vec![10.0, 20.0]);
        let s = TimeSeries::sum_of(&[&a, &b]);
        assert_eq!(s.values(), &[11.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "mismatched length")]
    fn sum_of_rejects_shape_mismatch() {
        let a = TimeSeries::from_values(SimTime::ZERO, SimDuration::SECOND, vec![1.0]);
        let b = TimeSeries::from_values(SimTime::ZERO, SimDuration::SECOND, vec![1.0, 2.0]);
        let _ = TimeSeries::sum_of(&[&a, &b]);
    }

    #[test]
    fn daily_profile_respects_day_filter() {
        // One full week of daily-constant values: value = day index.
        let ts = TimeSeries::generate(
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_days(7),
            SimDuration::HOUR,
            |t| t.day_index() as f64,
        );
        let week = SeriesWindow::from(&ts);
        let weekday_profile = week.daily_profile(|d| !d.is_weekend(), mean);
        // Weekdays are day indices 0..5 → mean 2.0 in every slot.
        assert!(weekday_profile.iter().all(|&v| (v - 2.0).abs() < 1e-12));
        let weekend_profile = week.daily_profile(|d| d.is_weekend(), mean);
        assert!(weekend_profile.iter().all(|&v| (v - 5.5).abs() < 1e-12));
    }

    #[test]
    fn slice_clamps_and_aligns() {
        let ts = TimeSeries::from_values(
            SimTime::ZERO,
            SimDuration::from_secs(10),
            (0..10).map(|i| i as f64).collect(),
        );
        let s = ts.slice(SimTime::from_secs(25), SimTime::from_secs(55));
        assert_eq!(s.start(), SimTime::from_secs(30));
        assert_eq!(s.values(), &[3.0, 4.0, 5.0]);
        // Fully out-of-range slice is empty.
        assert!(ts
            .slice(SimTime::from_secs(500), SimTime::from_secs(600))
            .is_empty());
    }

    #[test]
    fn basic_stats() {
        let ts = TimeSeries::from_values(SimTime::ZERO, SimDuration::SECOND, vec![1.0, 3.0, 2.0]);
        assert_eq!(ts.mean(), 2.0);
        assert_eq!(ts.max(), 3.0);
        assert_eq!(ts.percentile(50.0), 2.0);
    }

    #[test]
    fn map_preserves_shape() {
        let ts = TimeSeries::from_values(SimTime::ZERO, SimDuration::SECOND, vec![1.0, 2.0]);
        let doubled = ts.map(|v| v * 2.0);
        assert_eq!(doubled.values(), &[2.0, 4.0]);
        assert_eq!(doubled.start(), ts.start());
        assert_eq!(doubled.step(), ts.step());
    }
}
