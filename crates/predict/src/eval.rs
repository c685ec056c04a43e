//! Walk-forward template evaluation.
//!
//! Reproduces the deployment discipline of §IV-B: a template is built from
//! one week of history and used for the following week, then rebuilt. The
//! resulting error distributions are what Fig. 8 (RMSE CDF across racks) and
//! Fig. 15 (mean-error CDF per technique) plot.

use crate::template::{PowerTemplate, TemplateKind};
use simcore::series::TimeSeries;
use simcore::stats::{mean_error, rmse};
use simcore::time::{SimDuration, SimTime};

/// Accuracy of one walk-forward evaluation over a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkForwardReport {
    /// Root-mean-squared error across all evaluated samples.
    pub rmse: f64,
    /// Mean signed error (positive = overprediction).
    pub mean_error: f64,
    /// Number of evaluated samples.
    pub samples: usize,
    /// Number of evaluated weeks.
    pub weeks: usize,
}

/// Evaluate `kind` on `series` by building a template from each week and
/// scoring it on the next.
///
/// # Panics
/// Panics if `series` holds fewer than two full weeks.
pub fn walk_forward(series: &TimeSeries, kind: TemplateKind) -> WalkForwardReport {
    let week_us = SimDuration::WEEK.as_micros();
    let total_weeks = (series.end().since(series.start()).as_micros() / week_us) as usize;
    assert!(
        total_weeks >= 2,
        "walk-forward evaluation needs at least two full weeks"
    );

    let mut predicted = Vec::new();
    let mut actual = Vec::new();
    for week in 1..total_weeks {
        let train_start = series.start() + SimDuration::WEEK * (week as u64 - 1);
        let train_end = series.start() + SimDuration::WEEK * week as u64;
        let test_end = series.start() + SimDuration::WEEK * (week as u64 + 1);
        let train = series.window(train_start, train_end);
        let test = series.slice(train_end, test_end);
        let template = PowerTemplate::build(train, kind);
        for (t, v) in test.iter() {
            predicted.push(template.predict(t));
            actual.push(v);
        }
    }
    WalkForwardReport {
        rmse: rmse(&predicted, &actual),
        mean_error: mean_error(&predicted, &actual),
        samples: predicted.len(),
        weeks: total_weeks - 1,
    }
}

/// Build a template at a given instant from the trailing week of history —
/// the online operation an agent performs weekly (§IV-B).
///
/// # Panics
/// Panics if `history` does not cover the week before `now`.
pub fn template_at(history: &TimeSeries, now: SimTime, kind: TemplateKind) -> PowerTemplate {
    let train_start = now - SimDuration::WEEK;
    assert!(
        history.start() <= train_start && history.end() >= now,
        "history must cover the week before `now`"
    );
    PowerTemplate::build(history.window(train_start, now), kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::Pcg32;

    /// Repeating diurnal signal with mild noise and one outlier day in week 2.
    fn noisy_series(weeks: u64, outlier: bool) -> TimeSeries {
        let mut rng = Pcg32::seed_from_u64(42);
        TimeSeries::generate(
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::WEEK * weeks,
            SimDuration::from_minutes(30),
            |t| {
                let h = t.time_of_day().as_hours_f64();
                let diurnal = 200.0 + 80.0 * (-((h - 13.0) / 4.0).powi(2)).exp();
                let noise = 3.0 * rng.sample_standard_normal();
                let holiday = outlier && t.day_index() == 9; // a Wednesday in week 2
                let scale = if holiday { 0.5 } else { 1.0 };
                diurnal * scale + noise
            },
        )
    }

    #[test]
    fn daily_med_beats_flat_templates_on_diurnal_signal() {
        let s = noisy_series(4, false);
        let daily = walk_forward(&s, TemplateKind::DailyMed);
        let flat_med = walk_forward(&s, TemplateKind::FlatMed);
        let flat_max = walk_forward(&s, TemplateKind::FlatMax);
        assert!(
            daily.rmse < flat_med.rmse,
            "{} vs {}",
            daily.rmse,
            flat_med.rmse
        );
        assert!(
            daily.rmse < flat_max.rmse,
            "{} vs {}",
            daily.rmse,
            flat_max.rmse
        );
    }

    #[test]
    fn flat_max_overpredicts_flat_med_underpredicts_peaks() {
        let s = noisy_series(3, false);
        let max = walk_forward(&s, TemplateKind::FlatMax);
        let med = walk_forward(&s, TemplateKind::FlatMed);
        assert!(max.mean_error > 0.0, "FlatMax bias {}", max.mean_error);
        assert!(med.mean_error < max.mean_error);
    }

    #[test]
    fn outlier_day_hurts_weekly_more_than_daily_med() {
        // The holiday lands in a training week; Weekly replays it verbatim,
        // DailyMed's median across five weekdays absorbs it (§IV-B intuition).
        let s = noisy_series(4, true);
        let weekly = walk_forward(&s, TemplateKind::Weekly);
        let daily = walk_forward(&s, TemplateKind::DailyMed);
        assert!(
            daily.rmse < weekly.rmse,
            "DailyMed {} should beat Weekly {} with outliers",
            daily.rmse,
            weekly.rmse
        );
    }

    #[test]
    fn report_counts_weeks_and_samples() {
        let s = noisy_series(3, false);
        let r = walk_forward(&s, TemplateKind::DailyMed);
        assert_eq!(r.weeks, 2);
        assert_eq!(r.samples, 2 * 7 * 48);
    }

    #[test]
    fn template_at_uses_trailing_week() {
        let s = noisy_series(3, false);
        let now = SimTime::ZERO + SimDuration::WEEK * 2;
        let tpl = template_at(&s, now, TemplateKind::DailyMed);
        // Should predict close to the known diurnal peak (~280).
        let t_peak = now + SimDuration::from_hours(13);
        assert!((tpl.predict(t_peak) - 280.0).abs() < 15.0);
    }

    #[test]
    #[should_panic(expected = "at least two full weeks")]
    fn walk_forward_needs_two_weeks() {
        let s = noisy_series(1, false);
        let _ = walk_forward(&s, TemplateKind::DailyMed);
    }

    #[test]
    #[should_panic(expected = "history must cover")]
    fn template_at_validates_coverage() {
        let s = noisy_series(2, false);
        let _ = template_at(
            &s,
            SimTime::ZERO + SimDuration::WEEK * 5,
            TemplateKind::DailyMed,
        );
    }
}
