//! Property test: the day-slot aggregation behind the DailyMed/DailyMax
//! templates agrees bit for bit with a naive bucket-then-aggregate
//! reference.
//!
//! `SeriesWindow::daily_profile` walks each day slot by stride into one
//! reused buffer, and DailyMed sorts small slots on the stack. The
//! reference below is the straightforward form: one `Vec` per day slot,
//! filled in time order, then aggregated with `percentile(xs, 50.0)` or a
//! max fold. Series start anywhere (rarely at midnight or on a step
//! boundary), run for partial weeks, and hold ties and signed zeros; both
//! weekday filters and both aggregates are checked, on whole series and on
//! windows cut out of them.

use proptest::prelude::*;
use simcore::rng::Pcg32;
use simcore::series::{SeriesWindow, TimeSeries};
use simcore::stats::percentile;
use simcore::time::{SimDuration, SimTime, Weekday};
use soc_predict::template::{PowerTemplate, TemplateKind};

/// Steps that divide a day, in minutes.
const STEP_MINUTES: [u64; 5] = [5, 9, 15, 60, 120];

fn weekday(d: Weekday) -> bool {
    !d.is_weekend()
}

fn weekend(d: Weekday) -> bool {
    d.is_weekend()
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
}

const FILTERS: [fn(Weekday) -> bool; 2] = [weekday, weekend];
const AGGREGATES: [fn(&[f64]) -> f64; 2] = [median, max];

/// The bucketing `daily_profile` replaced: one `Vec` per day slot, filled
/// in time order, then aggregated; empty slots are NaN.
fn reference_profile(
    series: &TimeSeries,
    day_filter: fn(Weekday) -> bool,
    aggregate: fn(&[f64]) -> f64,
) -> Vec<f64> {
    let step = series.step().as_micros();
    let slots = (SimDuration::DAY.as_micros() / step) as usize;
    let mut buckets = vec![Vec::new(); slots];
    for (t, v) in series.iter() {
        if day_filter(t.weekday()) {
            let slot = (t.time_of_day().as_micros() / step) as usize;
            buckets[slot % slots].push(v);
        }
    }
    buckets
        .iter()
        .map(|b| if b.is_empty() { f64::NAN } else { aggregate(b) })
        .collect()
}

/// `len` samples from `start_us`: mostly spread values, with small-integer
/// ties and signed zeros mixed in so the median's sort order matters.
fn series(start_us: u64, step_minutes: u64, len: usize, seed: u64) -> TimeSeries {
    let mut rng = Pcg32::seed_from_u64(seed);
    let values = (0..len)
        .map(|_| match rng.gen_index(4) {
            0 => rng.gen_index(3) as f64,
            1 => {
                if rng.gen_bool(0.5) {
                    -0.0
                } else {
                    0.0
                }
            }
            _ => rng.gen_range_f64(-50.0, 400.0),
        })
        .collect();
    TimeSeries::from_values(
        SimTime::from_micros(start_us),
        SimDuration::from_minutes(step_minutes),
        values,
    )
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn daily_profile_matches_naive_buckets(
        start_us in 0u64..1_209_600_000_000,
        step_idx in 0usize..5,
        len in 1usize..5_000,
        seed in 0u64..1_000_000,
        cut in (0.0..1.0f64, 0.0..1.0f64),
    ) {
        let ts = series(start_us, STEP_MINUTES[step_idx], len, seed);
        // A window cut out of the series, compared against the same cut
        // copied out with `slice`.
        let span = ts.end().since(ts.start());
        let (a, b) = if cut.0 <= cut.1 { cut } else { (cut.1, cut.0) };
        let from = ts.start() + span.mul_f64(a);
        let to = ts.start() + span.mul_f64(b);
        let copied = ts.slice(from, to);
        let cases = [
            (SeriesWindow::from(&ts), &ts),
            (ts.window(from, to), &copied),
        ];
        for (window, owned) in cases {
            prop_assert_eq!(window.values(), owned.values());
            prop_assert_eq!(window.start(), owned.start());
            for filter in FILTERS {
                for aggregate in AGGREGATES {
                    prop_assert_eq!(
                        bits(&window.daily_profile(filter, aggregate)),
                        bits(&reference_profile(owned, filter, aggregate))
                    );
                }
            }
        }
    }

    #[test]
    fn daily_templates_predict_the_naive_profiles(
        start_us in 0u64..1_209_600_000_000,
        step_idx in 0usize..5,
        extra in 0usize..3_000,
        seed in 0u64..1_000_000,
    ) {
        let step = SimDuration::from_minutes(STEP_MINUTES[step_idx]);
        let per_week = (SimDuration::WEEK.as_micros() / step.as_micros()) as usize;
        let ts = series(start_us, STEP_MINUTES[step_idx], per_week + extra, seed);
        // With at least a week of samples every (weekday, slot) pair is
        // covered, so no slot needs gap filling and the template's values
        // are the profiles themselves.
        for (kind, aggregate) in [(TemplateKind::DailyMed, median as fn(&[f64]) -> f64), (TemplateKind::DailyMax, max)] {
            let template = PowerTemplate::build(&ts, kind);
            for (day, filter) in [(1, FILTERS[0]), (5, FILTERS[1])] {
                let profile = reference_profile(&ts, filter, aggregate);
                let midnight = SimTime::ZERO + SimDuration::from_days(day);
                let predicted: Vec<f64> = (0..profile.len())
                    .map(|slot| template.predict(midnight + step * slot as u64))
                    .collect();
                prop_assert_eq!(bits(&predicted), bits(&profile));
            }
        }
    }
}
