//! Epoch-boundary tracking for gOA budget-refresh cycles.
//!
//! The control plane is epoch-structured: the gOA recomputes budget splits
//! and the sOAs refresh lifetime allowances once per epoch (weekly in the
//! paper's evaluation, §V-B), and *between* boundaries racks evolve
//! independently. That independence is what the sharded execution engine
//! (`simcore::par`) exploits — work is only dealt out between epochs — so
//! boundary detection must be a pure function of sim time, never of
//! scheduling. [`EpochTracker`] centralizes that arithmetic: callers step
//! simulated time however they like and ask the tracker whether a step
//! crossed into a new epoch.

use simcore::time::{SimDuration, SimTime};

/// Detects epoch boundaries as simulated time advances.
///
/// Epoch `k` covers `[k·period, (k+1)·period)` from [`SimTime::ZERO`]. The
/// tracker starts in epoch 0; [`EpochTracker::advance`] reports the first
/// observation inside any later epoch. Time may step by arbitrary strides —
/// a coarse step that skips whole epochs still lands in the right one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochTracker {
    period: SimDuration,
    current: u64,
    /// When the tracked state (budget split, allowances) was last refreshed;
    /// `None` until the first [`EpochTracker::mark_refresh`].
    last_refresh: Option<SimTime>,
}

impl EpochTracker {
    /// Tracker with the given boundary period.
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn new(period: SimDuration) -> EpochTracker {
        assert!(!period.is_zero(), "epoch period must be positive");
        EpochTracker {
            period,
            current: 0,
            last_refresh: None,
        }
    }

    /// The paper's weekly budget-refresh epoch.
    pub fn weekly() -> EpochTracker {
        EpochTracker::new(SimDuration::WEEK)
    }

    /// Epoch index containing `t`.
    pub fn index_of(&self, t: SimTime) -> u64 {
        t.since(SimTime::ZERO).as_micros() / self.period.as_micros()
    }

    /// Advance to `t`; returns `Some(epoch_index)` exactly when `t` lies in
    /// a different epoch than the previous call (the hook point where the
    /// gOA recomputes splits and allowances are refreshed).
    pub fn advance(&mut self, t: SimTime) -> Option<u64> {
        let idx = self.index_of(t);
        if idx != self.current {
            self.current = idx;
            Some(idx)
        } else {
            None
        }
    }

    /// Record that the tracked state was refreshed at `t` (e.g. the gOA
    /// delivered fresh budgets). Resets the staleness clock.
    pub fn mark_refresh(&mut self, t: SimTime) {
        self.last_refresh = Some(t);
    }

    /// Age of the tracked state at `now`: how long since the last
    /// [`EpochTracker::mark_refresh`]. `None` before any refresh — callers
    /// that never mark refreshes (legacy paths) see no staleness signal.
    /// During a gOA outage this is the "running on stale budgets for X"
    /// figure reported by degraded-mode telemetry.
    pub fn staleness(&self, now: SimTime) -> Option<SimDuration> {
        self.last_refresh.map(|at| now.saturating_since(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weekly_boundaries_fire_once_per_week() {
        let mut epochs = EpochTracker::weekly();
        let step = SimDuration::from_hours(6);
        let mut t = SimTime::ZERO;
        let mut fired = Vec::new();
        while t < SimTime::ZERO + SimDuration::WEEK * 3 {
            if let Some(idx) = epochs.advance(t) {
                fired.push((idx, t));
            }
            t += step;
        }
        assert_eq!(fired.len(), 2, "weeks 1 and 2 (start is already epoch 0)");
        assert_eq!(fired[0].0, 1);
        assert_eq!(fired[1].0, 2);
        assert_eq!(fired[0].1, SimTime::ZERO + SimDuration::WEEK);
        assert_eq!(epochs.current, 2);
    }

    #[test]
    fn coarse_steps_skip_into_the_right_epoch() {
        let mut epochs = EpochTracker::new(SimDuration::DAY);
        assert_eq!(
            epochs.advance(SimTime::ZERO + SimDuration::DAY * 5),
            Some(5)
        );
        assert_eq!(epochs.advance(SimTime::ZERO + SimDuration::DAY * 5), None);
        assert_eq!(epochs.index_of(SimTime::ZERO), 0);
        assert_eq!(epochs.period, SimDuration::DAY);
    }

    #[test]
    fn mid_epoch_times_do_not_fire() {
        let mut epochs = EpochTracker::weekly();
        assert_eq!(
            epochs.advance(SimTime::ZERO + SimDuration::from_days(3)),
            None
        );
        assert_eq!(
            epochs.advance(SimTime::ZERO + SimDuration::from_days(8)),
            Some(1)
        );
        assert_eq!(
            epochs.advance(SimTime::ZERO + SimDuration::from_days(9)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = EpochTracker::new(SimDuration::ZERO);
    }

    /// Property: stepping a horizon at any stride, a boundary fires exactly
    /// at the first observation inside each visited epoch — and when the
    /// stride divides the period, exactly *at* the epoch edge.
    #[test]
    fn boundaries_fire_exactly_at_epoch_edges() {
        let period = SimDuration::from_hours(8);
        for stride_mins in [15u64, 60, 120, 480] {
            let stride = SimDuration::from_minutes(stride_mins);
            let mut epochs = EpochTracker::new(period);
            let mut t = SimTime::ZERO;
            let end = SimTime::ZERO + SimDuration::from_days(10);
            while t <= end {
                match epochs.advance(t) {
                    Some(idx) => {
                        // A firing observation is the first one at or past
                        // the edge; with a dividing stride it *is* the edge.
                        assert_eq!(epochs.index_of(t), idx);
                        if period.as_micros().is_multiple_of(stride.as_micros()) {
                            assert!(
                                t.since(SimTime::ZERO)
                                    .as_micros()
                                    .is_multiple_of(period.as_micros()),
                                "dividing stride must land firings on edges"
                            );
                        }
                    }
                    None => {
                        assert_eq!(
                            epochs.index_of(t),
                            epochs.current,
                            "non-firing observations stay in the current epoch"
                        );
                    }
                }
                t += stride;
            }
        }
    }

    /// Property: tick 0 never fires (the tracker starts in epoch 0), and the
    /// last instant of an epoch still belongs to it — no off-by-one at
    /// either end.
    #[test]
    fn no_off_by_one_at_first_and_last_tick() {
        let mut epochs = EpochTracker::new(SimDuration::DAY);
        assert_eq!(epochs.advance(SimTime::ZERO), None, "tick 0 must not fire");
        // Last representable instant of epoch 0.
        let last_of_epoch0 = SimTime::ZERO + SimDuration::DAY - SimDuration::from_micros(1);
        assert_eq!(epochs.advance(last_of_epoch0), None);
        // The very next microsecond is the edge.
        assert_eq!(
            epochs.advance(last_of_epoch0 + SimDuration::from_micros(1)),
            Some(1)
        );
        // And the last instant of epoch 1 again does not fire.
        let last_of_epoch1 = SimTime::ZERO + SimDuration::DAY * 2 - SimDuration::from_micros(1);
        assert_eq!(epochs.advance(last_of_epoch1), None);
    }

    /// Property: staleness is zero at a refresh, grows monotonically with
    /// time between refreshes, and resets on the next refresh.
    #[test]
    fn staleness_is_monotone_between_refreshes() {
        let mut epochs = EpochTracker::weekly();
        assert_eq!(epochs.staleness(SimTime::ZERO), None, "no refresh yet");
        let t0 = SimTime::ZERO + SimDuration::from_hours(1);
        epochs.mark_refresh(t0);
        assert_eq!(epochs.staleness(t0), Some(SimDuration::ZERO));
        let mut prev = SimDuration::ZERO;
        for mins in [1u64, 5, 30, 120, 600] {
            let age = epochs
                .staleness(t0 + SimDuration::from_minutes(mins))
                .expect("refresh marked");
            assert!(age >= prev, "staleness must be monotone in time");
            assert_eq!(age, SimDuration::from_minutes(mins));
            prev = age;
        }
        // Querying *before* the refresh instant saturates to zero rather
        // than underflowing.
        assert_eq!(
            epochs.staleness(SimTime::ZERO),
            Some(SimDuration::ZERO),
            "pre-refresh queries saturate"
        );
        let t1 = t0 + SimDuration::from_hours(4);
        epochs.mark_refresh(t1);
        assert_eq!(epochs.staleness(t1), Some(SimDuration::ZERO));
        assert_eq!(
            epochs.staleness(t1 + SimDuration::SECOND),
            Some(SimDuration::SECOND)
        );
    }
}
