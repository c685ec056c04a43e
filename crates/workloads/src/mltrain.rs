//! Throughput-oriented ML-training workload.
//!
//! The paper's cluster runs "throughput-optimized machine learning training
//! (MLTrain) from FunctionBench" on the constant-high-power servers (§V-A).
//! MLTrain is never overclocked; what matters is (a) its steady high power
//! draw and (b) how much throughput it loses when power capping throttles
//! its frequency — SmartOClock's heterogeneous budgets reduce exactly that
//! penalty ("improves the MLTrain throughput by 10.4%", §V-A).

use simcore::time::SimDuration;
use soc_power::units::MegaHertz;

/// A batch training job: progress is proportional to core frequency.
///
/// ```
/// use soc_workloads::mltrain::MlTrain;
/// use soc_power::units::MegaHertz;
/// use simcore::time::SimDuration;
///
/// let mut job = MlTrain::new(MegaHertz::new(3300), 0.9);
/// job.run_for(SimDuration::from_secs(100), MegaHertz::new(3300));
/// job.run_for(SimDuration::from_secs(100), MegaHertz::new(1650)); // capped
/// // 100s at full speed + 100s at half speed = 150 reference-seconds.
/// assert!((job.progress_seconds() - 150.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlTrain {
    reference_frequency: MegaHertz,
    utilization: f64,
    progress_seconds: f64,
    elapsed: SimDuration,
}

impl MlTrain {
    /// Create a job that makes 1 reference-second of progress per wall second
    /// at `reference_frequency` (typically max turbo).
    ///
    /// # Panics
    /// Panics if `utilization` is outside `(0, 1]` or the frequency is zero.
    pub fn new(reference_frequency: MegaHertz, utilization: f64) -> MlTrain {
        assert!(
            reference_frequency.get() > 0,
            "reference frequency must be positive"
        );
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization must be in (0, 1]"
        );
        MlTrain {
            reference_frequency,
            utilization,
            progress_seconds: 0.0,
            elapsed: SimDuration::ZERO,
        }
    }

    /// Steady CPU utilization of the training job.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Advance the job by `dt` running at `frequency`.
    pub fn run_for(&mut self, dt: SimDuration, frequency: MegaHertz) {
        let speed = frequency.ratio(self.reference_frequency);
        self.progress_seconds += dt.as_secs_f64() * speed;
        self.elapsed += dt;
    }

    /// Total progress in reference-seconds.
    pub fn progress_seconds(&self) -> f64 {
        self.progress_seconds
    }

    /// Wall-clock time elapsed.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Mean throughput relative to running uncapped the whole time
    /// (1.0 = no capping penalty).
    ///
    /// # Panics
    /// Panics if the job has not run yet.
    pub fn relative_throughput(&self) -> f64 {
        assert!(!self.elapsed.is_zero(), "job has not run");
        self.progress_seconds / self.elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_tracks_frequency() {
        let mut job = MlTrain::new(MegaHertz::new(3300), 0.9);
        job.run_for(SimDuration::from_secs(60), MegaHertz::new(3300));
        assert!((job.progress_seconds() - 60.0).abs() < 1e-9);
        assert!((job.relative_throughput() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capping_halves_throughput() {
        let mut job = MlTrain::new(MegaHertz::new(3300), 0.9);
        job.run_for(SimDuration::from_secs(100), MegaHertz::new(1650));
        assert!((job.relative_throughput() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mixed_speeds_average() {
        let mut job = MlTrain::new(MegaHertz::new(3000), 0.8);
        job.run_for(SimDuration::from_secs(50), MegaHertz::new(3000));
        job.run_for(SimDuration::from_secs(50), MegaHertz::new(2400));
        assert!((job.relative_throughput() - 0.9).abs() < 1e-9);
        assert_eq!(job.elapsed(), SimDuration::from_secs(100));
    }

    #[test]
    #[should_panic(expected = "utilization must be in")]
    fn rejects_zero_utilization() {
        let _ = MlTrain::new(MegaHertz::new(3300), 0.0);
    }
}
