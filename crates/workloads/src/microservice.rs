//! Open-loop queueing simulator for latency-critical microservices.
//!
//! Each simulated service instance (VM) is a multi-core FIFO queue; requests
//! arrive from a Poisson process with a piecewise-constant rate schedule and
//! are routed to the least-loaded active VM. Service demand is heavy-tailed
//! (log-normal) and scales inversely with core frequency, so overclocking a
//! VM from 3.3 GHz to 4.0 GHz shortens every request by ~17.5 % — which is
//! what collapses the queueing tail at high load (the Fig. 2 effect).
//!
//! The simulator is built for *closed-loop control*: callers advance it in
//! windows, observe [`WindowStats`] (P99/mean latency, SLO misses, CPU
//! utilization), and may change VM frequencies or the active VM count before
//! the next window — exactly the observation/actuation interface autoscalers
//! and SmartOClock's agents use.

use crate::loadgen::RateSchedule;
use simcore::event::EventQueue;
use simcore::rng::Pcg32;
use simcore::stats::percentile;
use simcore::time::{SimDuration, SimTime};
use soc_power::units::MegaHertz;
use std::collections::VecDeque;

/// Static description of one microservice.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    /// Service name (e.g. `"UrlShort"`).
    pub name: String,
    /// Mean service demand at max turbo, milliseconds.
    pub mean_service_ms: f64,
    /// Coefficient of variation of service demand (tail heaviness).
    pub cv: f64,
    /// Cores per VM instance.
    pub cores_per_vm: usize,
    /// SLO as a multiple of unloaded execution time (the paper uses 5×).
    pub slo_multiplier: f64,
}

impl ServiceSpec {
    /// Build a spec.
    ///
    /// # Panics
    /// Panics if any numeric parameter is non-positive.
    pub fn new(
        name: impl Into<String>,
        mean_service_ms: f64,
        cv: f64,
        cores_per_vm: usize,
    ) -> ServiceSpec {
        assert!(mean_service_ms > 0.0, "service time must be positive");
        assert!(cv > 0.0, "coefficient of variation must be positive");
        assert!(cores_per_vm > 0, "need at least one core per VM");
        ServiceSpec {
            name: name.into(),
            mean_service_ms,
            cv,
            cores_per_vm,
            slo_multiplier: 5.0,
        }
    }

    /// The service-level objective on end-to-end latency, in milliseconds:
    /// `slo_multiplier ×` the unloaded execution time (§III, §V-A).
    pub fn slo_ms(&self) -> f64 {
        self.slo_multiplier * self.mean_service_ms
    }

    /// Theoretical throughput capacity of one VM at the given frequency
    /// ratio (`f / f_turbo`), requests per second.
    pub fn capacity_per_vm(&self, freq_ratio: f64) -> f64 {
        self.cores_per_vm as f64 / (self.mean_service_ms / 1000.0) * freq_ratio
    }

    /// Log-normal parameters `(mu, sigma)` matching the mean and CV.
    fn lognormal_params(&self) -> (f64, f64) {
        let sigma2 = (1.0 + self.cv * self.cv).ln();
        let mu = (self.mean_service_ms / 1000.0).ln() - sigma2 / 2.0;
        (mu, sigma2.sqrt())
    }
}

/// Aggregated observations over one control window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Window length.
    pub window: SimDuration,
    /// Completed requests in the window.
    pub completions: u64,
    /// Arrivals in the window.
    pub arrivals: u64,
    /// Mean latency of completions, ms (NaN when no completions).
    pub mean_ms: f64,
    /// P99 latency of completions, ms (NaN when no completions).
    pub p99_ms: f64,
    /// Fraction of completions above the SLO (0 when no completions).
    pub slo_miss_frac: f64,
    /// Mean CPU utilization of active VMs over the window, `[0, 1]`.
    pub cpu_utilization: f64,
    /// Active VM count at window end.
    pub active_vms: usize,
}

#[derive(Debug, Clone, Copy)]
struct Request {
    arrival: SimTime,
    /// Service demand in seconds at max turbo.
    work: f64,
}

#[derive(Debug, Clone)]
struct Vm {
    frequency: MegaHertz,
    busy: usize,
    queue: VecDeque<Request>,
    active: bool,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival,
    Departure { vm: usize, request: Request },
}

/// The event-driven microservice simulator.
///
/// ```
/// use soc_workloads::microservice::{MicroserviceSim, ServiceSpec};
/// use soc_workloads::loadgen::RateSchedule;
/// use soc_power::units::MegaHertz;
/// use simcore::time::SimTime;
///
/// let spec = ServiceSpec::new("demo", 20.0, 1.0, 4);
/// let rate = RateSchedule::constant(0.5 * spec.capacity_per_vm(1.0));
/// let mut sim = MicroserviceSim::new(spec, MegaHertz::new(3300), rate, 1, 7);
/// let stats = sim.advance_window(SimTime::from_secs(30));
/// assert!(stats.completions > 0);
/// assert!(stats.p99_ms >= stats.mean_ms);
/// ```
#[derive(Debug, Clone)]
pub struct MicroserviceSim {
    spec: ServiceSpec,
    turbo: MegaHertz,
    schedule: RateSchedule,
    rng: Pcg32,
    queue: EventQueue<Event>,
    vms: Vec<Vm>,
    now: SimTime,
    last_integration: SimTime,
    // Window accumulators.
    window_start: SimTime,
    latencies_ms: Vec<f64>,
    window_arrivals: u64,
    busy_core_seconds: f64,
    // Lifetime counters.
    total_arrivals: u64,
    total_completions: u64,
    lognormal_mu: f64,
    lognormal_sigma: f64,
}

impl MicroserviceSim {
    /// Create a simulator with `initial_vms` active VMs at max turbo.
    ///
    /// # Panics
    /// Panics if `initial_vms == 0`.
    pub fn new(
        spec: ServiceSpec,
        turbo: MegaHertz,
        schedule: RateSchedule,
        initial_vms: usize,
        seed: u64,
    ) -> MicroserviceSim {
        assert!(initial_vms > 0, "need at least one VM");
        let (mu, sigma) = spec.lognormal_params();
        let vms = (0..initial_vms)
            .map(|_| Vm {
                frequency: turbo,
                busy: 0,
                queue: VecDeque::new(),
                active: true,
            })
            .collect();
        let mut sim = MicroserviceSim {
            spec,
            turbo,
            schedule,
            rng: Pcg32::seed_from_u64(seed),
            queue: EventQueue::new(),
            vms,
            now: SimTime::ZERO,
            last_integration: SimTime::ZERO,
            window_start: SimTime::ZERO,
            latencies_ms: Vec::new(),
            window_arrivals: 0,
            busy_core_seconds: 0.0,
            total_arrivals: 0,
            total_completions: 0,
            lognormal_mu: mu,
            lognormal_sigma: sigma,
        };
        if let Some(t) = sim.next_arrival_time(SimTime::ZERO) {
            sim.queue.push(t, Event::Arrival);
        }
        sim
    }

    /// The service specification.
    pub fn spec(&self) -> &ServiceSpec {
        &self.spec
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of *active* VMs (routing targets).
    pub fn active_vms(&self) -> usize {
        self.vms.iter().filter(|v| v.active).count()
    }

    /// Current frequency of VM `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn vm_frequency(&self, i: usize) -> MegaHertz {
        self.vms[i].frequency
    }

    /// Change the frequency of VM `i` (affects newly dispatched requests).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn set_vm_frequency(&mut self, i: usize, f: MegaHertz) {
        self.vms[i].frequency = f;
    }

    /// Set the frequency of all active VMs.
    pub fn set_all_frequencies(&mut self, f: MegaHertz) {
        for vm in &mut self.vms {
            if vm.active {
                vm.frequency = f;
            }
        }
    }

    /// Grow or shrink the active VM pool. Shrinking drains the removed VMs:
    /// their queued requests are redistributed, in-flight work completes.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn set_active_vm_count(&mut self, n: usize) {
        assert!(n > 0, "need at least one active VM");
        let mut active = self.active_vms();
        // Reactivate drained VMs first, then create new ones.
        if n > active {
            for vm in &mut self.vms {
                if active == n {
                    break;
                }
                if !vm.active {
                    vm.active = true;
                    vm.frequency = self.turbo;
                    active += 1;
                }
            }
            while active < n {
                self.vms.push(Vm {
                    frequency: self.turbo,
                    busy: 0,
                    queue: VecDeque::new(),
                    active: true,
                });
                active += 1;
            }
        } else if n < active {
            // Deactivate the highest-indexed active VMs.
            let mut to_drop = active - n;
            let mut orphaned: Vec<Request> = Vec::new();
            for vm in self.vms.iter_mut().rev() {
                if to_drop == 0 {
                    break;
                }
                if vm.active {
                    vm.active = false;
                    orphaned.extend(vm.queue.drain(..));
                    to_drop -= 1;
                }
            }
            for req in orphaned {
                self.route(req);
            }
        }
    }

    /// Total arrivals since construction.
    pub fn total_arrivals(&self) -> u64 {
        self.total_arrivals
    }

    /// Total completions since construction.
    pub fn total_completions(&self) -> u64 {
        self.total_completions
    }

    /// Requests currently queued or in service.
    pub fn in_system(&self) -> u64 {
        self.total_arrivals - self.total_completions
    }

    /// Advance the simulation to `until` and return the window statistics
    /// accumulated since the previous call (or construction).
    ///
    /// # Panics
    /// Panics if `until` is not after the current time.
    pub fn advance_window(&mut self, until: SimTime) -> WindowStats {
        assert!(until > self.now, "window must move time forward");
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            let Some((t, event)) = self.queue.pop() else {
                break;
            };
            self.integrate_busy(t);
            self.now = t;
            match event {
                Event::Arrival => self.handle_arrival(),
                Event::Departure { vm, request } => self.handle_departure(vm, request),
            }
        }
        self.integrate_busy(until);
        self.now = until;
        self.collect_window(until)
    }

    fn collect_window(&mut self, until: SimTime) -> WindowStats {
        let window = until.since(self.window_start);
        let active_cores = (self.active_vms() * self.spec.cores_per_vm) as f64;
        let denom = active_cores * window.as_secs_f64();
        let cpu = if denom > 0.0 {
            (self.busy_core_seconds / denom).min(1.0)
        } else {
            0.0
        };
        let slo = self.spec.slo_ms();
        let (mean, p99, miss) = if self.latencies_ms.is_empty() {
            (f64::NAN, f64::NAN, 0.0)
        } else {
            let mean = self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64;
            let p99 = percentile(&self.latencies_ms, 99.0);
            let misses = self.latencies_ms.iter().filter(|&&l| l > slo).count();
            (mean, p99, misses as f64 / self.latencies_ms.len() as f64)
        };
        let stats = WindowStats {
            window,
            completions: self.latencies_ms.len() as u64,
            arrivals: self.window_arrivals,
            mean_ms: mean,
            p99_ms: p99,
            slo_miss_frac: miss,
            cpu_utilization: cpu,
            active_vms: self.active_vms(),
        };
        self.latencies_ms.clear();
        self.window_arrivals = 0;
        self.busy_core_seconds = 0.0;
        self.window_start = until;
        stats
    }

    fn integrate_busy(&mut self, to: SimTime) {
        let dt = to.saturating_since(self.last_integration).as_secs_f64();
        if dt > 0.0 {
            let busy: usize = self.vms.iter().map(|v| v.busy).sum();
            self.busy_core_seconds += busy as f64 * dt;
            self.last_integration = to;
        }
    }

    fn handle_arrival(&mut self) {
        self.total_arrivals += 1;
        self.window_arrivals += 1;
        let work = self
            .rng
            .sample_lognormal(self.lognormal_mu, self.lognormal_sigma);
        let req = Request {
            arrival: self.now,
            work,
        };
        self.route(req);
        if let Some(t) = self.next_arrival_time(self.now) {
            self.queue.push(t, Event::Arrival);
        }
    }

    fn route(&mut self, req: Request) {
        // Least-loaded active VM, normalized by core count. At least one VM
        // is always active (deactivation never empties the set), so a missing
        // target means a construction bug — assert rather than route wrong.
        let target = self
            .vms
            .iter()
            .enumerate()
            .filter(|(_, v)| v.active)
            .min_by(|(_, a), (_, b)| {
                let la = (a.busy + a.queue.len()) as f64 / self.spec.cores_per_vm as f64;
                let lb = (b.busy + b.queue.len()) as f64 / self.spec.cores_per_vm as f64;
                la.total_cmp(&lb)
            })
            .map(|(i, _)| i);
        let Some(target) = target else {
            debug_assert!(false, "no active VM to route to");
            return;
        };
        if self.vms[target].busy < self.spec.cores_per_vm {
            self.dispatch(target, req);
        } else {
            self.vms[target].queue.push_back(req);
        }
    }

    fn dispatch(&mut self, vm: usize, req: Request) {
        let freq_ratio = self.vms[vm].frequency.ratio(self.turbo);
        let duration = SimDuration::from_secs_f64(req.work / freq_ratio.max(1e-9));
        self.vms[vm].busy += 1;
        self.queue
            .push(self.now + duration, Event::Departure { vm, request: req });
    }

    fn handle_departure(&mut self, vm: usize, request: Request) {
        self.total_completions += 1;
        let latency_ms = self.now.since(request.arrival).as_millis_f64();
        self.latencies_ms.push(latency_ms);
        self.vms[vm].busy -= 1;
        if let Some(next) = self.vms[vm].queue.pop_front() {
            self.dispatch(vm, next);
        }
    }

    /// Next Poisson arrival strictly after `t` under the rate schedule, or
    /// `None` when the rate is zero for all remaining time.
    fn next_arrival_time(&mut self, t: SimTime) -> Option<SimTime> {
        let mut t = t;
        loop {
            let rate = self.schedule.rate_at(t);
            let next_change = self.schedule.next_change_after(t);
            if rate <= 0.0 {
                t = next_change?;
                continue;
            }
            let dt = SimDuration::from_secs_f64(self.rng.sample_exp(rate));
            let candidate = t + dt;
            match next_change {
                Some(change) if candidate >= change => {
                    // The sampled gap crosses a rate change; resample from
                    // the boundary (memorylessness makes this exact).
                    t = change;
                }
                _ => return Some(candidate),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ServiceSpec {
        ServiceSpec::new("test", 20.0, 1.0, 4)
    }

    fn turbo() -> MegaHertz {
        MegaHertz::new(3300)
    }

    fn oc() -> MegaHertz {
        MegaHertz::new(4000)
    }

    fn run_steady(load: f64, freq: MegaHertz, vms: usize, secs: u64) -> WindowStats {
        let s = spec();
        let rate = RateSchedule::constant(load * s.capacity_per_vm(1.0) * vms as f64);
        let mut sim = MicroserviceSim::new(s, turbo(), rate, vms, 42);
        sim.set_all_frequencies(freq);
        // Warm up, then measure.
        let _ = sim.advance_window(SimTime::from_secs(secs / 4));
        sim.advance_window(SimTime::from_secs(secs))
    }

    #[test]
    fn slo_is_five_times_unloaded() {
        assert_eq!(spec().slo_ms(), 100.0);
    }

    #[test]
    fn capacity_scales_with_frequency() {
        let s = spec();
        let base = s.capacity_per_vm(1.0);
        assert!((s.capacity_per_vm(4000.0 / 3300.0) / base - 4000.0 / 3300.0).abs() < 1e-12);
        assert!((base - 200.0).abs() < 1e-9); // 4 cores / 20ms
    }

    #[test]
    fn unloaded_latency_near_service_time() {
        let stats = run_steady(0.05, turbo(), 1, 60);
        assert!(
            (stats.mean_ms - 20.0).abs() < 5.0,
            "unloaded mean {} should be ≈ service time",
            stats.mean_ms
        );
        assert!(stats.slo_miss_frac < 0.02);
    }

    #[test]
    fn latency_grows_with_load() {
        let low = run_steady(0.3, turbo(), 1, 120);
        let high = run_steady(0.85, turbo(), 1, 120);
        assert!(
            high.p99_ms > 1.5 * low.p99_ms,
            "P99 should blow up with load: low={} high={}",
            low.p99_ms,
            high.p99_ms
        );
        assert!(high.cpu_utilization > low.cpu_utilization);
    }

    #[test]
    fn overclocking_reduces_tail_latency_at_high_load() {
        let base = run_steady(0.85, turbo(), 1, 240);
        let boosted = run_steady(0.85, oc(), 1, 240);
        assert!(
            boosted.p99_ms < base.p99_ms,
            "overclocking should cut the tail: turbo={} oc={}",
            base.p99_ms,
            boosted.p99_ms
        );
        assert!(boosted.slo_miss_frac <= base.slo_miss_frac);
    }

    #[test]
    fn scale_out_reduces_tail_latency() {
        let one = run_steady(0.85, turbo(), 1, 240);
        // Same absolute arrival rate spread over two VMs.
        let s = spec();
        let rate = RateSchedule::constant(0.85 * s.capacity_per_vm(1.0));
        let mut sim = MicroserviceSim::new(s, turbo(), rate, 2, 42);
        let _ = sim.advance_window(SimTime::from_secs(60));
        let two = sim.advance_window(SimTime::from_secs(240));
        assert!(two.p99_ms < one.p99_ms);
        assert_eq!(two.active_vms, 2);
    }

    #[test]
    fn utilization_matches_offered_load() {
        let stats = run_steady(0.5, turbo(), 1, 300);
        assert!(
            (stats.cpu_utilization - 0.5).abs() < 0.06,
            "utilization {} should track offered load 0.5",
            stats.cpu_utilization
        );
    }

    #[test]
    fn overclocking_lowers_utilization_at_same_load() {
        // Fig. 16: same RPS, lower CPU utilization when overclocked.
        let base = run_steady(0.6, turbo(), 1, 300);
        let boosted = run_steady(0.6, oc(), 1, 300);
        assert!(
            boosted.cpu_utilization < base.cpu_utilization,
            "OC should lower utilization: {} vs {}",
            boosted.cpu_utilization,
            base.cpu_utilization
        );
    }

    #[test]
    fn shrink_drains_and_redistributes() {
        let s = spec();
        let rate = RateSchedule::constant(0.7 * s.capacity_per_vm(1.0) * 2.0);
        let mut sim = MicroserviceSim::new(s, turbo(), rate, 2, 9);
        let _ = sim.advance_window(SimTime::from_secs(30));
        sim.set_active_vm_count(1);
        assert_eq!(sim.active_vms(), 1);
        let stats = sim.advance_window(SimTime::from_secs(90));
        // All work keeps completing through the remaining VM.
        assert!(stats.completions > 0);
        // Conservation: nothing lost.
        assert!(sim.total_completions() <= sim.total_arrivals());
    }

    #[test]
    fn grow_reactivates_then_creates() {
        let s = spec();
        let rate = RateSchedule::constant(10.0);
        let mut sim = MicroserviceSim::new(s, turbo(), rate, 3, 9);
        sim.set_active_vm_count(1);
        sim.set_active_vm_count(4);
        assert_eq!(sim.active_vms(), 4);
    }

    #[test]
    fn window_counters_reset() {
        let s = spec();
        let rate = RateSchedule::constant(50.0);
        let mut sim = MicroserviceSim::new(s, turbo(), rate, 1, 4);
        let w1 = sim.advance_window(SimTime::from_secs(10));
        let w2 = sim.advance_window(SimTime::from_secs(20));
        assert!(w1.arrivals > 0 && w2.arrivals > 0);
        // Window counters partition the lifetime counters.
        assert_eq!(sim.total_arrivals(), w1.arrivals + w2.arrivals);
        assert_eq!(sim.total_completions(), w1.completions + w2.completions);
        // Conservation: everything that arrived is either done or in system.
        assert_eq!(
            sim.total_arrivals(),
            sim.total_completions() + sim.in_system()
        );
    }

    #[test]
    fn deterministic_with_same_seed() {
        let make = || {
            let s = spec();
            let rate = RateSchedule::constant(100.0);
            let mut sim = MicroserviceSim::new(s, turbo(), rate, 1, 77);
            sim.advance_window(SimTime::from_secs(60))
        };
        let a = make();
        let b = make();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_rate_schedule_produces_no_arrivals() {
        let s = spec();
        let rate = RateSchedule::constant(0.0);
        let mut sim = MicroserviceSim::new(s, turbo(), rate, 1, 5);
        let stats = sim.advance_window(SimTime::from_secs(60));
        assert_eq!(stats.arrivals, 0);
        assert_eq!(stats.completions, 0);
        assert!(stats.p99_ms.is_nan());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Conservation: arrivals = completions + in-system, under any
            /// sequence of frequency changes and VM scaling.
            #[test]
            fn conservation_under_control_churn(
                ops in prop::collection::vec((1u64..4, 0u32..3, 1usize..4), 1..12),
                seed in 0u64..1000,
            ) {
                let s = spec();
                let rate = RateSchedule::constant(0.6 * s.capacity_per_vm(1.0));
                let mut sim = MicroserviceSim::new(s, turbo(), rate, 1, seed);
                let mut now = SimTime::ZERO;
                for &(advance_s, freq_step, vms) in &ops {
                    now += SimDuration::from_secs(advance_s * 5);
                    let _ = sim.advance_window(now);
                    sim.set_all_frequencies(MegaHertz::new(3300 + 100 * freq_step));
                    sim.set_active_vm_count(vms);
                }
                prop_assert_eq!(
                    sim.total_arrivals(),
                    sim.total_completions() + sim.in_system()
                );
            }

            /// Latencies are never negative and windows never report more
            /// completions than lifetime totals.
            #[test]
            fn window_stats_are_sane(seed in 0u64..500, load in 0.1..0.9f64) {
                let s = spec();
                let rate = RateSchedule::constant(load * s.capacity_per_vm(1.0));
                let mut sim = MicroserviceSim::new(s, turbo(), rate, 1, seed);
                let w = sim.advance_window(SimTime::from_secs(30));
                prop_assert!(w.completions <= sim.total_completions());
                if !w.p99_ms.is_nan() {
                    prop_assert!(w.p99_ms >= 0.0);
                    prop_assert!(w.p99_ms + 1e-9 >= w.mean_ms);
                }
                prop_assert!((0.0..=1.0).contains(&w.cpu_utilization));
                prop_assert!((0.0..=1.0).contains(&w.slo_miss_frac));
            }
        }
    }

    #[test]
    fn rate_change_mid_run_shifts_throughput() {
        let s = spec();
        let rate = RateSchedule::constant(20.0).with_segment(SimTime::from_secs(60), 150.0);
        let mut sim = MicroserviceSim::new(s, turbo(), rate, 1, 6);
        let w1 = sim.advance_window(SimTime::from_secs(60));
        let w2 = sim.advance_window(SimTime::from_secs(120));
        assert!(w2.arrivals as f64 > 4.0 * w1.arrivals as f64);
    }
}
