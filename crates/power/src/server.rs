//! Per-server power state.
//!
//! [`ServerPower`] tracks every core's requested frequency and utilization,
//! applies the RAPL-like frequency cap that power capping imposes, and
//! integrates energy over time. It is the state object both the Server
//! Overclocking Agent and the rack manager manipulate.

use crate::model::{CoreState, PowerModel};
use crate::units::{MegaHertz, Watts};
use simcore::time::SimDuration;

/// Identifier of a server within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ServerId(pub usize);

impl std::fmt::Display for ServerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "srv{}", self.0)
    }
}

/// Mutable power state of one server.
///
/// ```
/// use soc_power::server::{ServerId, ServerPower};
/// use soc_power::model::PowerModel;
///
/// let model = PowerModel::reference_server();
/// let mut srv = ServerPower::new(ServerId(0), model);
/// srv.set_uniform(0.5, model.plan().turbo());
/// let before = srv.power();
/// srv.apply_cap(model.plan().base());
/// assert!(srv.power() < before); // capping lowers power
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServerPower {
    id: ServerId,
    model: PowerModel,
    cores: Vec<CoreState>,
    cap: Option<MegaHertz>,
    energy_joules: f64,
}

impl ServerPower {
    /// Create a server with all cores idle at the base frequency.
    pub fn new(id: ServerId, model: PowerModel) -> ServerPower {
        let base = model.plan().base();
        ServerPower {
            id,
            model,
            cores: vec![CoreState::new(0.0, base); model.cores()],
            cap: None,
            energy_joules: 0.0,
        }
    }

    /// Server identifier.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The power model.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Requested (pre-cap) state of core `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn core(&self, i: usize) -> CoreState {
        self.cores[i]
    }

    /// Set the state of one core.
    ///
    /// # Panics
    /// Panics if `i` is out of range or `utilization` is outside `[0, 1]`.
    pub fn set_core(&mut self, i: usize, utilization: f64, frequency: MegaHertz) {
        let f = self.model.plan().clamp(frequency);
        self.cores[i] = CoreState::new(utilization, f);
    }

    /// Set every core to the same utilization and frequency.
    ///
    /// # Panics
    /// Panics if `utilization` is outside `[0, 1]`.
    pub fn set_uniform(&mut self, utilization: f64, frequency: MegaHertz) {
        let f = self.model.plan().clamp(frequency);
        for c in &mut self.cores {
            *c = CoreState::new(utilization, f);
        }
    }

    /// Set the frequency of cores `[0, n)` without touching utilization.
    ///
    /// # Panics
    /// Panics if `n` exceeds the core count.
    pub fn set_frequency_first_n(&mut self, n: usize, frequency: MegaHertz) {
        assert!(n <= self.cores.len(), "n exceeds core count");
        let f = self.model.plan().clamp(frequency);
        for c in &mut self.cores[..n] {
            c.frequency = f;
        }
    }

    /// Impose a frequency cap (power capping). All cores are limited to
    /// `cap` until [`clear_cap`](Self::clear_cap) is called.
    pub fn apply_cap(&mut self, cap: MegaHertz) {
        self.cap = Some(self.model.plan().clamp(cap));
    }

    /// Remove the frequency cap.
    pub fn clear_cap(&mut self) {
        self.cap = None;
    }

    /// The current cap, if any.
    pub fn cap(&self) -> Option<MegaHertz> {
        self.cap
    }

    /// Effective (post-cap) frequency of core `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn effective_frequency(&self, i: usize) -> MegaHertz {
        let f = self.cores[i].frequency;
        match self.cap {
            Some(cap) => f.min(cap),
            None => f,
        }
    }

    /// Number of cores currently *running* overclocked (post-cap).
    pub fn overclocked_cores(&self) -> usize {
        let plan = self.model.plan();
        (0..self.cores.len())
            .filter(|&i| plan.is_overclocked(self.effective_frequency(i)))
            .count()
    }

    /// Mean utilization across cores.
    pub fn mean_utilization(&self) -> f64 {
        if self.cores.is_empty() {
            return 0.0;
        }
        self.cores.iter().map(|c| c.utilization).sum::<f64>() / self.cores.len() as f64
    }

    /// Current power draw (post-cap).
    pub fn power(&self) -> Watts {
        let states: Vec<CoreState> = (0..self.cores.len())
            .map(|i| CoreState::new(self.cores[i].utilization, self.effective_frequency(i)))
            .collect();
        self.model.server_power(&states)
    }

    /// Power the server *would* draw with the cap removed.
    pub fn uncapped_power(&self) -> Watts {
        self.model.server_power(&self.cores)
    }

    /// Integrate the current draw over `dt`, accumulating energy.
    pub fn accumulate_energy(&mut self, dt: SimDuration) {
        self.energy_joules += self.power().energy_joules(dt.as_secs_f64());
    }

    /// Total accumulated energy in joules.
    pub fn energy_joules(&self) -> f64 {
        self.energy_joules
    }

    /// Reset the energy accumulator (between experiment phases).
    pub fn reset_energy(&mut self) {
        self.energy_joules = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> ServerPower {
        ServerPower::new(ServerId(1), PowerModel::reference_server())
    }

    #[test]
    fn starts_idle_at_base() {
        let s = server();
        assert_eq!(s.power(), s.model().idle());
        assert_eq!(s.overclocked_cores(), 0);
        assert_eq!(s.mean_utilization(), 0.0);
    }

    #[test]
    fn cap_limits_effective_frequency() {
        let mut s = server();
        let plan = s.model().plan();
        s.set_uniform(0.5, plan.max_overclock());
        assert_eq!(s.overclocked_cores(), s.core_count());
        s.apply_cap(plan.turbo());
        assert_eq!(s.overclocked_cores(), 0);
        assert_eq!(s.effective_frequency(0), plan.turbo());
        // Requested state is preserved.
        assert_eq!(s.core(0).frequency, plan.max_overclock());
        s.clear_cap();
        assert_eq!(s.overclocked_cores(), s.core_count());
    }

    #[test]
    fn capped_power_below_uncapped() {
        let mut s = server();
        let plan = s.model().plan();
        s.set_uniform(0.8, plan.max_overclock());
        s.apply_cap(plan.base());
        assert!(s.power() < s.uncapped_power());
    }

    #[test]
    fn partial_frequency_assignment() {
        let mut s = server();
        let plan = s.model().plan();
        s.set_uniform(0.5, plan.turbo());
        s.set_frequency_first_n(10, plan.max_overclock());
        assert_eq!(s.overclocked_cores(), 10);
    }

    #[test]
    fn energy_integrates_power() {
        let mut s = server();
        let plan = s.model().plan();
        s.set_uniform(1.0, plan.turbo());
        let p = s.power().get();
        s.accumulate_energy(SimDuration::from_secs(10));
        assert!((s.energy_joules() - 10.0 * p).abs() < 1e-9);
        s.reset_energy();
        assert_eq!(s.energy_joules(), 0.0);
    }

    #[test]
    fn frequency_requests_clamped_to_plan() {
        let mut s = server();
        s.set_core(0, 0.1, MegaHertz::new(9999));
        assert_eq!(s.core(0).frequency, s.model().plan().max_overclock());
    }

    #[test]
    #[should_panic(expected = "n exceeds core count")]
    fn set_frequency_rejects_overflow() {
        let mut s = server();
        s.set_frequency_first_n(1000, MegaHertz::new(3300));
    }
}
