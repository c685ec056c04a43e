//! Per-part silicon heterogeneity and frequency binning (§III-Q2, §VI).
//!
//! Production silicon is not uniform: manufacturing test data sorts parts
//! into *frequency bins* (the highest stable overclock differs part to
//! part) and measures per-part voltage/temperature sensitivity. The paper
//! argues SmartOClock can use these per-part *risk scores* to overclock
//! aggressively on good silicon while holding back on marginal parts. This
//! module models that: a seeded, **stateless** per-part draw that maps a
//! `(seed, part_id)` pair to a [`SiliconPart`] — a frequency bin, a maximum
//! stable overclock, wear-rate multipliers that scale the [`WearModel`]'s
//! voltage/temperature acceleration, and a scalar risk score in `[0, 1)`.
//!
//! ## Determinism contract
//!
//! Like `simcore::faults`, draws are pure functions of
//! `(config.seed, part_id)`: a part's silicon is the same no matter which
//! shard, thread, or query order asks. This is what keeps the columnar and
//! reference engines byte-identical under heterogeneity, and what lets an
//! sOA restart rediscover the same part identity (the bin is a physical
//! property of the chip, not control-plane state).
//!
//! ## Admission rule
//!
//! A request at frequency `f` is admitted iff
//! `risk × (f − turbo) / (max_overclock − turbo) ≤ risk_budget`, after
//! clamping `f` to the part's binned maximum. [`SiliconPart::admit`] walks
//! the frequency ladder downward until the rule holds (*down-binning*) and
//! returns `None` when no overclocked level fits (*bin-denial*).

use crate::wear::WearModel;
use simcore::rng::Pcg32;
use soc_power::freq::FrequencyPlan;
use soc_power::units::MegaHertz;

/// Dedicated `Pcg32` stream for silicon draws, disjoint from the fault
/// stream (`0xFA17`) and the trace-generator streams.
const BINNING_STREAM: u64 = 0xB1A5;

/// SplitMix64 finalizer (same constants as `simcore::faults`): decorrelates
/// the user seed from part ids so adjacent parts draw independent silicon.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded per-part silicon distribution. The degenerate
/// [`uniform`](Self::uniform) configuration (one bin, no wear spread) is
/// byte-transparent: every part draws the ideal silicon and no binning
/// telemetry, counters, or wear accounting is produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinningConfig {
    /// Number of frequency bins parts are sorted into (1 = uniform fleet).
    pub bins: u32,
    /// Admission risk budget in `[0, 1]`: a part may run overclocked only
    /// while `risk × oc_fraction ≤ risk_budget`. `1.0` admits everything
    /// the part's bin allows; `0.0` denies marginal parts outright.
    pub risk_budget: f64,
    /// Half-width of the per-part wear-multiplier spread: voltage and
    /// temperature acceleration multipliers draw uniformly from
    /// `[1 − spread, 1 + spread]`. `0.0` keeps the uniform wear model.
    pub wear_spread: f64,
    /// Seed of the silicon lottery (manufacturing variation).
    pub seed: u64,
}

impl BinningConfig {
    /// The degenerate single-bin configuration: every part is ideal.
    pub fn uniform() -> BinningConfig {
        BinningConfig {
            bins: 1,
            risk_budget: 1.0,
            wear_spread: 0.0,
            seed: 0,
        }
    }

    /// Whether this configuration is byte-transparent (no heterogeneity):
    /// one bin and no wear spread. The risk budget is irrelevant then —
    /// a single-bin part has risk exactly `0`, which every budget admits.
    pub fn is_uniform(&self) -> bool {
        self.bins <= 1 && self.wear_spread == 0.0
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// Panics if any field is out of range.
    pub fn validate(&self) {
        assert!(
            (1..=256).contains(&self.bins),
            "bins must be in [1, 256], got {}",
            self.bins
        );
        assert!(
            self.risk_budget.is_finite() && (0.0..=1.0).contains(&self.risk_budget),
            "risk_budget must be in [0, 1], got {}",
            self.risk_budget
        );
        assert!(
            self.wear_spread.is_finite() && (0.0..1.0).contains(&self.wear_spread),
            "wear_spread must be in [0, 1), got {}",
            self.wear_spread
        );
    }

    /// Draw the silicon of `part_id` under `plan`. Stateless: the result
    /// depends only on `(self, plan, part_id)`, never on query order.
    pub fn part(&self, plan: &FrequencyPlan, part_id: u64) -> SiliconPart {
        if self.is_uniform() {
            return SiliconPart::uniform(plan);
        }
        let mut rng = Pcg32::new(mix64(self.seed ^ mix64(part_id)), BINNING_STREAM);
        let quality = rng.next_f64();
        let u_voltage = rng.next_f64();
        let u_temp = rng.next_f64();
        // Bin index: 0 is the best silicon (full overclock range), higher
        // bins certify progressively lower maximum stable frequencies.
        let bins = self.bins.max(1);
        let bin = ((quality * f64::from(bins)) as u32).min(bins - 1);
        // The binned maximum steps down one frequency level per bin, but
        // never below the lowest overclocked level: even the worst bin is
        // still an overclockable part (admission may yet deny it on risk).
        let floor = (plan.turbo() + plan.step()).min(plan.max_overclock());
        let mut max_oc = plan.max_overclock();
        for _ in 0..bin {
            max_oc = max_oc.saturating_sub(plan.step()).max(floor);
        }
        // Risk grows with the part's (mis)fortune in the lottery and with
        // binning aggressiveness: more bins resolve more marginal silicon.
        // One bin ⇒ risk exactly 0 (the uniform fleet is risk-free by
        // definition — there is no test data to distinguish parts).
        let risk = quality * (1.0 - 1.0 / f64::from(bins));
        SiliconPart {
            bin,
            max_oc,
            voltage_wear_mult: 1.0 + self.wear_spread * (2.0 * u_voltage - 1.0),
            temp_wear_mult: 1.0 + self.wear_spread * (2.0 * u_temp - 1.0),
            risk,
        }
    }
}

impl Default for BinningConfig {
    fn default() -> Self {
        BinningConfig::uniform()
    }
}

/// One part's manufacturing-test identity: its frequency bin, certified
/// maximum overclock, wear-acceleration multipliers, and risk score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiliconPart {
    /// Frequency bin (0 = best silicon).
    pub bin: u32,
    /// Highest stable overclock frequency for this part.
    pub max_oc: MegaHertz,
    /// Multiplier on the wear model's voltage-acceleration exponent.
    pub voltage_wear_mult: f64,
    /// Multiplier on the wear model's temperature-acceleration exponent.
    pub temp_wear_mult: f64,
    /// Scalar overclocking risk score in `[0, 1)` (0 = risk-free).
    pub risk: f64,
}

impl SiliconPart {
    /// The ideal part: best bin, full overclock range, reference wear.
    pub fn uniform(plan: &FrequencyPlan) -> SiliconPart {
        SiliconPart {
            bin: 0,
            max_oc: plan.max_overclock(),
            voltage_wear_mult: 1.0,
            temp_wear_mult: 1.0,
            risk: 0.0,
        }
    }

    /// Risk-aware admission: the highest frequency at or below `requested`
    /// (clamped to this part's binned maximum) whose normalized overclock
    /// fraction keeps `risk × fraction ≤ risk_budget`. Walks the frequency
    /// ladder downward (*down-binning*); `None` means no overclocked level
    /// fits the budget (*bin-denial*).
    pub fn admit(
        &self,
        plan: &FrequencyPlan,
        risk_budget: f64,
        requested: MegaHertz,
    ) -> Option<MegaHertz> {
        let turbo = plan.turbo();
        let span = plan.max_overclock().saturating_sub(turbo);
        if span.get() == 0 || plan.step().get() == 0 {
            return None;
        }
        let mut f = requested.min(self.max_oc);
        while f > turbo {
            let fraction = f.saturating_sub(turbo).ratio(span);
            if self.risk * fraction <= risk_budget {
                return Some(f);
            }
            f = f.saturating_sub(plan.step());
        }
        None
    }
}

/// The part-scaled wear model: the part's multipliers scale the base
/// model's voltage/temperature acceleration exponents, so marginal silicon
/// ages faster at the same operating point.
pub fn part_wear_model(base: &WearModel, part: &SiliconPart) -> WearModel {
    WearModel::new(
        base.alpha(),
        base.beta(),
        base.k_voltage() * part.voltage_wear_mult.max(0.0),
        base.k_temp() * part.temp_wear_mult.max(0.0),
        base.reference_temp_c(),
        *base.curve(),
    )
}

/// Hoisted per-part ageing-rate coefficients at a fixed overclock operating
/// point: `rate(u) = alpha + beta · u² · accel`, where `accel` folds in the
/// part-scaled voltage acceleration at the admitted frequency and the
/// temperature acceleration at `temp_c`. Lets the hot simulation loops
/// charge wear per step without re-deriving voltages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearRate {
    alpha: f64,
    beta: f64,
    accel: f64,
}

impl WearRate {
    /// Hoist the rate coefficients for `part` running overclocked at
    /// `frequency` with junction temperature `temp_c`.
    pub fn hoist(
        base: &WearModel,
        part: &SiliconPart,
        frequency: MegaHertz,
        temp_c: f64,
    ) -> WearRate {
        let model = part_wear_model(base, part);
        let accel = model.voltage_acceleration(frequency)
            * (model.k_temp() * (temp_c - model.reference_temp_c())).exp();
        WearRate {
            alpha: base.alpha(),
            beta: base.beta(),
            accel,
        }
    }

    /// Instantaneous ageing rate at `utilization` (clamped to `[0, 1]`).
    pub fn at(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.alpha + self.beta * u * u * self.accel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FrequencyPlan {
        FrequencyPlan::default()
    }

    #[test]
    fn uniform_config_draws_ideal_parts() {
        let cfg = BinningConfig::uniform();
        assert!(cfg.is_uniform());
        for part_id in [0u64, 1, 7, u64::MAX] {
            let p = cfg.part(&plan(), part_id);
            assert_eq!(p, SiliconPart::uniform(&plan()));
        }
    }

    #[test]
    fn default_is_uniform() {
        assert_eq!(BinningConfig::default(), BinningConfig::uniform());
        BinningConfig::uniform().validate();
    }

    #[test]
    fn draws_are_stateless_and_seeded() {
        let cfg = BinningConfig {
            bins: 8,
            risk_budget: 0.5,
            wear_spread: 0.3,
            seed: 42,
        };
        cfg.validate();
        let a = cfg.part(&plan(), 17);
        let b = cfg.part(&plan(), 17);
        assert_eq!(a, b, "same (seed, part_id) must draw the same silicon");
        let other_seed = BinningConfig { seed: 43, ..cfg };
        let parts_differ = (0..32).any(|id| cfg.part(&plan(), id) != other_seed.part(&plan(), id));
        assert!(parts_differ, "different seeds must change the lottery");
    }

    #[test]
    fn bins_cover_the_frequency_ladder() {
        let cfg = BinningConfig {
            bins: 8,
            risk_budget: 1.0,
            wear_spread: 0.0,
            seed: 7,
        };
        let p = plan();
        let floor = p.turbo() + p.step();
        for id in 0..256u64 {
            let part = cfg.part(&p, id);
            assert!(part.bin < 8);
            assert!(part.max_oc <= p.max_overclock());
            assert!(
                part.max_oc >= floor,
                "even the worst bin stays overclockable"
            );
            assert!((0.0..1.0).contains(&part.risk));
        }
    }

    #[test]
    fn admit_clamps_to_bin_and_down_bins_on_risk() {
        let p = plan();
        let part = SiliconPart {
            bin: 2,
            max_oc: p.max_overclock().saturating_sub(p.step()),
            voltage_wear_mult: 1.0,
            temp_wear_mult: 1.0,
            risk: 0.8,
        };
        // Ample budget: admitted at the bin ceiling, not the request.
        assert_eq!(part.admit(&p, 1.0, p.max_overclock()), Some(part.max_oc));
        // Tight budget: down-binned below the ceiling.
        let tight = part.admit(&p, 0.2, p.max_overclock()).unwrap();
        assert!(tight < part.max_oc);
        assert!(tight > p.turbo());
        // Zero budget with nonzero risk: denied outright.
        assert_eq!(part.admit(&p, 0.0, p.max_overclock()), None);
    }

    #[test]
    fn admit_is_monotone_in_risk_budget() {
        let p = plan();
        let cfg = BinningConfig {
            bins: 8,
            risk_budget: 1.0,
            wear_spread: 0.0,
            seed: 3,
        };
        for id in 0..64u64 {
            let part = cfg.part(&p, id);
            let mut last = part.admit(&p, 1.0, p.max_overclock());
            for budget in [0.75, 0.5, 0.25, 0.1, 0.0] {
                let f = part.admit(&p, budget, p.max_overclock());
                match (last, f) {
                    (Some(a), Some(b)) => assert!(b <= a, "part {id}: tighter budget raised f"),
                    (None, Some(_)) => panic!("part {id}: tighter budget un-denied"),
                    _ => {}
                }
                last = f;
            }
        }
    }

    #[test]
    fn uniform_part_is_always_admitted_at_request() {
        let p = plan();
        let part = SiliconPart::uniform(&p);
        for budget in [0.0, 0.5, 1.0] {
            assert_eq!(
                part.admit(&p, budget, p.max_overclock()),
                Some(p.max_overclock()),
                "risk-free parts pass every budget"
            );
        }
    }

    #[test]
    fn part_wear_model_scales_acceleration() {
        let base = WearModel::default();
        let p = plan();
        let hot = SiliconPart {
            voltage_wear_mult: 1.5,
            ..SiliconPart::uniform(&p)
        };
        let scaled = part_wear_model(&base, &hot);
        assert!(
            scaled.voltage_acceleration(p.max_overclock())
                > base.voltage_acceleration(p.max_overclock()),
            "a voltage-sensitive part must age faster when overclocked"
        );
        let ideal = part_wear_model(&base, &SiliconPart::uniform(&p));
        assert_eq!(
            ideal.voltage_acceleration(p.max_overclock()),
            base.voltage_acceleration(p.max_overclock()),
            "the uniform part reproduces the base model exactly"
        );
    }

    #[test]
    fn hoisted_wear_rate_matches_model() {
        let base = WearModel::default();
        let p = plan();
        let cfg = BinningConfig {
            bins: 4,
            risk_budget: 1.0,
            wear_spread: 0.2,
            seed: 5,
        };
        let part = cfg.part(&p, 9);
        let temp = 78.0;
        let rate = WearRate::hoist(&base, &part, part.max_oc, temp);
        let model = part_wear_model(&base, &part);
        for u in [0.0, 0.25, 0.5, 1.0] {
            let direct = model.ageing_rate(u, part.max_oc, temp);
            assert!(
                (rate.at(u) - direct).abs() < 1e-12,
                "hoisted rate diverged at u={u}: {} vs {direct}",
                rate.at(u)
            );
        }
    }

    #[test]
    #[should_panic(expected = "risk_budget must be in [0, 1]")]
    fn validate_rejects_bad_budget() {
        let mut cfg = BinningConfig::uniform();
        cfg.risk_budget = 1.5;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "wear_spread must be in [0, 1)")]
    fn validate_rejects_full_spread() {
        let mut cfg = BinningConfig::uniform();
        cfg.wear_spread = 1.0;
        cfg.validate();
    }
}
