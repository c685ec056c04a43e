//! # soc-power — power and frequency substrate
//!
//! Models the physical layer the SmartOClock agents control:
//!
//! * [`units`] — strongly-typed [`units::Watts`] and
//!   [`units::MegaHertz`] quantities.
//! * [`freq`] — CPU frequency plans (base / turbo / overclock range) and the
//!   voltage curve, with the steeper beyond-turbo voltage slope that makes
//!   overclocking power-hungry (paper §II).
//! * [`model`] — the CPU power model used by both the cluster harness and the
//!   large-scale simulator: `P = idle + Σ_core dynamic(u, f)` with
//!   `dynamic ∝ u · f · V(f)²`. "Models are used to estimate the power impact
//!   of overclocking; CPU utilization and core frequency are the input"
//!   (paper §V-B).
//! * [`rack`] — rack-level accounting: power limit, the 95 % warning
//!   threshold, capping events, and prioritized throttling (§IV-D).
//! * [`hierarchy`] — heterogeneous budget splits: dividing a parent
//!   budget's headroom across children in proportion to their predicted
//!   overclocking demand (§IV-C).

#![forbid(unsafe_code)]

pub mod freq;
pub mod hierarchy;
pub mod model;
pub mod rack;
pub mod units;

pub use freq::{FrequencyPlan, VoltageCurve};
pub use model::PowerModel;
pub use rack::{RackMonitor, RackSignal};
pub use units::{MegaHertz, Watts};
