//! # soc-cluster — experiment harnesses
//!
//! Binds the substrates (`soc-power`, `soc-workloads`, `soc-traces`,
//! `soc-predict`, `soc-reliability`) and the `smartoclock` agents into the
//! two evaluation tracks of the paper:
//!
//! * [`envs`] — single-service environment runners: *Baseline*, *Overclock*,
//!   and *ScaleOut* (Figs. 2–3), plus the RPS-sweep used for the production
//!   service results (Figs. 16–17).
//! * [`harness`] — the closed-loop cluster simulation standing in for the
//!   36-server overclockable cluster (§V-A): SocialNet instances with
//!   latency-driven Workload Intelligence, MLTrain on the power-hungry
//!   servers, rack power monitoring with warnings and prioritized capping,
//!   autoscaling environments (*Baseline*, *ScaleOut*, *ScaleUp*,
//!   *SmartOClock*, *NaiveOClock*), energy and cost accounting
//!   (Figs. 12–14, power- and overclocking-constrained experiments).
//! * [`largescale`] — the trace-driven discrete-event simulation of §V-B:
//!   hundreds of racks replaying synthetic production traces under the five
//!   policies of Table I, counting power-capping events, overclocking
//!   success rates, capping penalties, and normalized performance.
//! * [`columns`] — the large-scale per-rack engine: per-server control
//!   state as parallel columns, batched template/sample lookups hoisted out
//!   of the inner loop, weekly slot tables, reused per-step buffers. Its
//!   output is byte-identical to the committed digest matrix
//!   (`tests/fixtures/engine_digests.txt`).
//! * [`shard`] — the large-scale entry points: racks dealt across a
//!   `simcore::par` worker pool with per-shard RNG streams and buffered
//!   telemetry, merged in canonical rack order so `--threads N` runs are
//!   byte-identical to `--threads 1`. There are three:
//!   [`shard::simulate_policy_sharded_probed`] streams (generate, train and
//!   simulate each rack inside its worker, memory bounded by the worker
//!   count); [`shard::simulate_policy_prepared_probed`] simulates over a
//!   fleet generated once by [`shard::generate_fleet_probed`] and trained
//!   once by [`shard::train_fleet_probed`], for multi-policy drivers; and
//!   [`shard::run_cluster_sims_probed`] runs closed-loop [`harness`]
//!   simulations side by side.
//! * [`probe`] — pure observation hooks ([`probe::ShardProbe`]) that let
//!   bench binaries attach wall-clock phase timing to the sharded engine
//!   without this crate ever reading a clock (D002 in `clippy.toml`).
//! * [`ageing`] — the overclocking policies of Fig. 7 (non-overclocked,
//!   always-overclock, overclock-aware) evaluated over a utilization trace
//!   with the `soc-reliability` wear model.

#![forbid(unsafe_code)]

pub mod ageing;
pub mod columns;
pub mod envs;
pub mod harness;
pub mod largescale;
pub mod largescale_metrics;
pub mod probe;
pub mod shard;

pub use envs::{run_environment, Environment, ServiceRunResult};
pub use harness::{ClusterConfig, ClusterResult, ClusterSim, SystemKind};
pub use largescale::{LargeScaleConfig, PolicyMetrics};
pub use probe::{NoopProbe, ShardProbe};
pub use shard::{
    generate_fleet_probed, run_cluster_sims_probed, simulate_policy_prepared_probed,
    simulate_policy_sharded_probed, train_fleet_probed, FleetTraces, TrainedFleet,
};
