//! The paper's claims as executable predicates.
//!
//! One test per EXPERIMENTS.md row whose verdict rests on the trace
//! generator's random draws: Fig. 5 (rack utilization CDFs), Fig. 8
//! (prediction RMSE), Fig. 9 (server heterogeneity), Fig. 15 (template
//! accuracy) and the Table I orderings. Each test runs its figure binary's
//! `--fast` configuration at the default seed (42), computes the row's
//! statistic the way the binary does, and asserts the row's claim as a
//! band or an ordering.
//!
//! The bands are read off the rows' own wording, not fitted to the measured
//! values: "close" is within [`CLOSE`] utilization of the paper's figure,
//! "≈ 1 %" is within a factor of two of 1 %, "~30 % spread" is within a
//! factor of 1.5 of 30 %, "≫" is [`MUCH_MORE`] times or more. The bands are
//! fixed; a change to the generator that moves a value out of its band has
//! changed a verdict, and EXPERIMENTS.md has to say so.

use simcore::stats::Ecdf;
use simcore::time::SimDuration;
use smartoclock::policy::PolicyKind;
use soc_cluster::largescale::LargeScaleConfig;
use soc_cluster::largescale_metrics::{power_groups, PolicyMetrics, RackOutcome};
use soc_cluster::shard::{
    generate_fleet_probed, simulate_policy_prepared_probed, train_fleet_probed,
};
use soc_cluster::NoopProbe;
use soc_predict::eval::walk_forward;
use soc_predict::template::TemplateKind;
use soc_telemetry::Telemetry;
use soc_traces::fleet::FleetTrace;
use soc_traces::gen::{FleetConfig, TraceGenerator};

/// "Close" to a paper utilization figure: within 8 utilization points.
const CLOSE: f64 = 0.08;

/// "A ≫ B": A is at least this many times B.
const MUCH_MORE: f64 = 4.0;

/// The figure generators' sampling: two weeks at 15-minute steps.
fn two_week_fleet(racks: usize, region: &str, seed: u64) -> FleetTrace {
    let mut cfg = FleetConfig::paper_reference(racks);
    cfg.region = region.to_string();
    cfg.span = SimDuration::WEEK * 2;
    cfg.step = SimDuration::from_minutes(15);
    TraceGenerator::new(seed).generate(&cfg)
}

fn assert_close(what: &str, measured: f64, paper: f64) {
    println!("{what}: measured {measured:.3}, paper {paper:.2}");
    assert!(
        (measured - paper).abs() <= CLOSE,
        "{what}: {measured:.3} is not within {CLOSE} of the paper's {paper:.2}"
    );
}

/// Fig. 5: "half the racks have an average utilization lower than 66 %;
/// 50 % and 90 % of the racks have P99 lower than 73 % and 89 %".
/// EXPERIMENTS.md: close ✔.
#[test]
fn fig05_rack_utilization_quantiles_are_close_to_the_paper() {
    let fleet = two_week_fleet(40, "region-1", 42);
    let avg = fleet.mean_utilization_cdf();
    let p99 = fleet.utilization_percentile_cdf(99.0);
    let (median_avg, p99_at_50, p99_at_90) =
        (avg.quantile(0.5), p99.quantile(0.5), p99.quantile(0.9));
    assert_close("median rack average utilization", median_avg, 0.66);
    assert_close("P99 utilization at the 50% CDF point", p99_at_50, 0.73);
    assert_close("P99 utilization at the 90% CDF point", p99_at_90, 0.89);
    assert!(
        median_avg < p99_at_50 && p99_at_50 < p99_at_90,
        "CDF points out of order: {median_avg:.3}, {p99_at_50:.3}, {p99_at_90:.3}"
    );
}

/// Fig. 8: in every region the P50 relative RMSE of DailyMed rack-power
/// predictions is "~1 % of mean rack power". EXPERIMENTS.md: shape ✔.
#[test]
fn fig08_median_relative_rmse_is_about_one_percent() {
    for (r, region) in ["Region 1", "Region 2", "Region 3", "Region 4"]
        .iter()
        .enumerate()
    {
        let fleet = two_week_fleet(20, region, 42 + r as u64);
        let rel: Vec<f64> = fleet
            .racks
            .iter()
            .map(|rack| walk_forward(&rack.power, TemplateKind::DailyMed).rmse / rack.power.mean())
            .collect();
        let p50 = Ecdf::from_samples(&rel).quantile(0.5);
        println!(
            "{region} P50 relative RMSE: measured {:.2}%, claimed ~1%",
            p50 * 100.0
        );
        assert!(
            (0.005..=0.02).contains(&p50),
            "{region}: P50 relative RMSE {:.2}% is not within a factor of two of 1%",
            p50 * 100.0
        );
    }
}

/// Fig. 9: servers of one rack differ by "up to ~30 %" in mean power, and
/// the power-dominant server among six of them "changes over time".
/// EXPERIMENTS.md: shape ✔.
#[test]
fn fig09_servers_spread_and_the_dominant_server_changes() {
    let mut cfg = FleetConfig::paper_reference(1);
    cfg.span = SimDuration::WEEK;
    cfg.step = SimDuration::from_minutes(15);
    cfg.keep_server_series = true;
    let rack = TraceGenerator::new(42).generate_rack(&cfg, 0);

    let means: Vec<f64> = rack.servers.iter().map(|s| s.power.mean()).collect();
    let min = means.iter().copied().fold(f64::INFINITY, f64::min);
    let max = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let spread = 1.0 - min / max;

    // The six servers `fig09_server_heterogeneity` plots: the ones whose
    // mean power is closest to the rack median.
    let mut sorted = means.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let mut six: Vec<usize> = (0..means.len()).collect();
    six.sort_by(|&a, &b| {
        (means[a] - median)
            .abs()
            .total_cmp(&(means[b] - median).abs())
    });
    six.truncate(6);
    six.sort_unstable();
    let dominant_at = |i: usize| {
        six.iter()
            .copied()
            .max_by(|&a, &b| {
                rack.servers[a].power.values()[i].total_cmp(&rack.servers[b].power.values()[i])
            })
            .expect("six servers")
    };
    let steps = rack.power.len();
    let changes = (1..steps)
        .filter(|&i| dominant_at(i) != dominant_at(i - 1))
        .count();

    println!(
        "mean-power spread {:.1}% (paper ~30%); dominant server changed {changes} times",
        spread * 100.0
    );
    assert!(
        (0.20..=0.45).contains(&spread),
        "spread {:.1}% is not within a factor of 1.5 of 30%",
        spread * 100.0
    );
    assert!(
        changes >= 7,
        "the dominant server changed {changes} times in a week, less than once a day"
    );
}

/// Fig. 15: "DailyMed, used in SmartOClock, has the highest accuracy";
/// FlatMed underpredicts and FlatMax overpredicts. EXPERIMENTS.md: shape ✔.
#[test]
fn fig15_dailymed_has_the_lowest_median_rmse() {
    let mut cfg = FleetConfig::paper_reference(20);
    cfg.span = SimDuration::WEEK * 3;
    cfg.step = SimDuration::from_minutes(15);
    cfg.outlier_day_prob = 0.06;
    let fleet = TraceGenerator::new(42).generate(&cfg);

    // The binary's median: the upper middle element, not interpolated.
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    // Per template: (median RMSE, median mean error), in watts.
    let stats = |kind: TemplateKind| {
        let reports: Vec<_> = fleet
            .racks
            .iter()
            .map(|rack| walk_forward(&rack.power, kind))
            .collect();
        let rmse = median(reports.iter().map(|r| r.rmse).collect());
        let bias = median(reports.iter().map(|r| r.mean_error).collect());
        println!("{kind}: median RMSE {rmse:.1} W, median mean error {bias:.1} W");
        (rmse, bias)
    };
    let all: Vec<(TemplateKind, (f64, f64))> =
        TemplateKind::ALL.iter().map(|&k| (k, stats(k))).collect();
    let of = |kind: TemplateKind| all.iter().find(|(k, _)| *k == kind).expect("template").1;
    let (daily_med, _) = of(TemplateKind::DailyMed);
    for &(kind, (rmse, _)) in &all {
        assert!(
            kind == TemplateKind::DailyMed || rmse > daily_med,
            "{kind}'s median RMSE {rmse:.1} W is not above DailyMed's {daily_med:.1} W"
        );
    }
    assert!(
        of(TemplateKind::FlatMed).1 < 0.0,
        "FlatMed does not underpredict"
    );
    assert!(
        of(TemplateKind::FlatMax).1 > 0.0,
        "FlatMax does not overpredict"
    );
}

/// Table I on `table1_policies --fast` (12 racks, 2 weeks, 15-minute
/// steps). EXPERIMENTS.md, all shape ✔:
/// * caps: NaiveOClock ≫ NoWarning ≫ SmartOClock ≈ NoFeedback ≈ Central;
/// * success: NaiveOClock 100 %, Central above SmartOClock above
///   NoFeedback, NoWarning between SmartOClock and Central;
/// * capping penalty: NaiveOClock's is the worst, Central's is zero;
/// * performance: Central highest, NaiveOClock below Central in the
///   high-power group, the low-power group all ≈ 1.20.
#[test]
fn table1_orderings_hold() {
    let mut config = LargeScaleConfig::bench_reference(12);
    config.weeks = 2;
    config.step = SimDuration::from_minutes(15);
    let fleet = generate_fleet_probed(&config, 1, &NoopProbe);
    let trained = train_fleet_probed(&config, &fleet, 1, &NoopProbe);
    let outcomes: Vec<Vec<RackOutcome>> = PolicyKind::ALL
        .iter()
        .map(|&policy| {
            let telemetry = Telemetry::disabled();
            simulate_policy_prepared_probed(
                &config, policy, &fleet, &trained, &telemetry, 1, &NoopProbe,
            )
        })
        .collect();
    let runs = |policy: PolicyKind| {
        let i = PolicyKind::ALL.iter().position(|&p| p == policy);
        &outcomes[i.expect("every policy ran")]
    };
    let of = |policy: PolicyKind, racks: Option<&[usize]>| {
        let picked: Vec<RackOutcome> = runs(policy)
            .iter()
            .filter(|o| racks.is_none_or(|r| r.contains(&o.rack)))
            .cloned()
            .collect();
        PolicyMetrics::aggregate(policy, &picked)
    };
    use PolicyKind::{Central, NaiveOClock, NoFeedback, NoWarning, SmartOClock};
    let [central, naive, nofb, nowarn, smart] =
        [Central, NaiveOClock, NoFeedback, NoWarning, SmartOClock].map(|p| of(p, None));
    for m in [&central, &naive, &nofb, &nowarn, &smart] {
        println!(
            "{}: caps {} success {:.3} penalty {:.4} perf {:.3}",
            m.policy, m.capping_steps, m.success_rate, m.capping_penalty, m.normalized_performance
        );
    }

    // # power caps.
    let caps = |m: &PolicyMetrics| m.capping_steps as f64;
    let quiet = caps(&smart).max(caps(&nofb)).max(caps(&central)).max(1.0);
    assert!(
        caps(&naive) >= MUCH_MORE * caps(&nowarn),
        "NaiveOClock {} caps is not ≫ NoWarning's {}",
        naive.capping_steps,
        nowarn.capping_steps
    );
    assert!(
        caps(&nowarn) >= MUCH_MORE * quiet,
        "NoWarning {} caps is not ≫ SmartOClock/NoFeedback/Central's {quiet}",
        nowarn.capping_steps
    );

    // Success rate.
    assert_eq!(naive.success_rate, 1.0, "NaiveOClock grants every request");
    assert!(
        central.success_rate > nowarn.success_rate
            && nowarn.success_rate > smart.success_rate
            && smart.success_rate > nofb.success_rate,
        "success not ordered Central > NoWarning > SmartOClock > NoFeedback"
    );

    // Capping penalty.
    assert_eq!(central.capping_penalty, 0.0, "Central never caps");
    for m in [&nofb, &nowarn, &smart] {
        assert!(
            naive.capping_penalty > m.capping_penalty,
            "NaiveOClock's capping penalty is not above {}'s",
            m.policy
        );
    }

    // Normalized performance.
    for m in [&naive, &nofb, &nowarn, &smart] {
        assert!(
            central.normalized_performance > m.normalized_performance,
            "Central's performance is not above {}'s",
            m.policy
        );
    }
    let (high, _, low) = power_groups(runs(Central));
    assert!(
        of(NaiveOClock, Some(&high)).normalized_performance
            < of(Central, Some(&high)).normalized_performance,
        "NaiveOClock does not lose to Central in the high-power group"
    );
    for policy in PolicyKind::ALL {
        let perf = of(policy, Some(&low)).normalized_performance;
        assert!(
            (perf - 1.20).abs() <= 0.01,
            "{policy}'s low-power performance {perf:.3} is not ≈ 1.20"
        );
    }
}
