//! Property-based tests of the observability layer: across randomized
//! scenarios, schedulers, balancers, admission policies and class mixes —
//! with and without failure/autoscale churn — the recorded trace must
//! tell exactly the story the `ServeReport` counters tell (see
//! `common::check_trace_against_report`), tracing must never perturb the
//! simulation, and fixed seed ⇒ an identical event stream.

use fcad_serve::{
    serve, AdmissionKind, Autoscaler, FailurePlan, FleetConfig, LoadBalancerKind, Off, Recorder,
    SchedulerKind, ServeSpec, Windowed,
};
use proptest::prelude::*;

mod common;

use common::{
    admission_strategy, check_trace_against_report, class_mix_strategy, pattern_strategy,
    prop_scenario as scenario, scheduler_strategy, three_branch_model as model,
};

/// A fixed-fleet spec under `kind` and `admission`.
fn spec(kind: SchedulerKind, admission: AdmissionKind) -> ServeSpec {
    ServeSpec {
        scheduler: kind,
        admission,
        ..ServeSpec::default()
    }
}

fn balancer_strategy() -> impl Strategy<Value = LoadBalancerKind> {
    prop_oneof![
        Just(LoadBalancerKind::RoundRobin),
        Just(LoadBalancerKind::LeastLoaded),
        Just(LoadBalancerKind::AffinityFirst),
        Just(LoadBalancerKind::BranchSharded),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The trace and the report agree on every book — arrivals, terminal
    /// outcomes fleet-wide/per branch/per class/per shard — and tracing
    /// leaves the report untouched, for random static-fleet cells.
    #[test]
    fn trace_matches_report_on_static_fleets(
        seed in 0u64..10_000,
        sessions in 1usize..6,
        rate in 5usize..40,
        capacity in 4usize..64,
        shards in 1usize..4,
        arrival in pattern_strategy(),
        kind in scheduler_strategy(),
        balancer in balancer_strategy(),
        admission in admission_strategy(),
        mix in class_mix_strategy(),
    ) {
        let scenario = scenario(seed, sessions, rate, capacity, arrival).with_class_mix(mix);
        let config = FleetConfig::uniform(model(), shards).with_balancer(balancer);
        let mut recorder = Recorder::new();
        let traced = serve(&config, &scenario, &spec(kind, admission), &mut recorder);
        let untraced = serve(&config, &scenario, &spec(kind, admission), &mut Off);
        prop_assert_eq!(&untraced, &traced);
        check_trace_against_report(recorder.events(), &traced);
    }

    /// The same holds through failure and autoscale churn: kills mirror
    /// onto the timeline, replacements and losses balance, and every
    /// dispatch stays inside its shard's live interval.
    #[test]
    fn trace_matches_report_through_churn(
        seed in 0u64..10_000,
        sessions in 2usize..6,
        rate in 10usize..40,
        capacity in 4usize..32,
        kill_at_ms in 100u64..900,
        kill_shard in 0usize..2,
        kind in scheduler_strategy(),
        balancer in balancer_strategy(),
        admission in admission_strategy(),
    ) {
        let scenario = scenario(
            seed,
            sessions,
            rate,
            capacity,
            fcad_serve::ArrivalPattern::Poisson,
        );
        let config = FleetConfig::uniform(model(), 2).with_balancer(balancer);
        let churn = ServeSpec {
            autoscaler: Autoscaler::reactive(2, 4)
                .with_scale_up_queue_depth(3)
                .with_warmup_us(20_000)
                .with_cooldown_us(50_000),
            failures: FailurePlan::scheduled(&[(kill_at_ms * 1_000, kill_shard)]),
            ..spec(kind, admission)
        };
        let mut recorder = Recorder::new();
        let traced = serve(&config, &scenario, &churn, &mut recorder);
        prop_assert!(traced.conserves_requests());
        prop_assert_eq!(
            recorder.fleet_events().count(),
            traced.scale_events.len(),
            "every scale event mirrored as a fleet instant"
        );
        check_trace_against_report(recorder.events(), &traced);
    }

    /// Fixed seed ⇒ the recorded event stream itself is identical, not
    /// just the aggregate report.
    #[test]
    fn fixed_seed_records_an_identical_event_stream(
        seed in 0u64..10_000,
        sessions in 1usize..5,
        rate in 5usize..30,
        arrival in pattern_strategy(),
        kind in scheduler_strategy(),
        admission in admission_strategy(),
    ) {
        let scenario = scenario(seed, sessions, rate, 32, arrival);
        let config = FleetConfig::uniform(model(), 2);
        let run = || {
            let mut recorder = Recorder::new();
            serve(&config, &scenario, &spec(kind, admission), &mut recorder);
            recorder
        };
        prop_assert_eq!(run().events(), run().events());
    }

    /// The windowed metrics balance against the report: summed per-window
    /// counters equal the fleet totals, and no window over-fills its
    /// capacity budget.
    #[test]
    fn windowed_metrics_sum_back_to_the_report(
        seed in 0u64..10_000,
        sessions in 1usize..6,
        rate in 5usize..40,
        interval_ms in 10u64..200,
        kind in scheduler_strategy(),
        admission in admission_strategy(),
        mix in class_mix_strategy(),
    ) {
        let scenario = scenario(seed, sessions, rate, 32, fcad_serve::ArrivalPattern::Poisson)
            .with_class_mix(mix);
        let config = FleetConfig::uniform(model(), 2);
        let mut recorder = Recorder::new();
        let report = serve(&config, &scenario, &spec(kind, admission), &mut recorder);
        let mut windowed = Windowed::new(interval_ms * 1_000);
        recorder.replay(&mut windowed);
        let series = windowed.finish();
        let sum = |f: fn(&fcad_serve::MetricsWindow) -> u64| {
            series.windows.iter().map(f).sum::<u64>()
        };
        prop_assert_eq!(sum(|w| w.arrivals), report.issued);
        prop_assert_eq!(sum(|w| w.completed), report.completed);
        prop_assert_eq!(sum(|w| w.dropped), report.dropped);
        prop_assert_eq!(sum(|w| w.lost), report.lost);
        prop_assert_eq!(sum(|w| w.shed), report.shed);
        prop_assert_eq!(sum(|w| w.replaced), report.replaced);
        for window in &series.windows {
            prop_assert!(window.utilization <= 1.0 + 1e-9);
            prop_assert!(window.to_us > window.from_us);
        }
    }
}
