//! Property-based tests of the serving simulator: bit-exact determinism for
//! a fixed seed, request conservation across randomized scenario
//! parameters (including tiny queues that force drops), the QoS
//! extension of both — per-class conservation with the `shed` outcome and
//! bit-identical per-class statistics under every admission policy and
//! class mix — and the deadline extension of *those*: five-outcome
//! conservation with `expired` under queue-time culling, and the
//! invisibility of `DeadlinePolicy::Off`.

use fcad_serve::{
    reference, serve, simulate, AdmissionKind, ArrivalPattern, DeadlinePolicy, FleetConfig, Off,
    Scenario, SchedulerKind, ServeReport, ServeSpec,
};
use proptest::prelude::*;

mod common;

use common::{
    admission_strategy, brute_force_trace, class_mix_strategy, pattern_strategy,
    prop_scenario as scenario, scheduler_strategy, three_branch_model as model,
};

/// `scenario` on one shard of the test model under `kind`, `admission`
/// and `deadline`.
fn single(
    scenario: &Scenario,
    kind: SchedulerKind,
    admission: AdmissionKind,
    deadline: DeadlinePolicy,
) -> ServeReport {
    let spec = ServeSpec {
        scheduler: kind,
        admission,
        deadline,
        ..ServeSpec::default()
    };
    serve(&FleetConfig::uniform(model(), 1), scenario, &spec, &mut Off)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed + same scenario ⇒ bit-identical `ServeReport`.
    #[test]
    fn same_seed_and_scenario_give_identical_reports(
        seed in 0u64..10_000,
        sessions in 1usize..6,
        rate in 5usize..40,
        capacity in 8usize..256,
        arrival in pattern_strategy(),
        kind in scheduler_strategy(),
    ) {
        let scenario = scenario(seed, sessions, rate, capacity, arrival);
        let a = simulate(&model(), &scenario, kind);
        let b = simulate(&model(), &scenario, kind);
        prop_assert_eq!(a, b);
    }

    /// Completed + dropped == issued, in total and per branch, for every
    /// discipline and arrival pattern — even when tiny queues force drops.
    #[test]
    fn requests_are_conserved_across_random_scenarios(
        seed in 0u64..10_000,
        sessions in 1usize..8,
        rate in 5usize..60,
        capacity in 4usize..64,
        arrival in pattern_strategy(),
        kind in scheduler_strategy(),
    ) {
        let scenario = scenario(seed, sessions, rate, capacity, arrival);
        let report = simulate(&model(), &scenario, kind);
        prop_assert!(report.conserves_requests());
        prop_assert_eq!(
            report.issued,
            report.branches.iter().map(|b| b.issued).sum::<u64>()
        );
        prop_assert!(report.latency.p99_ms >= report.latency.p50_ms);
        prop_assert!(report.utilization <= 1.0 + 1e-9);
    }

    /// Fixed seed ⇒ bit-identical *per-class* statistics, for every
    /// admission policy and class mix: the QoS layer must not smuggle any
    /// nondeterminism into the engine.
    #[test]
    fn same_seed_gives_identical_per_class_stats(
        seed in 0u64..10_000,
        sessions in 1usize..6,
        rate in 5usize..40,
        capacity in 8usize..64,
        arrival in pattern_strategy(),
        kind in scheduler_strategy(),
        admission in admission_strategy(),
        mix in class_mix_strategy(),
    ) {
        let scenario = scenario(seed, sessions, rate, capacity, arrival).with_class_mix(mix);
        let a = single(&scenario, kind, admission, DeadlinePolicy::Off);
        let b = single(&scenario, kind, admission, DeadlinePolicy::Off);
        prop_assert_eq!(&a.classes, &b.classes);
        prop_assert_eq!(a, b);
    }

    /// Per-class conservation with the fourth outcome: completed +
    /// dropped + lost + shed == issued in total, per branch and per
    /// class, and the class rows partition every fleet counter — under
    /// every admission policy and class mix.
    #[test]
    fn per_class_counts_partition_the_totals(
        seed in 0u64..10_000,
        sessions in 1usize..8,
        rate in 5usize..60,
        capacity in 4usize..64,
        arrival in pattern_strategy(),
        kind in scheduler_strategy(),
        admission in admission_strategy(),
        mix in class_mix_strategy(),
    ) {
        let scenario = scenario(seed, sessions, rate, capacity, arrival).with_class_mix(mix);
        let report = single(&scenario, kind, admission, DeadlinePolicy::Off);
        prop_assert!(report.conserves_requests());
        prop_assert_eq!(
            report.issued,
            report.classes.iter().map(|c| c.issued).sum::<u64>()
        );
        prop_assert_eq!(
            report.shed,
            report.classes.iter().map(|c| c.shed).sum::<u64>()
        );
        for class in &report.classes {
            prop_assert!(class.completed + class.dropped + class.lost + class.shed == class.issued);
            prop_assert!((0.0..=1.0).contains(&class.slo_attainment));
            prop_assert!(class.latency.p99_ms >= class.latency.p50_ms);
        }
        prop_assert!((0.0..=1.0).contains(&report.slo_attainment));
    }

    /// The fifth outcome balances the books: with expiry culling on,
    /// completed + dropped + lost + shed + expired == issued in total and
    /// per class, and the expired rows partition the fleet counter across
    /// classes, branches and shards — under every discipline, admission
    /// policy, class mix and arrival pattern.
    #[test]
    fn expiry_culling_conserves_the_fifth_outcome(
        seed in 0u64..10_000,
        sessions in 1usize..8,
        rate in 5usize..60,
        capacity in 4usize..64,
        arrival in pattern_strategy(),
        kind in scheduler_strategy(),
        admission in admission_strategy(),
        mix in class_mix_strategy(),
    ) {
        let scenario = scenario(seed, sessions, rate, capacity, arrival).with_class_mix(mix);
        let report = single(&scenario, kind, admission, DeadlinePolicy::CullExpired);
        prop_assert!(report.conserves_requests());
        prop_assert_eq!(
            report.expired,
            report.classes.iter().map(|c| c.expired).sum::<u64>()
        );
        prop_assert_eq!(
            report.expired,
            report.branches.iter().map(|b| b.expired).sum::<u64>()
        );
        prop_assert_eq!(
            report.expired,
            report.shards.iter().map(|s| s.expired).sum::<u64>()
        );
        for class in &report.classes {
            prop_assert!(
                class.completed + class.dropped + class.lost + class.shed + class.expired
                    == class.issued
            );
            prop_assert!((0.0..=1.0).contains(&class.slo_attainment));
        }
        prop_assert!((0.0..=1.0).contains(&report.slo_attainment));
        prop_assert!(report.slo_per_busy_sec >= 0.0);
    }

    /// `DeadlinePolicy::Off` is invisible under fuzzing too: culling off is
    /// bit-identical to the frozen reference, which predates the policy,
    /// for random scenarios, disciplines, admissions and mixes.
    #[test]
    fn deadline_off_is_invisible_under_fuzzing(
        seed in 0u64..10_000,
        sessions in 1usize..6,
        rate in 5usize..40,
        capacity in 8usize..64,
        arrival in pattern_strategy(),
        kind in scheduler_strategy(),
        admission in admission_strategy(),
        mix in class_mix_strategy(),
    ) {
        let scenario = scenario(seed, sessions, rate, capacity, arrival).with_class_mix(mix);
        let config = FleetConfig::uniform(model(), 1);
        let spec = ServeSpec {
            scheduler: kind,
            admission,
            ..ServeSpec::default()
        };
        let frozen = reference::serve(&config, &scenario, &spec, &mut Off);
        let off = single(&scenario, kind, admission, DeadlinePolicy::Off);
        prop_assert_eq!(frozen, off);
    }

    /// Different seeds shift stochastic arrivals (the RNG is actually
    /// wired through), while steady arrivals are seed-independent.
    #[test]
    fn seeds_steer_stochastic_patterns_only(
        seed in 0u64..10_000,
    ) {
        let poisson_a = scenario(seed, 2, 20, 128, ArrivalPattern::Poisson);
        let poisson_b = scenario(seed + 1, 2, 20, 128, ArrivalPattern::Poisson);
        prop_assert!(poisson_a.generate(3) != poisson_b.generate(3));

        let steady_a = scenario(seed, 2, 20, 128, ArrivalPattern::Steady);
        let steady_b = scenario(seed + 1, 2, 20, 128, ArrivalPattern::Steady);
        prop_assert_eq!(steady_a.generate(3), steady_b.generate(3));
    }
}

/// Every arrival pattern, burst and ramp shapes drawn at random. Bursts
/// of a few milliseconds put many ticks on the edge of an on-window.
fn any_pattern() -> impl Strategy<Value = ArrivalPattern> {
    let period_sec = prop_oneof![0.000_5..0.005, 0.05..1.0];
    prop_oneof![
        Just(ArrivalPattern::Steady),
        Just(ArrivalPattern::Poisson),
        (period_sec, 0.0..1.0, 0.5..3.0).prop_map(|(period_sec, duty, factor)| {
            ArrivalPattern::Burst {
                period_sec,
                duty,
                factor,
            }
        }),
        (0.1..2.0, 0.1..2.0).prop_map(|(start_factor, end_factor)| {
            ArrivalPattern::DiurnalRamp {
                start_factor,
                end_factor,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lazily merged arrival stream is the brute-force build-and-sort
    /// trace: same requests, same order, same ids.
    #[test]
    fn generate_matches_the_brute_force_trace(
        seed in 0u64..u64::MAX,
        sessions in 0usize..41,
        rate in 0.2..30.0,
        duration_sec in 0.01..2.0,
        arrival in any_pattern(),
        mix in class_mix_strategy(),
        branches in 0usize..5,
    ) {
        let mut scenario = scenario(seed, sessions, 1, 64, arrival).with_class_mix(mix);
        scenario.frame_rate_hz = rate;
        scenario.duration_sec = duration_sec;
        prop_assert_eq!(scenario.generate(branches), brute_force_trace(&scenario, branches));
    }
}
