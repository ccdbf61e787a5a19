//! QoS invariants of the refactored serve stack.
//!
//! The two pins the ISSUE demands:
//!
//! 1. **Classless equivalence** — the QoS refactor is invisible until
//!    opted into: with every session `Standard` (the legacy scenarios)
//!    and the admit-all policy, single-device, fleet and autoscaled runs
//!    are bit-identical to the frozen reference for every scheduler ×
//!    balancer × suite scenario.
//! 2. **Shedding helps, never hurts, the protected tiers** — turning on
//!    a shedding admission policy never increases a higher class's p99
//!    over admit-all.
//!
//! Plus the composition check: QoS admission runs inside the autoscaled
//! failure-injected engine without breaking per-class conservation.

use fcad_serve::{
    reference, serve, simulate, simulate_windowed, AdmissionKind, Autoscaler, ClassMix,
    DeadlinePolicy, FailurePlan, FleetConfig, LoadBalancerKind, Off, QosClass, Scenario,
    SchedulerKind, ServeReport, ServeSpec, ServiceModel, WindowPlan,
};

mod common;

use common::{serve_sequential, three_branch_model as model};

/// A fixed-fleet spec under `kind`, `admission` and `deadline`.
fn spec(kind: SchedulerKind, admission: AdmissionKind, deadline: DeadlinePolicy) -> ServeSpec {
    ServeSpec {
        scheduler: kind,
        admission,
        deadline,
        ..ServeSpec::default()
    }
}

/// `scenario` on one shard of `model` under `spec`.
fn single(model: &ServiceModel, scenario: &Scenario, spec: &ServeSpec) -> ServeReport {
    serve(
        &FleetConfig::uniform(model.clone(), 1),
        scenario,
        spec,
        &mut Off,
    )
}

/// The mid-burst kill of shard 1 the composition pins share, under
/// `kind`, `admission` and `deadline`.
fn killed(kind: SchedulerKind, admission: AdmissionKind, deadline: DeadlinePolicy) -> ServeSpec {
    ServeSpec {
        failures: FailurePlan::scheduled(&[(1_100_000, 1)]),
        ..spec(kind, admission, deadline)
    }
}

/// The three-branch model slowed 4×: the b2-class burst now oversubscribes
/// the device hard enough that queue waits blow through the interactive
/// budget — the regime expiry culling exists for.
fn slow_model() -> ServiceModel {
    let mut slowed = model();
    for branch in &mut slowed.branches {
        branch.frame_time_us *= 4;
        branch.fill_time_us *= 4;
    }
    slowed
}

/// All-`Standard` + admit-all is the legacy engine bit for bit — single
/// device and fleet, for every scheduler × balancer × suite scenario, at
/// 1 and 3 shards.
#[test]
fn classless_equivalence_holds_everywhere() {
    for scenario in Scenario::suite() {
        for &kind in SchedulerKind::all() {
            let admit_all = spec(kind, AdmissionKind::AdmitAll, DeadlinePolicy::Off);
            let single = simulate(&model(), &scenario, kind);
            let frozen = reference::serve(
                &FleetConfig::uniform(model(), 1),
                &scenario,
                &admit_all,
                &mut Off,
            );
            assert_eq!(
                single, frozen,
                "{} / {:?}: single-device QoS path diverged",
                scenario.name, kind
            );
            for &balancer in LoadBalancerKind::all() {
                for shards in [1usize, 3] {
                    let config = FleetConfig::uniform(model(), shards).with_balancer(balancer);
                    let fleet = reference::serve(&config, &scenario, &admit_all, &mut Off);
                    let fleet_qos = serve(&config, &scenario, &admit_all, &mut Off);
                    assert_eq!(
                        fleet,
                        fleet_qos,
                        "{} / {} / {:?} / {} shards: fleet QoS path diverged",
                        scenario.name,
                        balancer.name(),
                        kind,
                        shards
                    );
                }
            }
        }
    }
}

/// The autoscaled path joins the same equivalence: no-op policy, empty
/// failure plan and admit-all reproduce the frozen autoscaled loop.
#[test]
fn autoscaled_classless_equivalence_holds() {
    for scenario in Scenario::suite() {
        for &balancer in LoadBalancerKind::all() {
            let config = FleetConfig::uniform(model(), 2).with_balancer(balancer);
            let fixed = reference::serve(&config, &scenario, &ServeSpec::default(), &mut Off);
            let qos = serve(&config, &scenario, &ServeSpec::default(), &mut Off);
            assert_eq!(
                fixed,
                qos,
                "{} / {}: autoscaled QoS path diverged",
                scenario.name,
                balancer.name()
            );
        }
    }
}

/// A classless run's class section is pure bookkeeping: everything lands
/// in the `standard` row and the other rows stay empty, across the whole
/// legacy suite.
#[test]
fn legacy_runs_report_everything_in_the_standard_row() {
    for scenario in Scenario::suite() {
        let report = simulate(&model(), &scenario, SchedulerKind::PriorityByBranch);
        let standard = report.class(QosClass::Standard).expect("standard row");
        assert_eq!(standard.issued, report.issued, "{}", scenario.name);
        assert_eq!(standard.completed, report.completed);
        assert_eq!(standard.dropped, report.dropped);
        assert_eq!(standard.latency, report.latency);
        assert_eq!(standard.slo_attainment, report.slo_attainment);
        for class in [QosClass::Interactive, QosClass::BestEffort] {
            let row = report.class(class).expect("row");
            assert_eq!(row.issued, 0, "{}", scenario.name);
            assert_eq!(row.slo_attainment, 1.0);
        }
        assert_eq!(report.shed, 0);
        assert_eq!(report.admission, "admit_all");
    }
}

fn interactive_p99(report: &ServeReport) -> f64 {
    report
        .class(QosClass::Interactive)
        .expect("interactive row")
        .latency
        .p99_ms
}

/// Shedding never increases a higher class's p99: relieving the queue of
/// lower-tier work can only help the tiers the policy protects. Pinned
/// for both shedding policies against admit-all, for every scheduler, on
/// a burst whose *lower* tiers cause the overload (the regime threshold
/// shedding is designed for — protect a tier that fits capacity from the
/// tiers that do not). When the protected tier itself oversubscribes the
/// device the comparison is ill-posed: admit-all then *drops* excess
/// interactive arrivals at the full queue, silently excluding them from
/// the percentile, while a shedding policy keeps queue space open and
/// completes them slowly — more completions, worse-looking tail.
#[test]
fn shedding_never_increases_a_higher_class_p99() {
    let scenario = Scenario::b2_qos().with_class_mix(ClassMix::new(0.15, 0.35, 0.5));
    for &kind in SchedulerKind::all() {
        let admit_all = single(
            &model(),
            &scenario,
            &spec(kind, AdmissionKind::AdmitAll, DeadlinePolicy::Off),
        );
        for admission in [AdmissionKind::QueueThreshold, AdmissionKind::BudgetAware] {
            let shedding = single(
                &model(),
                &scenario,
                &spec(kind, admission, DeadlinePolicy::Off),
            );
            assert!(shedding.conserves_requests());
            assert!(shedding.shed > 0, "{}: nothing shed", admission.name());
            assert!(
                interactive_p99(&shedding) <= interactive_p99(&admit_all),
                "{} / {:?}: interactive p99 {} ms > admit-all {} ms",
                admission.name(),
                kind,
                interactive_p99(&shedding),
                interactive_p99(&admit_all)
            );
            // Only the interactive row is pinned: the standard tier in
            // this mix still oversubscribes the device on its own, so it
            // sits in the same ill-posed drop-vs-shed regime as above.
        }
    }
}

/// Budget-aware early rejection converts interactive deadline misses into
/// sheds: the admitted interactive population attains its SLO at a
/// strictly higher rate than under admit-all on the same burst.
#[test]
fn budget_aware_raises_interactive_attainment() {
    let scenario = Scenario::b2_qos();
    let weighted = |admission| {
        spec(
            SchedulerKind::PriorityByBranch,
            admission,
            DeadlinePolicy::Off,
        )
    };
    let admit_all = single(&model(), &scenario, &weighted(AdmissionKind::AdmitAll));
    let budget = single(&model(), &scenario, &weighted(AdmissionKind::BudgetAware));
    let attainment = |r: &ServeReport| {
        r.class(QosClass::Interactive)
            .expect("interactive row")
            .slo_attainment
    };
    assert!(
        attainment(&budget) > attainment(&admit_all),
        "budget-aware attainment {} must beat admit-all {}",
        attainment(&budget),
        attainment(&admit_all)
    );
    assert!(attainment(&admit_all) < 0.95, "the burst must be punishing");
    // Overall attainment moves the same way: shedding trades completions
    // for completions-that-count.
    assert!(budget.slo_attainment > admit_all.slo_attainment);
}

/// QoS composes with the availability layer: admission shedding, a
/// mid-burst shard kill and orphan re-placement in one run still balance
/// the per-class books (completed + dropped + lost + shed == issued).
#[test]
fn qos_composes_with_failure_injection() {
    let scenario = Scenario::b2_failover(2).with_class_mix(ClassMix::telepresence());
    for &balancer in LoadBalancerKind::all() {
        let config = FleetConfig::uniform(model(), 2).with_balancer(balancer);
        let kill = killed(
            SchedulerKind::PriorityByBranch,
            AdmissionKind::QueueThreshold,
            DeadlinePolicy::Off,
        );
        let report = serve(&config, &scenario, &kill, &mut Off);
        assert!(
            report.conserves_requests(),
            "{}: books unbalanced under kill + shed",
            balancer.name()
        );
        assert_eq!(
            report.lost,
            report.classes.iter().map(|c| c.lost).sum::<u64>(),
            "{}: lost requests must be attributed to classes",
            balancer.name()
        );
        assert_eq!(report.admission, "queue_threshold");
    }
}

/// `DeadlinePolicy::Off` is invisible: culling off is byte-identical to
/// the frozen reference, which predates the policy — single device and
/// fleet, one worker and four, for every scheduler × balancer × suite
/// scenario. The EDF discipline itself rides the same grid via
/// `SchedulerKind::all()`.
#[test]
fn deadline_policy_off_is_byte_identical_everywhere() {
    for scenario in Scenario::suite() {
        for &kind in SchedulerKind::all() {
            let off_spec = spec(kind, AdmissionKind::AdmitAll, DeadlinePolicy::Off);
            let frozen = reference::serve(
                &FleetConfig::uniform(model(), 1),
                &scenario,
                &off_spec,
                &mut Off,
            );
            let off = single(&model(), &scenario, &off_spec);
            assert_eq!(
                frozen.to_json_line(),
                off.to_json_line(),
                "{} / {:?}: single-device deadline-off path diverged",
                scenario.name,
                kind
            );
            for &balancer in LoadBalancerKind::all() {
                let config = FleetConfig::uniform(model(), 3).with_balancer(balancer);
                let fleet = reference::serve(&config, &scenario, &off_spec, &mut Off);
                let off = serve(&config, &scenario, &off_spec, &mut Off);
                assert_eq!(
                    fleet.to_json_line(),
                    off.to_json_line(),
                    "{} / {} / {:?}: fleet deadline-off path diverged",
                    scenario.name,
                    balancer.name(),
                    kind
                );
                let parallel = simulate_windowed(
                    &config,
                    &scenario,
                    kind,
                    &Autoscaler::none(),
                    &FailurePlan::none(),
                    AdmissionKind::AdmitAll,
                    DeadlinePolicy::Off,
                    &WindowPlan::new(4),
                );
                assert_eq!(
                    fleet.to_json_line(),
                    parallel.to_json_line(),
                    "{} / {} / {:?}: parallel deadline-off path diverged",
                    scenario.name,
                    balancer.name(),
                    kind
                );
            }
        }
    }
}

/// The autoscaled path joins the off-is-invisible pin, with a real
/// failure plan and shedding admission in the loop.
#[test]
fn autoscaled_deadline_off_matches_the_qos_path() {
    let scenario = Scenario::b2_failover(2).with_class_mix(ClassMix::telepresence());
    for &balancer in LoadBalancerKind::all() {
        let config = FleetConfig::uniform(model(), 2).with_balancer(balancer);
        let kill = killed(
            SchedulerKind::PriorityByBranch,
            AdmissionKind::QueueThreshold,
            DeadlinePolicy::Off,
        );
        let qos = reference::serve(&config, &scenario, &kill, &mut Off);
        let off = serve(&config, &scenario, &kill, &mut Off);
        assert_eq!(
            qos.to_json_line(),
            off.to_json_line(),
            "{}: autoscaled deadline-off path diverged",
            balancer.name()
        );
    }
}

/// The headline pin: on the oversubscribing burst, EDF dispatch with
/// expiry culling stops serving dead frames. The run actually expires
/// work, still balances the five-outcome books, and beats (or ties)
/// weighted priority on interactive SLO attainment — both outright and
/// per unit of fabric-busy time, because the fabric seconds weighted
/// priority spends completing already-dead frames buy no attainment.
#[test]
fn deadline_dispatch_stops_serving_dead_frames() {
    let model = slow_model();
    let scenario = Scenario::b2_qos();
    let weighted = single(
        &model,
        &scenario,
        &spec(
            SchedulerKind::PriorityByBranch,
            AdmissionKind::AdmitAll,
            DeadlinePolicy::Off,
        ),
    );
    let edf = single(
        &model,
        &scenario,
        &spec(
            SchedulerKind::Deadline,
            AdmissionKind::AdmitAll,
            DeadlinePolicy::CullExpired,
        ),
    );
    assert!(edf.conserves_requests(), "five-outcome books unbalanced");
    assert!(
        edf.expired > 0,
        "the burst must strand already-dead frames in queue"
    );
    assert_eq!(edf.scheduler, "deadline");
    let interactive = |r: &ServeReport| {
        r.class(QosClass::Interactive)
            .expect("interactive row")
            .slo_attainment
    };
    assert!(
        interactive(&edf) >= interactive(&weighted),
        "EDF interactive attainment {} fell below weighted {}",
        interactive(&edf),
        interactive(&weighted)
    );
    assert!(
        edf.slo_per_busy_sec >= weighted.slo_per_busy_sec,
        "EDF attainment per busy-second {} fell below weighted {}",
        edf.slo_per_busy_sec,
        weighted.slo_per_busy_sec
    );
}

/// Expiry composes with the availability layer: culling, admission
/// shedding and a mid-burst shard kill in one run still balance the
/// five-outcome books fleet-wide, per class and per shard.
#[test]
fn expiry_composes_with_failure_injection() {
    let scenario = Scenario::b2_failover(2).with_class_mix(ClassMix::telepresence());
    for &balancer in LoadBalancerKind::all() {
        let config = FleetConfig::uniform(slow_model(), 2).with_balancer(balancer);
        let kill = killed(
            SchedulerKind::Deadline,
            AdmissionKind::AdmitAll,
            DeadlinePolicy::CullExpired,
        );
        let report = serve(&config, &scenario, &kill, &mut Off);
        assert!(
            report.conserves_requests(),
            "{}: books unbalanced under kill + cull",
            balancer.name()
        );
        assert!(
            report.expired > 0,
            "{}: the slowed fleet must expire queued work",
            balancer.name()
        );
        assert_eq!(
            report.expired,
            report.classes.iter().map(|c| c.expired).sum::<u64>(),
            "{}: expiry must be attributed to classes",
            balancer.name()
        );
        assert_eq!(
            report.expired,
            report.shards.iter().map(|s| s.expired).sum::<u64>(),
            "{}: expiry must be attributed to shards",
            balancer.name()
        );
    }
}

/// The windowed engine agrees with the windows-disabled driver under
/// culling, for every balancer and worker count — including the
/// load-aware balancers, which open no window but must keep the deadline
/// policy all the same.
#[test]
fn parallel_deadline_culling_matches_sequential() {
    let scenario = Scenario::b2_qos();
    let culling = spec(
        SchedulerKind::Deadline,
        AdmissionKind::AdmitAll,
        DeadlinePolicy::CullExpired,
    );
    for &balancer in LoadBalancerKind::all() {
        let config = FleetConfig::uniform(slow_model(), 3).with_balancer(balancer);
        let sequential = serve_sequential(&config, &scenario, &culling, &mut Off);
        for workers in [1usize, 2, 4] {
            let parallel = simulate_windowed(
                &config,
                &scenario,
                SchedulerKind::Deadline,
                &Autoscaler::none(),
                &FailurePlan::none(),
                AdmissionKind::AdmitAll,
                DeadlinePolicy::CullExpired,
                &WindowPlan::new(workers),
            );
            assert_eq!(
                sequential.to_json_line(),
                parallel.to_json_line(),
                "{} / {} workers: parallel culling diverged",
                balancer.name(),
                workers
            );
        }
    }
}
