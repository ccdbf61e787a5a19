//! Property tests for the windowed engine's worker-count invariance on
//! random seeds: static fleets against the frozen reference, coupled
//! fleets against the windows-disabled driver. The engine's same-instant
//! tie rules are unit tests in `crates/serve/src/engine.rs`.

mod common;

use common::{scheduler_strategy, serve_sequential, three_branch_model};
use fcad_serve::{
    reference, simulate_windowed, AdmissionKind, ArrivalPattern, Autoscaler, ClassMix,
    DeadlinePolicy, FailurePlan, FleetConfig, LoadBalancerKind, Off, Scenario, SchedulerKind,
    ServeSpec, WindowPlan,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A static fleet is worker-count invariant: 1, 2, 4 and 8 workers
    /// produce the byte-identical report of the frozen reference for
    /// random seeds, session counts, capacities and disciplines.
    #[test]
    fn worker_counts_agree_on_random_scenarios(
        seed in 0u64..10_000,
        sessions in 1usize..12,
        capacity in 4usize..96,
        kind in scheduler_strategy(),
        branch_sharded in 0usize..2,
        mixed_classes in 0usize..2,
    ) {
        let mut scenario = Scenario::b2()
            .with_seed(seed)
            .with_sessions(sessions);
        scenario.queue_capacity = capacity;
        scenario.arrival = ArrivalPattern::Poisson;
        if mixed_classes == 1 {
            scenario = scenario.with_class_mix(ClassMix::telepresence());
        }
        let mut config = FleetConfig::uniform(three_branch_model(), 4);
        config.balancer = if branch_sharded == 1 {
            LoadBalancerKind::BranchSharded
        } else {
            LoadBalancerKind::RoundRobin
        };
        let frozen = reference::simulate_fleet(&config, &scenario, kind);
        for workers in [1usize, 2, 4, 8] {
            let parallel = simulate_windowed(
                &config,
                &scenario,
                kind,
                &Autoscaler::none(),
                &FailurePlan::none(),
                AdmissionKind::AdmitAll,
                DeadlinePolicy::Off,
                &WindowPlan::new(workers),
            );
            prop_assert_eq!(
                frozen.to_json_line(),
                parallel.to_json_line(),
                "worker count {} diverged", workers
            );
        }
    }

    /// The *windowed* engine is worker-count invariant on coupled fleets:
    /// random seeds, balancers (the load-aware kinds never open a
    /// window), admission policies, window shapes and a random
    /// coupling regime — static, autoscaled, failure-injected or
    /// deadline-culled — all produce reports byte-identical to the
    /// windows-disabled driver at 0 (counted as 1), 1, 2, 4 and 8 workers.
    #[test]
    fn windowed_worker_counts_agree_on_random_coupled_scenarios(
        seed in 0u64..10_000,
        sessions in 2usize..12,
        capacity in 4usize..96,
        kind_sel in 0usize..4,
        balancer_sel in 0usize..4,
        admission_sel in 0usize..3,
        regime_sel in 0usize..4,
        window_us in 10_000u64..200_000,
        min_events in 1usize..64,
    ) {
        let kind = SchedulerKind::all()[kind_sel];
        let admission = [
            AdmissionKind::AdmitAll,
            AdmissionKind::QueueThreshold,
            AdmissionKind::BudgetAware,
        ][admission_sel];
        let mut scenario = Scenario::b2()
            .with_seed(seed)
            .with_sessions(sessions)
            .with_class_mix(ClassMix::telepresence());
        scenario.queue_capacity = capacity;
        scenario.arrival = ArrivalPattern::Poisson;
        let mut config = FleetConfig::uniform(three_branch_model(), 3);
        config.balancer = LoadBalancerKind::all()[balancer_sel];
        let (policy, failures, deadline) = match regime_sel {
            0 => (Autoscaler::none(), FailurePlan::none(), DeadlinePolicy::Off),
            1 => (
                Autoscaler::reactive(2, 5).with_idle_retire_us(0),
                FailurePlan::none(),
                DeadlinePolicy::Off,
            ),
            2 => (
                Autoscaler::reactive(2, 4).with_idle_retire_us(0),
                FailurePlan::seeded(seed ^ 0xDEAD_BEEF, 1, 2_000_000),
                DeadlinePolicy::Off,
            ),
            _ => (Autoscaler::none(), FailurePlan::none(), DeadlinePolicy::CullExpired),
        };
        let spec = ServeSpec {
            scheduler: kind,
            admission,
            deadline,
            autoscaler: policy.clone(),
            failures: failures.clone(),
            workers: 1,
        };
        let sequential = serve_sequential(&config, &scenario, &spec, &mut Off);
        for workers in [0usize, 1, 2, 4, 8] {
            let plan = WindowPlan::new(workers)
                .with_window_us(window_us)
                .with_min_parallel_events(min_events);
            let windowed = simulate_windowed(
                &config, &scenario, kind, &policy, &failures, admission, deadline, &plan,
            );
            prop_assert_eq!(
                sequential.to_json_line(),
                windowed.to_json_line(),
                "windowed run with {} workers diverged", workers
            );
        }
    }
}
