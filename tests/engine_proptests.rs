//! Property tests for the engine rebuild's three load-bearing mechanisms:
//! the indexed event calendar's total, push-stable pop order; the
//! heap-backed ready queues' batch-for-batch agreement with the frozen
//! linear-rescan schedulers under random request streams; and the
//! windowed engine's worker-count invariance on random seeds.

mod common;

use common::{serve_sequential, three_branch_model};
use fcad_serve::calendar::{Calendar, EventKey};
use fcad_serve::{
    reference, simulate_windowed, AdmissionKind, ArrivalPattern, Autoscaler, ClassMix,
    DeadlinePolicy, FailurePlan, FleetConfig, LoadBalancerKind, Off, QosClass, Request, Scenario,
    Scheduler, SchedulerKind, ServeSpec, WindowPlan,
};
use proptest::prelude::*;

/// A random calendar entry: a bounded key so ties on every caller field
/// actually occur.
fn entry_strategy() -> impl Strategy<Value = (u64, u8, u64, u64)> {
    (0u64..16, 0u8..3, 0u64..4, 0u64..4)
}

/// A random request stream: per-request arrival-time increments plus a
/// branch and class index, folded into strictly ordered requests.
fn stream_strategy() -> impl Strategy<Value = Vec<(u64, usize, usize)>> {
    proptest::collection::vec((0u64..30_000, 0usize..3, 0usize..3), 1..64)
}

fn build_stream(raw: &[(u64, usize, usize)]) -> Vec<Request> {
    let mut at_us = 0u64;
    raw.iter()
        .enumerate()
        .map(|(index, &(dt_us, branch, class))| {
            at_us += dt_us;
            Request {
                id: index as u64,
                session: index % 7,
                branch,
                issued_at_us: at_us,
                class: QosClass::all()[class],
            }
        })
        .collect()
}

/// Drains `rebuilt` and `frozen` over the same enqueue/dispatch
/// interleaving and asserts every batch matches, request for request.
fn assert_schedulers_agree(
    mut rebuilt: Box<dyn Scheduler>,
    mut frozen: Box<dyn Scheduler>,
    stream: &[Request],
    drain_every: usize,
) {
    let model = three_branch_model();
    let mut now_us = 0;
    for (index, request) in stream.iter().enumerate() {
        now_us = request.issued_at_us;
        rebuilt.enqueue(*request);
        frozen.enqueue(*request);
        assert_eq!(rebuilt.queued(), frozen.queued());
        if index % drain_every == drain_every - 1 {
            let a = rebuilt.next_batch(&model, now_us);
            let b = frozen.next_batch(&model, now_us);
            assert_eq!(a, b, "mid-stream batch diverged at arrival {index}");
        }
    }
    while frozen.queued() > 0 {
        now_us += 1_000;
        let a = rebuilt.next_batch(&model, now_us);
        let b = frozen.next_batch(&model, now_us);
        assert_eq!(a, b, "drain batch diverged at {now_us} µs");
    }
    assert_eq!(rebuilt.queued(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The calendar pops in exact lexicographic `(at_us, lane, a, b, seq)`
    /// order — a *total* order: entries tying on every caller-supplied
    /// field pop in push order (the calendar-assigned `seq` breaks the
    /// tie), so the pop sequence is a pure function of the push sequence.
    #[test]
    fn calendar_pop_order_is_total_and_push_stable(
        entries in proptest::collection::vec(entry_strategy(), 1..128),
    ) {
        let mut calendar: Calendar<usize> = Calendar::new();
        for (index, &(at_us, lane, a, b)) in entries.iter().enumerate() {
            calendar.push(at_us, lane, a, b, index);
        }
        prop_assert_eq!(calendar.len(), entries.len());
        let mut popped: Vec<(EventKey, usize)> = Vec::new();
        while let Some(item) = calendar.pop() {
            popped.push(item);
        }
        prop_assert_eq!(popped.len(), entries.len());
        for pair in popped.windows(2) {
            let (ka, &pa) = (pair[0].0, &pair[0].1);
            let (kb, &pb) = (pair[1].0, &pair[1].1);
            prop_assert!(ka < kb, "pop order must strictly ascend: {ka:?} !< {kb:?}");
            // Push-order stability under full caller-field ties: the
            // payload (the push index) ascends whenever everything but
            // the calendar-assigned seq ties.
            if (ka.at_us, ka.lane, ka.a, ka.b) == (kb.at_us, kb.lane, kb.a, kb.b) {
                prop_assert!(pa < pb, "tied entries must pop in push order");
            }
        }
    }

    /// The heap-backed priority scheduler's incrementally maintained
    /// scores pick exactly the batches the frozen from-scratch rescan
    /// picks, under random streams and random drain cadences.
    #[test]
    fn priority_heap_matches_the_frozen_rescan(
        raw in stream_strategy(),
        drain_every in 1usize..8,
    ) {
        let stream = build_stream(&raw);
        assert_schedulers_agree(
            Box::new(fcad_serve::PriorityScheduler::new()),
            Box::new(reference::PriorityScheduler::new()),
            &stream,
            drain_every,
        );
    }

    /// Same agreement for the batch-aggregating scheduler's integer heap.
    #[test]
    fn batch_heap_matches_the_frozen_rescan(
        raw in stream_strategy(),
        drain_every in 1usize..8,
    ) {
        let stream = build_stream(&raw);
        assert_schedulers_agree(
            Box::new(fcad_serve::BatchScheduler::new()),
            Box::new(reference::BatchScheduler::new()),
            &stream,
            drain_every,
        );
    }

    /// A static fleet is worker-count invariant: 1, 2, 4 and 8 workers
    /// produce the byte-identical report of the frozen reference for
    /// random seeds, session counts, capacities and disciplines.
    #[test]
    fn worker_counts_agree_on_random_scenarios(
        seed in 0u64..10_000,
        sessions in 1usize..12,
        capacity in 4usize..96,
        kind_sel in 0usize..3,
        branch_sharded in 0usize..2,
        mixed_classes in 0usize..2,
    ) {
        let kind = SchedulerKind::all()[kind_sel];
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
