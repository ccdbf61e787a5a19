//! Lifecycle invariants of the dynamic-fleet engine: the no-op policy is
//! the fixed fleet bit for bit, failure injection conserves every request
//! (completed + dropped + lost == issued), a draining shard accepts no new
//! placements, and a warming shard contributes zero throughput until its
//! weight fill completes.

use fcad_serve::{
    reference, serve, Autoscaler, FailurePlan, FleetConfig, LoadBalancerKind, Off, ScaleEventKind,
    Scenario, SchedulerKind, ServeReport, ServeSpec, ShardState,
};

mod common;

use common::{spec_for, three_branch_model as model};

/// `scenario` on `config` under batch aggregation with the given
/// autoscaler and failure plan.
fn elastic(
    config: &FleetConfig,
    scenario: &Scenario,
    autoscaler: Autoscaler,
    failures: FailurePlan,
) -> ServeReport {
    let spec = ServeSpec {
        autoscaler,
        failures,
        ..ServeSpec::default()
    };
    serve(config, scenario, &spec, &mut Off)
}

/// With the no-op autoscaler and no failure plan — the default spec — the
/// lifecycle-driven engine reproduces the frozen fixed-fleet loop bit for
/// bit, for every balancer × scheduler × scenario of the standard suite,
/// at 1 and at 3 shards.
#[test]
fn noop_policy_is_bit_identical_to_the_fixed_fleet_everywhere() {
    for scenario in Scenario::suite() {
        for &balancer in LoadBalancerKind::all() {
            for &kind in SchedulerKind::all() {
                for shards in [1usize, 3] {
                    let config = FleetConfig::uniform(model(), shards).with_balancer(balancer);
                    let fixed = reference::simulate_fleet(&config, &scenario, kind);
                    let noop = serve(&config, &scenario, &spec_for(kind), &mut Off);
                    assert_eq!(
                        fixed,
                        noop,
                        "{} / {} / {kind:?} / {shards} shards: no-op autoscaler diverged from the fixed fleet",
                        scenario.name,
                        balancer.name(),
                    );
                }
            }
        }
    }
}

/// Conservation under failure: however a kill shreds a queue, every issued
/// request ends the run completed, dropped at admission, or lost — in
/// total, per branch, and per shard.
#[test]
fn every_request_is_accounted_for_under_failure() {
    let scenario = Scenario::b2_failover(2);
    for &balancer in LoadBalancerKind::all() {
        for &kind in SchedulerKind::all() {
            let config = FleetConfig::uniform(model(), 2).with_balancer(balancer);
            let spec = ServeSpec {
                failures: FailurePlan::scheduled(&[(1_100_000, 1)]),
                ..spec_for(kind)
            };
            let report = serve(&config, &scenario, &spec, &mut Off);
            assert!(
                report.conserves_requests(),
                "{} / {kind:?}: {} completed + {} dropped + {} lost != {} issued",
                balancer.name(),
                report.completed,
                report.dropped,
                report.lost,
                report.issued
            );
            assert_eq!(report.shards[1].state, ShardState::Failed);
            // The kill fires mid-burst, so the dead shard's queue was
            // non-empty: its sessions went *somewhere* (re-placed or lost).
            assert!(
                report.replaced + report.lost > 0,
                "{} / {kind:?}: the mid-burst kill orphaned nothing",
                balancer.name(),
            );
            // availability + drop rate + loss rate partition the issued
            // requests.
            let loss_rate = report.lost as f64 / report.issued as f64;
            assert!((report.availability + report.drop_rate + loss_rate - 1.0).abs() < 1e-9);
        }
    }
}

/// A draining shard accepts no new placements: drained before any traffic,
/// its front door never opens and the whole run lands on the survivor.
#[test]
fn a_draining_shard_accepts_no_new_placements() {
    let config = FleetConfig::uniform(model(), 2).with_balancer(LoadBalancerKind::RoundRobin);
    let policy = Autoscaler::none().with_scheduled_drain(0, 1);
    let report = elastic(&config, &Scenario::b2(), policy, FailurePlan::none());
    assert!(report.conserves_requests());
    assert_eq!(report.shards[1].state, ShardState::Retired);
    assert_eq!(
        report.shards[1].issued, 0,
        "a shard drained at t=0 must never admit a request"
    );
    assert_eq!(report.shards[0].issued, report.issued);
    assert!(report
        .scale_events
        .iter()
        .any(|e| e.kind == ScaleEventKind::Retire && e.shard == 1));
}

/// A mid-run drain stops the flow into the drained shard but lets it
/// finish its queue: it retires with strictly less work than it carries in
/// the undrained run, and nothing is lost.
#[test]
fn a_mid_run_drain_finishes_the_queue_then_retires() {
    let config = FleetConfig::uniform(model(), 3).with_balancer(LoadBalancerKind::RoundRobin);
    let undrained = serve(&config, &Scenario::b2(), &ServeSpec::default(), &mut Off);
    let policy = Autoscaler::none().with_scheduled_drain(800_000, 2);
    let drained = elastic(&config, &Scenario::b2(), policy, FailurePlan::none());
    assert!(drained.conserves_requests());
    assert_eq!(drained.lost, 0, "draining loses nothing");
    assert_eq!(drained.shards[2].state, ShardState::Retired);
    assert!(
        drained.shards[2].issued < undrained.shards[2].issued,
        "the drained shard must stop admitting mid-run ({} !< {})",
        drained.shards[2].issued,
        undrained.shards[2].issued
    );
    // Retirement comes after the drain began, never before.
    let drain_at = drained
        .scale_events
        .iter()
        .find(|e| e.kind == ScaleEventKind::Drain)
        .expect("drain event")
        .at_sec;
    let retire_at = drained
        .scale_events
        .iter()
        .find(|e| e.kind == ScaleEventKind::Retire)
        .expect("retire event")
        .at_sec;
    assert!(retire_at >= drain_at);
}

/// The drain floor: a forced drain that would leave fewer than
/// `max(min_shards, 1)` active shards is refused outright.
#[test]
fn drains_below_the_policy_floor_are_refused() {
    let config = FleetConfig::uniform(model(), 1);
    let policy = Autoscaler::none().with_scheduled_drain(0, 0);
    let report = elastic(&config, &Scenario::a1(), policy, FailurePlan::none());
    assert!(
        report.scale_events.is_empty(),
        "the last shard cannot drain"
    );
    assert_eq!(report.shards[0].state, ShardState::Active);
    assert!(report.completed > 0);
}

/// Warm-up shards contribute zero throughput until filled: with a warm-up
/// longer than the whole run, the spawned shard never serves and the
/// serving statistics equal the unscaled fleet's.
#[test]
fn a_warming_shard_contributes_nothing_until_filled() {
    let config = FleetConfig::uniform(model(), 1);
    let baseline = serve(&config, &Scenario::b2(), &ServeSpec::default(), &mut Off);
    let policy = Autoscaler::reactive(1, 2)
        .with_scale_up_queue_depth(2)
        .with_warmup_us(3_600_000_000) // an hour: never warms in a 2.5 s run
        .with_idle_retire_us(0);
    let report = elastic(&config, &Scenario::b2(), policy, FailurePlan::none());
    assert!(report.conserves_requests());
    assert_eq!(report.shard_count(), 2, "pressure must have spawned");
    assert_eq!(report.shards[1].state, ShardState::Warming);
    assert_eq!(report.shards[1].issued, 0, "warming shards take no traffic");
    assert_eq!(report.shards[1].completed, 0);
    // Everything the user observes matches the unscaled single device.
    assert_eq!(report.latency, baseline.latency);
    assert_eq!(report.completed, baseline.completed);
    assert_eq!(report.dropped, baseline.dropped);
    assert_eq!(report.shards[0].issued, baseline.shards[0].issued);
}

/// Once the warm-up elapses, the same spawned shard serves — the
/// difference between this run and the never-warms run above is exactly
/// the warm-up knob.
#[test]
fn a_warmed_shard_serves_and_cuts_the_tail() {
    let config = FleetConfig::uniform(model(), 1);
    let baseline = serve(&config, &Scenario::b2(), &ServeSpec::default(), &mut Off);
    let policy = Autoscaler::reactive(1, 2)
        .with_scale_up_queue_depth(2)
        .with_warmup_us(30_000)
        .with_idle_retire_us(0);
    let report = elastic(&config, &Scenario::b2(), policy, FailurePlan::none());
    assert!(report.conserves_requests());
    assert_eq!(report.shard_count(), 2);
    assert!(report.shards[1].completed > 0, "warmed shard must serve");
    assert!(
        report.latency.p99_ms < baseline.latency.p99_ms,
        "elastic p99 {} !< static p99 {}",
        report.latency.p99_ms,
        baseline.latency.p99_ms
    );
    // The lifecycle log shows spawn strictly before warm.
    let up_at = report
        .scale_events
        .iter()
        .find(|e| e.kind == ScaleEventKind::Up)
        .expect("up event")
        .at_sec;
    let warm_at = report
        .scale_events
        .iter()
        .find(|e| e.kind == ScaleEventKind::Warm)
        .expect("warm event")
        .at_sec;
    assert!((warm_at - up_at - 0.03).abs() < 1e-9, "warm-up is the knob");
}

/// Idle retirement drains the fleet back down once a quiet tail follows
/// the burst, but never below the policy floor.
#[test]
fn idle_shards_retire_down_to_the_floor() {
    let config = FleetConfig::uniform(model(), 4).with_balancer(LoadBalancerKind::LeastLoaded);
    // a1 per-shard load is a single 10 Hz session: four shards are
    // massively over-provisioned, so idle retirement should shed some.
    let policy = Autoscaler::reactive(2, 4)
        .with_scale_up_queue_depth(0)
        .with_idle_retire_us(50_000);
    let report = elastic(&config, &Scenario::a1(), policy, FailurePlan::none());
    assert!(report.conserves_requests());
    let retired = report
        .shards
        .iter()
        .filter(|s| s.state == ShardState::Retired)
        .count();
    let active = report
        .shards
        .iter()
        .filter(|s| s.state == ShardState::Active)
        .count();
    assert!(retired >= 1, "an over-provisioned fleet must shed shards");
    assert!(active >= 2, "retirement must respect min_shards");
    assert_eq!(report.lost, 0);
}

/// A failure with a reactive policy spawns a replacement that warms and
/// serves: the fleet self-heals back to the floor.
#[test]
fn failures_trigger_replacement_spawns_back_to_the_floor() {
    let config = FleetConfig::uniform(model(), 2).with_balancer(LoadBalancerKind::LeastLoaded);
    let policy = Autoscaler::reactive(2, 4)
        .with_scale_up_queue_depth(0) // isolate the replacement path
        .with_warmup_us(25_000)
        .with_idle_retire_us(0);
    let report = elastic(
        &config,
        &Scenario::b2_failover(2),
        policy,
        FailurePlan::scheduled(&[(1_000_000, 0)]),
    );
    assert!(report.conserves_requests());
    assert_eq!(report.shard_count(), 3, "one replacement for one failure");
    assert_eq!(report.shards[0].state, ShardState::Failed);
    assert_eq!(report.shards[2].state, ShardState::Active);
    assert!(report.shards[2].completed > 0, "the replacement must serve");
    // Fail, up and warm appear in order in the lifecycle log.
    let kinds: Vec<ScaleEventKind> = report.scale_events.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            ScaleEventKind::Fail,
            ScaleEventKind::Up,
            ScaleEventKind::Warm
        ]
    );
}

/// The warm-up penalty binds even when the warming shard is the only
/// placement target: after the whole fleet dies, orphans and new arrivals
/// queue on the warming replacement and nothing completes before its
/// weight fill ends — a longer warm-up strictly delays the recovery.
/// (Regression: spawned shards once started with `free_at_us = 0`, so
/// work queued during warm-up dispatched retroactively at pre-warm
/// timestamps and the warm-up length changed nothing.)
#[test]
fn orphans_on_a_warming_replacement_wait_out_the_weight_fill() {
    let config = FleetConfig::uniform(model(), 1);
    let run = |warmup_us: u64| {
        let policy = Autoscaler::reactive(1, 1)
            .with_scale_up_queue_depth(0)
            .with_warmup_us(warmup_us)
            .with_idle_retire_us(0);
        let plan = FailurePlan::scheduled(&[(1_100_000, 0)]);
        elastic(&config, &Scenario::b2(), policy, plan)
    };
    let quick = run(1_000);
    let slow = run(400_000);
    assert!(quick.conserves_requests() && slow.conserves_requests());
    for report in [&quick, &slow] {
        assert_eq!(report.lost, 0, "the warming replacement holds the queue");
        assert!(report.replaced > 0, "orphans must land on the replacement");
        assert_eq!(report.shard_count(), 2);
        assert_eq!(report.shards[1].state, ShardState::Active);
    }
    assert_ne!(quick, slow, "the warm-up length must be observable");
    assert!(
        slow.makespan_sec > quick.makespan_sec,
        "a 400 ms weight fill must finish later than a 1 ms one ({} !> {})",
        slow.makespan_sec,
        quick.makespan_sec
    );
    assert!(slow.latency.max_ms > quick.latency.max_ms);
    // The warm events land exactly one warm-up after the kill.
    let warm_at = |r: &ServeReport| {
        r.scale_events
            .iter()
            .find(|e| e.kind == ScaleEventKind::Warm)
            .expect("warm event")
            .at_sec
    };
    assert!((warm_at(&quick) - 1.101).abs() < 1e-9);
    assert!((warm_at(&slow) - 1.5).abs() < 1e-9);
}
