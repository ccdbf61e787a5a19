//! Starvation and balancing regressions under the b2 burst scenario:
//! affinity-first placement must keep every branch progressing with a
//! bounded worst-case wait, least-loaded placement must beat round-robin's
//! tail whenever the fleet is not perfectly symmetric, and — with a shard
//! dying mid-burst — autoscaling with affinity spill must bound the worst
//! session wait the static fleet cannot.

use fcad_serve::{
    serve, Autoscaler, FailurePlan, FleetConfig, LoadBalancerKind, Off, Scenario, SchedulerKind,
    ServeSpec,
};

mod common;

use common::{spec_for, three_branch_model as model};

/// A fleet whose second half runs 3× slower than the first: the kind of
/// mixed-generation deployment where static round-robin placement queues
/// bursts on the slow devices.
fn mixed_generation_fleet(shards: usize, balancer: LoadBalancerKind) -> FleetConfig {
    let fast = model();
    let mut slow = model();
    for branch in &mut slow.branches {
        branch.frame_time_us *= 3;
        branch.fill_time_us *= 3;
    }
    let models = (0..shards)
        .map(|i| {
            if i < shards / 2 {
                fast.clone()
            } else {
                slow.clone()
            }
        })
        .collect();
    FleetConfig::heterogeneous(models).with_balancer(balancer)
}

#[test]
fn affinity_first_bounds_every_branch_wait_under_the_b2_burst() {
    for shards in [2usize, 4] {
        let scenario = Scenario::b2_fleet(shards);
        let config =
            FleetConfig::uniform(model(), shards).with_balancer(LoadBalancerKind::AffinityFirst);
        let spec = spec_for(SchedulerKind::PriorityByBranch);
        let report = serve(&config, &scenario, &spec, &mut Off);
        assert!(report.conserves_requests());
        // No session waits unboundedly: the worst wait across the whole
        // run stays within the makespan and under an absolute ceiling far
        // below the generation window's total span (observed ≈2.7 s).
        assert!(
            report.latency.max_ms <= report.makespan_sec * 1_000.0,
            "a wait outlived the run itself"
        );
        assert!(
            report.latency.max_ms < 4_000.0,
            "{shards} shards: max wait {} ms unbounded",
            report.latency.max_ms
        );
        for branch in &report.branches {
            // Every branch — including the 0.15-priority audio-like one —
            // keeps completing work under sustained burst contention.
            assert!(
                branch.completed > branch.issued / 4,
                "{shards} shards: branch {} starved ({}/{} completed)",
                branch.name,
                branch.completed,
                branch.issued
            );
            assert!(
                branch.latency.max_ms < 4_000.0,
                "{shards} shards: branch {} max wait {} ms unbounded",
                branch.name,
                branch.latency.max_ms
            );
        }
    }
}

#[test]
fn least_loaded_beats_round_robin_p99_on_a_mixed_generation_fleet() {
    // Round-robin keeps feeding the slow half of the fleet through the b2
    // bursts; least-loaded reads each shard's readiness and routes around it.
    // This holds for every discipline, at 2 and at 4 shards.
    for shards in [2usize, 4] {
        let scenario = Scenario::b2_fleet(shards);
        for &kind in SchedulerKind::all() {
            let round_robin = serve(
                &mixed_generation_fleet(shards, LoadBalancerKind::RoundRobin),
                &scenario,
                &spec_for(kind),
                &mut Off,
            );
            let least_loaded = serve(
                &mixed_generation_fleet(shards, LoadBalancerKind::LeastLoaded),
                &scenario,
                &spec_for(kind),
                &mut Off,
            );
            assert!(
                least_loaded.latency.p99_ms < round_robin.latency.p99_ms,
                "{shards} shards / {kind:?}: least-loaded p99 {} !< round-robin p99 {}",
                least_loaded.latency.p99_ms,
                round_robin.latency.p99_ms
            );
        }
    }
}

#[test]
fn least_loaded_beats_round_robin_p99_on_an_uneven_homogeneous_fleet() {
    // Five bursty sessions on three identical shards: round-robin's static
    // rotation leaves one shard hot while others idle; least-loaded
    // levels the backlog and cuts the tail.
    let scenario = Scenario::b2();
    let round_robin = serve(
        &FleetConfig::uniform(model(), 3).with_balancer(LoadBalancerKind::RoundRobin),
        &scenario,
        &ServeSpec::default(),
        &mut Off,
    );
    let least_loaded = serve(
        &FleetConfig::uniform(model(), 3).with_balancer(LoadBalancerKind::LeastLoaded),
        &scenario,
        &ServeSpec::default(),
        &mut Off,
    );
    assert!(
        least_loaded.latency.p99_ms < round_robin.latency.p99_ms,
        "least-loaded p99 {} !< round-robin p99 {}",
        least_loaded.latency.p99_ms,
        round_robin.latency.p99_ms
    );
}

#[test]
fn autoscale_with_spill_bounds_the_max_wait_a_failed_static_fleet_cannot() {
    // Ten bursty sessions on an affinity-spill two-shard fleet, shard 1
    // killed mid-burst at 1.1 s. The static survivor must absorb the
    // orphaned identities alone and its queue saturates; the reactive
    // policy spawns replacements (25 ms weight-fill warm-up each) and the
    // re-placed sessions drain. Thresholds pinned from the deterministic
    // run: static max wait ≈1397 ms with availability ≈0.50, elastic max
    // wait ≈940 ms with availability 1.0.
    let scenario = Scenario::b2_failover(2);
    let config = FleetConfig::uniform(model(), 2).with_balancer(LoadBalancerKind::AffinityFirst);
    let killed = ServeSpec {
        failures: FailurePlan::scheduled(&[(1_100_000, 1)]),
        ..ServeSpec::default()
    };
    let static_fleet = serve(&config, &scenario, &killed, &mut Off);
    let healing = ServeSpec {
        autoscaler: Autoscaler::reactive(2, 5)
            .with_scale_up_queue_depth(4)
            .with_warmup_us(25_000)
            .with_cooldown_us(80_000)
            .with_idle_retire_us(0),
        ..killed
    };
    let elastic = serve(&config, &scenario, &healing, &mut Off);
    assert!(static_fleet.conserves_requests());
    assert!(elastic.conserves_requests());
    // The static fleet's worst wait blows past the pinned ceiling the
    // elastic fleet stays under.
    assert!(
        static_fleet.latency.max_ms > 1_200.0,
        "static max wait {} ms unexpectedly low — retune the pin",
        static_fleet.latency.max_ms
    );
    assert!(
        elastic.latency.max_ms < 1_100.0,
        "elastic max wait {} ms breached the pinned bound",
        elastic.latency.max_ms
    );
    assert!(
        elastic.latency.max_ms < static_fleet.latency.max_ms,
        "elastic max {} !< static max {}",
        elastic.latency.max_ms,
        static_fleet.latency.max_ms
    );
    // Availability: the elastic fleet loses and drops nothing, the static
    // one sheds close to half the burst.
    assert_eq!(elastic.lost + elastic.dropped, 0);
    assert!(elastic.availability > 0.999);
    assert!(
        static_fleet.availability < 0.7,
        "static availability {} unexpectedly high — retune the pin",
        static_fleet.availability
    );
    // Both runs re-placed the dead shard's orphans through the balancer.
    assert!(static_fleet.replaced > 0);
    assert!(elastic.replaced > 0);
}
