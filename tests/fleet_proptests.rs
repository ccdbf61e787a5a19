//! Property-based tests of the fleet serving engine: bit-exact determinism
//! for a fixed seed, request conservation across every shard, exact
//! histogram merging, and percentile monotonicity — over randomized
//! scenario parameters, shard counts, balancing policies and disciplines —
//! plus seeded failure-time fuzzing of the dynamic-fleet layer (fixed seed
//! ⇒ bit-identical report, shard counts inside the policy bounds, and the
//! post-failure tail still monotone).

use fcad_serve::{
    serve, Autoscaler, FailurePlan, FleetConfig, FleetEventKind, LoadBalancerKind, Off, ServeSpec,
};
use proptest::prelude::*;

mod common;

use common::{
    pattern_strategy, prop_scenario as scenario, scheduler_strategy, spec_for,
    three_branch_model as model,
};

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

    /// Same seed + same fleet + same scenario ⇒ bit-identical `ServeReport`.
    #[test]
    fn same_seed_and_fleet_give_identical_reports(
        seed in 0u64..10_000,
        sessions in 1usize..8,
        rate in 5usize..40,
        capacity in 8usize..128,
        shards in 1usize..5,
        arrival in pattern_strategy(),
        kind in scheduler_strategy(),
        balancer in balancer_strategy(),
    ) {
        let scenario = scenario(seed, sessions, rate, capacity, arrival);
        let config = FleetConfig::uniform(model(), shards).with_balancer(balancer);
        let a = serve(&config, &scenario, &spec_for(kind), &mut Off);
        let b = serve(&config, &scenario, &spec_for(kind), &mut Off);
        prop_assert_eq!(a, b);
    }

    /// Completed + dropped == issued, in total, per branch and per shard —
    /// even with tiny queues forcing drops — and every request is routed
    /// to exactly one shard.
    #[test]
    fn requests_are_conserved_across_every_shard(
        seed in 0u64..10_000,
        sessions in 1usize..10,
        rate in 5usize..60,
        capacity in 4usize..64,
        shards in 1usize..6,
        arrival in pattern_strategy(),
        kind in scheduler_strategy(),
        balancer in balancer_strategy(),
    ) {
        let scenario = scenario(seed, sessions, rate, capacity, arrival);
        let config = FleetConfig::uniform(model(), shards).with_balancer(balancer);
        let report = serve(&config, &scenario, &spec_for(kind), &mut Off);
        prop_assert!(report.conserves_requests());
        prop_assert_eq!(report.shard_count(), shards);
        prop_assert_eq!(
            report.issued,
            report.shards.iter().map(|s| s.issued).sum::<u64>()
        );
        prop_assert_eq!(
            report.dropped,
            report.shards.iter().map(|s| s.dropped).sum::<u64>()
        );
        prop_assert!(report.utilization <= 1.0 + 1e-9);
        for shard in &report.shards {
            prop_assert!(shard.utilization <= 1.0 + 1e-9);
        }
    }

    /// The fleet-wide latency histogram is the exact merge of the shard
    /// histograms: its count (completed requests) equals the sum of the
    /// per-shard counts, and its max bounds every shard's max.
    #[test]
    fn merged_histogram_counts_match_the_shard_sums(
        seed in 0u64..10_000,
        sessions in 1usize..8,
        rate in 5usize..40,
        capacity in 8usize..96,
        shards in 1usize..5,
        arrival in pattern_strategy(),
        kind in scheduler_strategy(),
        balancer in balancer_strategy(),
    ) {
        let scenario = scenario(seed, sessions, rate, capacity, arrival);
        let config = FleetConfig::uniform(model(), shards).with_balancer(balancer);
        let report = serve(&config, &scenario, &spec_for(kind), &mut Off);
        prop_assert_eq!(
            report.completed,
            report.shards.iter().map(|s| s.completed).sum::<u64>()
        );
        for shard in &report.shards {
            prop_assert!(report.latency.max_ms >= shard.latency.max_ms);
        }
        prop_assert!(
            (report.latency.max_ms
                - report
                    .shards
                    .iter()
                    .map(|s| s.latency.max_ms)
                    .fold(0.0f64, f64::max))
            .abs()
                < 1e-9,
            "merged max must be the max of the shard maxima"
        );
    }

    /// Percentiles are monotone — p99 ≥ p95 ≥ p50 — for the merged report,
    /// every branch, and every shard.
    #[test]
    fn percentiles_are_monotone_everywhere(
        seed in 0u64..10_000,
        sessions in 1usize..8,
        rate in 5usize..50,
        capacity in 8usize..128,
        shards in 1usize..5,
        arrival in pattern_strategy(),
        kind in scheduler_strategy(),
        balancer in balancer_strategy(),
    ) {
        let scenario = scenario(seed, sessions, rate, capacity, arrival);
        let config = FleetConfig::uniform(model(), shards).with_balancer(balancer);
        let report = serve(&config, &scenario, &spec_for(kind), &mut Off);
        let monotone = |p50: f64, p95: f64, p99: f64| p99 >= p95 && p95 >= p50;
        prop_assert!(monotone(
            report.latency.p50_ms,
            report.latency.p95_ms,
            report.latency.p99_ms
        ));
        for branch in &report.branches {
            prop_assert!(monotone(
                branch.latency.p50_ms,
                branch.latency.p95_ms,
                branch.latency.p99_ms
            ));
        }
        for shard in &report.shards {
            prop_assert!(monotone(
                shard.latency.p50_ms,
                shard.latency.p95_ms,
                shard.latency.p99_ms
            ));
        }
    }

    /// Seeded failure-time fuzzing: an autoscaled run with seeded kills is
    /// a pure function of its seed (bit-identical reports), the alive
    /// shard count reconstructed from the lifecycle log never leaves the
    /// policy's `[min_shards, max_shards]` band, conservation holds with
    /// the `lost` column in the books, and the percentile ladder stays
    /// monotone after the failure.
    #[test]
    fn seeded_failures_stay_deterministic_bounded_and_conserving(
        seed in 0u64..10_000,
        sessions in 2usize..8,
        rate in 10usize..40,
        capacity in 8usize..64,
        shards in 1usize..4,
        kills in 1usize..3,
        arrival in pattern_strategy(),
        kind in scheduler_strategy(),
        balancer in balancer_strategy(),
    ) {
        let scenario = scenario(seed, sessions, rate, capacity, arrival);
        let config = FleetConfig::uniform(model(), shards).with_balancer(balancer);
        let max_shards = shards + 2;
        let spec = ServeSpec {
            autoscaler: Autoscaler::reactive(shards, max_shards)
                .with_scale_up_queue_depth(5)
                .with_warmup_us(20_000)
                .with_cooldown_us(60_000)
                .with_idle_retire_us(250_000),
            failures: FailurePlan::seeded(seed ^ 0x5EED, kills, 1_000_000),
            ..spec_for(kind)
        };
        let a = serve(&config, &scenario, &spec, &mut Off);
        let b = serve(&config, &scenario, &spec, &mut Off);
        prop_assert_eq!(&a, &b, "fixed seed must give a bit-identical report");
        prop_assert!(a.conserves_requests());
        // Replay the lifecycle log: alive = initial + ups − (fails + retires),
        // grouped by instant because a failure and its replacement spawn
        // land at the same timestamp.
        let mut alive = shards as i64;
        let mut index = 0;
        let events = &a.scale_events;
        while index < events.len() {
            let at_us = events[index].at_us;
            while index < events.len() && events[index].at_us == at_us {
                match events[index].kind {
                    FleetEventKind::Up => alive += 1,
                    FleetEventKind::Fail | FleetEventKind::Retire => alive -= 1,
                    FleetEventKind::Warm | FleetEventKind::Drain => {}
                }
                index += 1;
            }
            prop_assert!(
                alive <= max_shards as i64,
                "alive {} exceeded max_shards {} at {} µs",
                alive, max_shards, at_us
            );
            prop_assert!(
                alive >= shards as i64,
                "alive {} dropped below min_shards {} at {} µs",
                alive, shards, at_us
            );
        }
        // The post-failure percentile ladder stays monotone (it is all
        // zeros only if the kill outlived the traffic).
        let post = &a.latency_post_failure;
        prop_assert!(post.p99_ms >= post.p95_ms && post.p95_ms >= post.p50_ms);
        prop_assert!(post.max_ms + 1e-9 >= post.p99_ms);
        let pre = &a.latency_pre_failure;
        prop_assert!(pre.p99_ms >= pre.p95_ms && pre.p95_ms >= pre.p50_ms);
    }
}
