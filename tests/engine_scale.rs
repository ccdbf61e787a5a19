//! The metropolis scale test: 1.05 M sessions (3.15 M requests) across a
//! 256-shard fleet, executed by the windowed engine. Release-only — the
//! debug build carries the engine's conservation `debug_assert!`s and
//! unoptimized heaps, so the test is `#[ignore]`d there and CI runs it
//! with `cargo test --release`.

mod common;

use std::time::{Duration, Instant};

use common::three_branch_model;
use fcad_serve::{
    simulate_windowed, AdmissionKind, Autoscaler, DeadlinePolicy, FailurePlan, FleetConfig,
    LoadBalancerKind, Scenario, SchedulerKind, WindowPlan,
};

/// Generous CI ceiling; the release build finishes far below it, and a
/// regression back to per-iteration linear scans blows straight past it.
const WALL_CLOCK_CEILING: Duration = Duration::from_secs(30);

const SHARDS: usize = 256;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "metropolis is a release-only scale test (debug heaps + debug_asserts are ~10× slower)"
)]
fn metropolis_completes_in_seconds_and_conserves() {
    let scenario = Scenario::metropolis();
    let config = FleetConfig::uniform(three_branch_model(), SHARDS);
    let workers = std::thread::available_parallelism().map_or(4, usize::from);
    let start = Instant::now();
    let report = simulate_windowed(
        &config,
        &scenario,
        SchedulerKind::BatchAggregating,
        &Autoscaler::none(),
        &FailurePlan::none(),
        AdmissionKind::AdmitAll,
        DeadlinePolicy::Off,
        &WindowPlan::new(workers),
    );
    let elapsed = start.elapsed();

    assert!(
        report.conserves_requests(),
        "metropolis must conserve requests"
    );
    // 1.05 M sessions × 1 frame × 3 branches.
    assert_eq!(report.issued, 3_150_000);
    assert_eq!(report.sessions, 1_050_000);
    assert_eq!(report.shards.len(), SHARDS);
    assert!(report.completed > 0, "the fleet must complete work");
    assert!(
        elapsed < WALL_CLOCK_CEILING,
        "metropolis took {elapsed:?} (ceiling {WALL_CLOCK_CEILING:?}) at {workers} workers"
    );
    println!(
        "metropolis: {} issued / {} completed across {SHARDS} shards in {elapsed:?} ({workers} workers)",
        report.issued, report.completed
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "metropolis is a release-only scale test (debug heaps + debug_asserts are ~10× slower)"
)]
fn metropolis_is_worker_count_invariant_at_scale() {
    // A downscaled metropolis (same stagger arithmetic, same class mix)
    // keeps the cross-worker bit-identity check affordable at 256 shards.
    let scenario = Scenario::metropolis().with_sessions(100_000);
    let mut config = FleetConfig::uniform(three_branch_model(), SHARDS);
    config.balancer = LoadBalancerKind::BranchSharded;
    let baseline = simulate_windowed(
        &config,
        &scenario,
        SchedulerKind::Fifo,
        &Autoscaler::none(),
        &FailurePlan::none(),
        AdmissionKind::AdmitAll,
        DeadlinePolicy::Off,
        &WindowPlan::new(1),
    );
    for workers in [2usize, 8, 32] {
        let parallel = simulate_windowed(
            &config,
            &scenario,
            SchedulerKind::Fifo,
            &Autoscaler::none(),
            &FailurePlan::none(),
            AdmissionKind::AdmitAll,
            DeadlinePolicy::Off,
            &WindowPlan::new(workers),
        );
        assert_eq!(
            baseline.to_json_line(),
            parallel.to_json_line(),
            "worker count {workers} diverged at metropolis scale"
        );
    }
}
