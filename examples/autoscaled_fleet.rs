//! Availability under churn: kill three shards mid-burst and watch the
//! autoscaler heal the fleet.
//!
//! Optimizes the decoder once (ZU17EG, Table IV Case 2), then serves the
//! stretched `b2_failover` burst scenario on a six-shard least-loaded
//! fleet three ways:
//!
//! 1. **fixed, healthy** — the PR 3 static fleet, no failure (baseline);
//! 2. **fixed, shards 1–3 killed at 1.10/1.15/1.20 s** — half the fleet
//!    gone, the survivors run over capacity and the post-failure tail
//!    never comes back;
//! 3. **autoscaled, same kills** — the reactive policy replaces every
//!    dead shard (25 ms weight-fill warm-up each) and spawns further on
//!    queue pressure, so the re-placed sessions' tail recovers.
//!
//! One machine-readable JSON `ServeReport` line per run, then a recovery
//! table and the elastic fleet's lifecycle log. Asserts the headline
//! claim: with autoscaling, the p99 of the completions *after* the first
//! failure returns to within 2× of the pre-failure p99 — while the static
//! fleet's post-failure p99 runs beyond 2× of its own pre-failure tail.
//!
//! Run with: `cargo run --release --example autoscaled_fleet`

use fcad::{
    serve, Autoscaler, Customization, DseParams, FailurePlan, Fcad, LoadBalancerKind, Off,
    Scenario, ServeSpec,
};
use fcad_accel::Platform;
use fcad_nnir::models::targeted_decoder;
use fcad_nnir::Precision;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let result = Fcad::new(targeted_decoder(), Platform::zu17eg())
        .with_customization(Customization::codec_avatar(Precision::Int8))
        .with_dse_params(DseParams::fast())
        .run()?;
    println!(
        "design: {:.1} FPS min-branch, {:.1}% efficiency — b2 failover on a 6-shard fleet:",
        result.min_fps(),
        result.efficiency() * 100.0
    );

    let scenario = Scenario::b2_failover(1); // five bursty sessions, 4 s
    let shards = 6;
    let config = result
        .fleet_config(shards)
        .with_balancer(LoadBalancerKind::LeastLoaded);
    let kills = FailurePlan::scheduled(&[(1_100_000, 1), (1_150_000, 2), (1_200_000, 3)]);
    let policy = Autoscaler::reactive(shards, shards + 2)
        .with_scale_up_queue_depth(4)
        .with_warmup_us(25_000)
        .with_cooldown_us(80_000)
        .with_idle_retire_us(0);

    // Batch-aggregating dispatch and admit-all throughout; the runs differ
    // only in the autoscaler and the failure plan.
    let healthy = serve(&config, &scenario, &ServeSpec::default(), &mut Off);
    let static_kills = ServeSpec {
        failures: kills.clone(),
        ..ServeSpec::default()
    };
    let static_failed = serve(&config, &scenario, &static_kills, &mut Off);
    let elastic_kills = ServeSpec {
        autoscaler: policy,
        failures: kills,
        ..ServeSpec::default()
    };
    let elastic_failed = serve(&config, &scenario, &elastic_kills, &mut Off);
    for report in [&healthy, &static_failed, &elastic_failed] {
        assert!(report.conserves_requests());
        println!("{}", report.to_json_line());
    }

    println!("\nrecovery (shards 1-3 killed at 1.10-1.20 s):");
    println!(
        "{:<20} {:>7} {:>12} {:>13} {:>13} {:>8} {:>9}",
        "fleet", "shards", "availability", "pre-fail p99", "post-fail p99", "max", "re-placed"
    );
    for (name, report) in [
        ("fixed, healthy", &healthy),
        ("fixed, failed", &static_failed),
        ("autoscaled, failed", &elastic_failed),
    ] {
        println!(
            "{:<20} {:>7} {:>11.1}% {:>10.1} ms {:>10.1} ms {:>5.0} ms {:>9}",
            name,
            report.shard_count(),
            report.availability * 100.0,
            report.latency_pre_failure.p99_ms,
            report.latency_post_failure.p99_ms,
            report.latency.max_ms,
            report.replaced
        );
    }
    for event in &elastic_failed.scale_events {
        println!(
            "  t={:>6.3}s {:<6} shard {} ({} active)",
            event.at_us as f64 / 1e6,
            event.kind.name(),
            event.shard,
            event.active_after
        );
    }

    // The headline recovery claim. Deterministic run, so these are exact
    // regression pins, not statistical hopes: elastic pre 126 ms / post
    // 174 ms (1.4×), static pre 126 ms / post 436 ms (3.5×).
    let pre = elastic_failed.latency_pre_failure.p99_ms;
    let post = elastic_failed.latency_post_failure.p99_ms;
    assert!(
        pre > 0.0 && post > 0.0,
        "both failure windows must complete work"
    );
    assert!(
        post <= 2.0 * pre,
        "autoscaled post-failure p99 {post} ms did not return within 2x of pre-failure {pre} ms"
    );
    assert!(
        static_failed.latency_post_failure.p99_ms > 2.0 * static_failed.latency_pre_failure.p99_ms,
        "the static fleet should not recover within 2x — its survivors are over capacity"
    );
    // The healed fleet serves near the healthy baseline; the static one
    // does not get close.
    assert!(elastic_failed.latency.p99_ms <= 1.5 * healthy.latency.p99_ms);
    assert!(elastic_failed.latency.max_ms < static_failed.latency.max_ms);
    assert!(
        elastic_failed.replaced > 0,
        "orphans must re-place via the balancer"
    );
    assert!(elastic_failed.availability > 0.999);
    println!(
        "\npost-failure p99 {:.1} ms <= 2x pre-failure p99 {:.1} ms: the fleet healed \
         (static fleet stuck at {:.1} ms)",
        post, pre, static_failed.latency_post_failure.p99_ms
    );
    Ok(())
}
