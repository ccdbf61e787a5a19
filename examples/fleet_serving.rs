//! Fleet serving: scale a DSE-optimized codec-avatar accelerator from one
//! device to a sharded fleet and watch the burst tail collapse.
//!
//! Optimizes the decoder once (ZU17EG, Table IV Case 2), then serves the
//! `b2` mixed-priority burst scenario on 1/2/4/8-shard fleets under
//! least-loaded balancing, printing one machine-readable JSON `ServeReport`
//! line per fleet size; finally a balancer head-to-head (round-robin vs
//! least-loaded vs affinity-first vs branch-sharded) on a fixed 4-shard
//! fleet shows where placement policy matters.
//!
//! Run with: `cargo run --release --example fleet_serving`

use fcad::{serve, Customization, DseParams, Fcad, LoadBalancerKind, Off, Scenario, ServeSpec};
use fcad_accel::Platform;
use fcad_nnir::models::targeted_decoder;
use fcad_nnir::Precision;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let result = Fcad::new(targeted_decoder(), Platform::zu17eg())
        .with_customization(Customization::codec_avatar(Precision::Int8))
        .with_dse_params(DseParams::fast())
        .run()?;
    println!(
        "design: {:.1} FPS min-branch, {:.1}% efficiency — b2 burst scenario across fleet sizes:",
        result.min_fps(),
        result.efficiency() * 100.0
    );

    // Fixed load, growing fleet: the single-device b2 chaos scenario on
    // 1/2/4/8 shards. More shards must cut the tail.
    // Batch-aggregating dispatch, admit-all, no autoscaling: the default
    // spec on every fleet.
    let spec = ServeSpec::default();
    let chaos = Scenario::b2();
    let mut p99_by_shards = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let config = result
            .fleet_config(shards)
            .with_balancer(LoadBalancerKind::LeastLoaded);
        let report = serve(&config, &chaos, &spec, &mut Off);
        assert!(report.conserves_requests());
        p99_by_shards.push((shards, report.latency.p99_ms));
        println!("{}", report.to_json_line());
    }
    let (_, one_shard_p99) = p99_by_shards[0];
    for (shards, p99) in &p99_by_shards[1..] {
        assert!(
            *p99 < one_shard_p99,
            "{shards} shards p99 {p99} ms did not improve on one shard's {one_shard_p99} ms"
        );
    }
    println!(
        "burst p99: 1 shard {:.1} ms -> 2 shards {:.1} ms -> 4 shards {:.1} ms -> 8 shards {:.1} ms",
        p99_by_shards[0].1, p99_by_shards[1].1, p99_by_shards[2].1, p99_by_shards[3].1
    );

    // Balancer head-to-head on a 4-shard fleet carrying 4× the b2 load
    // (five bursty sessions per shard).
    let fleet_chaos = Scenario::b2_fleet(4);
    println!("\nbalancer head-to-head on {}:", fleet_chaos.name);
    for &balancer in LoadBalancerKind::all() {
        let config = result.fleet_config(4).with_balancer(balancer);
        let report = serve(&config, &fleet_chaos, &spec, &mut Off);
        assert!(report.conserves_requests());
        println!(
            "{:<14} p50 {:>7.1} ms  p99 {:>7.1} ms  drop {:>5.1}%  utilization {:>5.1}%  imbalance {:.2}",
            report.balancer,
            report.latency.p50_ms,
            report.latency.p99_ms,
            report.drop_rate * 100.0,
            report.utilization * 100.0,
            report.imbalance
        );
    }
    Ok(())
}
