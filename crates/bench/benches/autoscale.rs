//! Benchmarks the dynamic-fleet engine: the stretched `b2_failover` burst
//! on a six-shard least-loaded fleet of a DSE-optimized ZU17EG decoder —
//! fixed healthy, fixed with a triple mid-burst kill, and reactive
//! autoscaling healing the same kill.

use criterion::{criterion_group, criterion_main, Criterion};
use fcad_accel::Platform;
use fcad_nnir::Precision;
use fcad_serve::{
    serve, Autoscaler, FailurePlan, FleetConfig, LoadBalancerKind, Off, Scenario, ServeSpec,
};

fn bench(c: &mut Criterion) {
    // Optimize the design once; benches time only the serving simulation.
    let result = fcad_bench::run_case(&Platform::zu17eg(), Precision::Int8, false);
    let model = result.service_model();
    let scenario = Scenario::b2_failover(1);
    let config = FleetConfig::uniform(model, 6).with_balancer(LoadBalancerKind::LeastLoaded);
    let kills = FailurePlan::scheduled(&[(1_100_000, 1), (1_150_000, 2), (1_200_000, 3)]);
    let policy = Autoscaler::reactive(6, 8)
        .with_scale_up_queue_depth(4)
        .with_warmup_us(25_000)
        .with_cooldown_us(80_000)
        .with_idle_retire_us(0);

    let static_kill = ServeSpec {
        failures: kills.clone(),
        ..ServeSpec::default()
    };
    let reactive_kill = ServeSpec {
        autoscaler: policy,
        failures: kills,
        ..ServeSpec::default()
    };

    let healed = serve(&config, &scenario, &reactive_kill, &mut Off);
    println!("{}", healed.to_json_line());

    c.bench_function(&format!("autoscale/{}/fixed", scenario.name), |b| {
        b.iter(|| serve(&config, &scenario, &ServeSpec::default(), &mut Off))
    });
    c.bench_function(
        &format!("autoscale/{}/triple_kill_static", scenario.name),
        |b| b.iter(|| serve(&config, &scenario, &static_kill, &mut Off)),
    );
    c.bench_function(
        &format!("autoscale/{}/triple_kill_reactive", scenario.name),
        |b| b.iter(|| serve(&config, &scenario, &reactive_kill, &mut Off)),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
