//! Benchmarks the fleet serving engine: the b2 burst scenario swept over
//! 1/2/4/8-shard fleets of a DSE-optimized ZU17EG decoder accelerator
//! (fixed load, so the sweep shows shards collapsing the tail), plus a
//! balancer head-to-head on the 4-shard fleet at 4× load.

use criterion::{criterion_group, criterion_main, Criterion};
use fcad_accel::Platform;
use fcad_nnir::Precision;
use fcad_serve::{serve, FleetConfig, LoadBalancerKind, Off, Scenario, ServeSpec};

fn bench(c: &mut Criterion) {
    // Optimize the design once; benches time only the fleet simulation.
    let result = fcad_bench::run_case(&Platform::zu17eg(), Precision::Int8, false);
    let model = result.service_model();
    let chaos = Scenario::b2();
    for shards in [1usize, 2, 4, 8] {
        let config = FleetConfig::uniform(model.clone(), shards)
            .with_balancer(LoadBalancerKind::LeastLoaded);
        let report = serve(&config, &chaos, &ServeSpec::default(), &mut Off);
        println!("{}", report.to_json_line());
        c.bench_function(
            &format!("fleet/{}/{}shards/least_loaded", chaos.name, shards),
            |b| b.iter(|| serve(&config, &chaos, &ServeSpec::default(), &mut Off)),
        );
    }
    let fleet_chaos = Scenario::b2_fleet(4);
    for &balancer in LoadBalancerKind::all() {
        let config = FleetConfig::uniform(model.clone(), 4).with_balancer(balancer);
        c.bench_function(
            &format!("fleet/{}/4shards/{}", fleet_chaos.name, balancer.name()),
            |b| b.iter(|| serve(&config, &fleet_chaos, &ServeSpec::default(), &mut Off)),
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
