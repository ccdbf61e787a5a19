//! Benchmarks the QoS serve stack: the mixed-class `b2_qos` burst on a
//! DSE-optimized ZU17EG decoder under the weighted cross-class scheduler,
//! once per admission policy — the admit-all path must stay at the legacy
//! engine's cost (the QoS layer is free when unused), and the shedding
//! policies are timed against it.

use criterion::{criterion_group, criterion_main, Criterion};
use fcad_accel::Platform;
use fcad_nnir::Precision;
use fcad_serve::{serve, simulate, AdmissionKind, Off, Scenario, SchedulerKind, ServeSpec};

fn bench(c: &mut Criterion) {
    // Optimize the design once; benches time only the serving simulation.
    let result = fcad_bench::run_case(&Platform::zu17eg(), Precision::Int8, false);
    let model = result.service_model();
    let config = result.fleet_config(1);
    let scenario = Scenario::b2_qos();
    let weighted = |admission| ServeSpec {
        scheduler: SchedulerKind::PriorityByBranch,
        admission,
        ..ServeSpec::default()
    };

    let budget = serve(
        &config,
        &scenario,
        &weighted(AdmissionKind::BudgetAware),
        &mut Off,
    );
    println!("{}", budget.to_json_line());

    c.bench_function(&format!("qos/{}/legacy_classless", scenario.name), |b| {
        b.iter(|| simulate(&model, &scenario, SchedulerKind::PriorityByBranch))
    });
    for &admission in AdmissionKind::all() {
        c.bench_function(
            &format!("qos/{}/{}", scenario.name, admission.name()),
            |b| {
                let spec = weighted(admission);
                b.iter(|| serve(&config, &scenario, &spec, &mut Off))
            },
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
