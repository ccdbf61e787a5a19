//! Pins the engine rebuild's throughput: simulated events per wall-clock
//! second for the frozen pre-rebuild loop (`fcad_serve::reference`),
//! `serve` at one worker (`rebuilt`) and the windowed engine at 8 workers,
//! on the fleet suite at 64 shards (where the reference's per-iteration
//! linear scans dominate) plus a downscaled metropolis. Each comparison
//! prints a machine-readable JSON line with the measured events/sec and
//! the speedup over the reference, and the coupled metropolis cell adds a
//! `parallel_speedup` line (8 workers over one, with the host's core
//! count) — CI uploads this output as an artifact.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use fcad_serve::{
    reference, serve, simulate_windowed, AdmissionKind, Autoscaler, BranchService, DeadlinePolicy,
    FailurePlan, FleetConfig, Off, Scenario, SchedulerKind, ServeReport, ServeSpec, ServiceModel,
    WindowPlan,
};

const SHARDS: usize = 64;
const PARALLEL_WORKERS: usize = 8;

/// The three-branch bench model (no DSE run needed): two visual branches
/// and a cheap low-priority audio-like branch, the same shape the test
/// suites use.
fn model() -> ServiceModel {
    ServiceModel {
        branches: vec![
            BranchService {
                name: "geometry".to_owned(),
                frame_time_us: 9_000,
                fill_time_us: 8_000,
                max_batch: 1,
                priority: 1.0,
            },
            BranchService {
                name: "texture".to_owned(),
                frame_time_us: 5_000,
                fill_time_us: 7_000,
                max_batch: 2,
                priority: 1.0,
            },
            BranchService {
                name: "audio".to_owned(),
                frame_time_us: 1_500,
                fill_time_us: 2_000,
                max_batch: 4,
                priority: 0.2,
            },
        ],
    }
}

/// Simulated events of one run: every arrival plus every completion.
fn sim_events(report: &ServeReport) -> u64 {
    report.issued + report.completed
}

/// A static fleet on the windowed engine at `PARALLEL_WORKERS` workers.
fn windowed_static(config: &FleetConfig, scenario: &Scenario, kind: SchedulerKind) -> ServeReport {
    simulate_windowed(
        config,
        scenario,
        kind,
        &Autoscaler::none(),
        &FailurePlan::none(),
        AdmissionKind::AdmitAll,
        DeadlinePolicy::Off,
        &WindowPlan::new(PARALLEL_WORKERS),
    )
}

/// `serve` at one worker on `config` with every other axis at its default
/// except the discipline and the deadline policy.
fn rebuilt(
    config: &FleetConfig,
    scenario: &Scenario,
    kind: SchedulerKind,
    deadline: DeadlinePolicy,
) -> ServeReport {
    let spec = ServeSpec {
        scheduler: kind,
        deadline,
        ..ServeSpec::default()
    };
    serve(config, scenario, &spec, &mut Off)
}

fn timed<F: FnMut() -> ServeReport>(mut run: F) -> (f64, ServeReport) {
    let start = Instant::now();
    let report = run();
    (start.elapsed().as_secs_f64().max(1e-9), report)
}

fn print_comparison(scenario: &str, events: u64, reference_sec: f64, engine: &str, sec: f64) {
    println!(
        "{{\"bench\":\"sim_events_per_sec\",\"scenario\":\"{scenario}\",\"engine\":\"{engine}\",\
         \"sim_events\":{events},\"events_per_sec\":{:.0},\"speedup_vs_reference\":{:.2}}}",
        events as f64 / sec,
        reference_sec / sec,
    );
}

fn bench(c: &mut Criterion) {
    let model = model();
    let kind = SchedulerKind::BatchAggregating;
    for scenario in Scenario::fleet_suite(SHARDS) {
        let config = FleetConfig::uniform(model.clone(), SHARDS);
        let (ref_sec, ref_report) = timed(|| reference::simulate_fleet(&config, &scenario, kind));
        let off = DeadlinePolicy::Off;
        let (seq_sec, seq_report) = timed(|| rebuilt(&config, &scenario, kind, off));
        let (par_sec, par_report) = timed(|| windowed_static(&config, &scenario, kind));
        assert_eq!(ref_report.to_json_line(), seq_report.to_json_line());
        assert_eq!(ref_report.to_json_line(), par_report.to_json_line());
        let events = sim_events(&ref_report);
        print_comparison(&scenario.name, events, ref_sec, "reference", ref_sec);
        print_comparison(&scenario.name, events, ref_sec, "rebuilt", seq_sec);
        print_comparison(&scenario.name, events, ref_sec, "parallel8", par_sec);
        c.bench_function(&format!("sim_events/{}/reference", scenario.name), |b| {
            b.iter(|| reference::simulate_fleet(&config, &scenario, kind))
        });
        c.bench_function(&format!("sim_events/{}/rebuilt", scenario.name), |b| {
            b.iter(|| rebuilt(&config, &scenario, kind, off))
        });
        c.bench_function(&format!("sim_events/{}/parallel8", scenario.name), |b| {
            b.iter(|| windowed_static(&config, &scenario, kind))
        });
    }

    // The deadline cell: EDF dispatch on the mixed-class burst fleet.
    // Culling off is byte-identical to the frozen reference loop; the
    // culling run has no reference twin (the frozen engine predates the
    // policy), so it prints throughput against the same baseline only.
    let qos = Scenario::b2_qos();
    let edf = SchedulerKind::Deadline;
    let config = FleetConfig::uniform(model.clone(), SHARDS);
    let (ref_sec, ref_report) = timed(|| reference::simulate_fleet(&config, &qos, edf));
    let cull = DeadlinePolicy::CullExpired;
    let (off_sec, off_report) = timed(|| rebuilt(&config, &qos, edf, DeadlinePolicy::Off));
    let (cull_sec, cull_report) = timed(|| rebuilt(&config, &qos, edf, cull));
    assert_eq!(ref_report.to_json_line(), off_report.to_json_line());
    assert!(cull_report.conserves_requests());
    let events = sim_events(&ref_report);
    print_comparison("b2_qos_deadline", events, ref_sec, "reference", ref_sec);
    print_comparison("b2_qos_deadline", events, ref_sec, "deadline_off", off_sec);
    print_comparison(
        "b2_qos_deadline",
        sim_events(&cull_report),
        ref_sec,
        "deadline_cull",
        cull_sec,
    );
    c.bench_function("sim_events/b2_qos_deadline/deadline_cull", |b| {
        b.iter(|| rebuilt(&config, &qos, edf, cull))
    });

    // Metropolis, downscaled so the reference loop stays affordable in one
    // bench run; the full 1.05 M-session workload lives in the release
    // scale test (`tests/engine_scale.rs`).
    let metropolis = Scenario::metropolis().with_sessions(100_000);
    let config = FleetConfig::uniform(model.clone(), 256);
    let (ref_sec, ref_report) = timed(|| reference::simulate_fleet(&config, &metropolis, kind));
    let off = DeadlinePolicy::Off;
    let (seq_sec, seq_report) = timed(|| rebuilt(&config, &metropolis, kind, off));
    let (par_sec, par_report) = timed(|| windowed_static(&config, &metropolis, kind));
    assert_eq!(ref_report.to_json_line(), seq_report.to_json_line());
    assert_eq!(ref_report.to_json_line(), par_report.to_json_line());
    let events = sim_events(&ref_report);
    print_comparison("metropolis_100k", events, ref_sec, "reference", ref_sec);
    print_comparison("metropolis_100k", events, ref_sec, "rebuilt", seq_sec);
    print_comparison("metropolis_100k", events, ref_sec, "parallel8", par_sec);
    c.bench_function("sim_events/metropolis_100k/parallel8", |b| {
        b.iter(|| windowed_static(&config, &metropolis, kind))
    });

    // The windowed cell: a *coupled* metropolis — the fleet scales from
    // 192 toward 256 shards under queue pressure (those spans run
    // sequentially), then the terminal phase executes in windows. Every
    // run is byte-identical. Two gates, each against the windows-disabled
    // driver, whose fan-out threshold no window clears, so every event
    // steps through `EngineCore::step`: `serve` at one worker must clear
    // 2× (the window path's per-event advantage, no parallelism), and so
    // must the windowed run at 8 workers. The `parallel_speedup` row — 8
    // workers over one, same window shape — separates the parallel gain
    // from the per-event one, next to the host's core count.
    let policy = Autoscaler::reactive(192, 256)
        .with_cooldown_us(0)
        .with_idle_retire_us(0);
    let config = FleetConfig::uniform(model.clone(), 192);
    let none = FailurePlan::none();
    let (ref_sec, ref_report) = timed(|| {
        reference::simulate_autoscaled_qos(
            &config,
            &metropolis,
            kind,
            &policy,
            &none,
            AdmissionKind::AdmitAll,
        )
    });
    let spec = ServeSpec {
        autoscaler: policy.clone(),
        ..ServeSpec::default()
    };
    let (one_sec, one_report) = timed(|| serve(&config, &metropolis, &spec, &mut Off));
    let windowed = |plan: &WindowPlan| {
        simulate_windowed(
            &config,
            &metropolis,
            kind,
            &policy,
            &none,
            AdmissionKind::AdmitAll,
            DeadlinePolicy::Off,
            plan,
        )
    };
    let sequential = WindowPlan::new(1).with_min_parallel_events(usize::MAX);
    let (seq_sec, seq_report) = timed(|| windowed(&sequential));
    let plan = WindowPlan::new(PARALLEL_WORKERS).with_window_us(400_000);
    let (win_sec, win_report) = timed(|| windowed(&plan));
    assert_eq!(ref_report.to_json_line(), one_report.to_json_line());
    assert_eq!(ref_report.to_json_line(), seq_report.to_json_line());
    assert_eq!(ref_report.to_json_line(), win_report.to_json_line());
    assert!(
        seq_sec / one_sec >= 2.0,
        "serve at one worker must clear 2x over the windows-disabled driver \
         (got {:.2}x)",
        seq_sec / one_sec
    );
    assert!(
        seq_sec / win_sec >= 2.0,
        "windowed8 must clear 2x over the windows-disabled driver \
         (got {:.2}x)",
        seq_sec / win_sec
    );
    let events = sim_events(&ref_report);
    let cell = "metropolis_100k_autoscaled";
    print_comparison(cell, events, ref_sec, "reference", ref_sec);
    print_comparison(cell, events, ref_sec, "sequential", seq_sec);
    print_comparison(cell, events, ref_sec, "rebuilt", one_sec);
    print_comparison(cell, events, ref_sec, "windowed8", win_sec);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "{{\"bench\":\"parallel_speedup\",\"scenario\":\"{cell}\",\"workers\":{PARALLEL_WORKERS},\
         \"cores\":{cores},\"one_worker_sec\":{one_sec:.4},\"workers_sec\":{win_sec:.4},\
         \"speedup\":{:.2}}}",
        one_sec / win_sec,
    );
    c.bench_function("sim_events/metropolis_100k_autoscaled/windowed8", |b| {
        b.iter(|| windowed(&plan))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
