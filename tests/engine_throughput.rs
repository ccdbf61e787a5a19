//! The engine's two wall-clock gates, on the coupled autoscaled
//! metropolis: 100k sessions on a round-robin fleet that scales from 192
//! toward 256 shards under queue pressure (those spans run sequentially),
//! then runs its terminal phase in windows. Both gates compare against
//! the windows-disabled driver, whose fan-out threshold no window clears,
//! so every event steps through `EngineCore::step`:
//!
//! - `serve` at one worker must clear 2× (the window path's per-event
//!   advantage, no parallelism);
//! - so must the windowed engine at 8 workers.
//!
//! Each gate is a ratio of two runs on the same host, so it holds on any
//! host class. The `parallel_speedup` line (8 workers over one, same
//! window shape) keeps the parallel gain apart from the per-event one,
//! next to the host's core count. This binary holds only this test, so no
//! sibling test uses the cores while it times. Release-only; run it with
//! `cargo test --release --test engine_throughput -- --nocapture`.

mod common;

use std::time::Instant;

use common::three_branch_model;
use fcad_serve::{
    serve, simulate_windowed, AdmissionKind, Autoscaler, DeadlinePolicy, FailurePlan, FleetConfig,
    Off, Scenario, SchedulerKind, ServeReport, ServeSpec, WindowPlan,
};

const PARALLEL_WORKERS: usize = 8;

/// Wall-clock seconds of one run, with its report.
fn timed<F: FnOnce() -> ServeReport>(run: F) -> (f64, ServeReport) {
    let start = Instant::now();
    let report = run();
    (start.elapsed().as_secs_f64().max(1e-9), report)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "wall-clock gates are release-only (debug heaps + debug_asserts skew the ratios)"
)]
fn serve_and_windowed8_each_clear_2x_over_the_windows_disabled_driver() {
    let metropolis = Scenario::metropolis().with_sessions(100_000);
    let kind = SchedulerKind::BatchAggregating;
    let policy = Autoscaler::reactive(192, 256)
        .with_cooldown_us(0)
        .with_idle_retire_us(0);
    let config = FleetConfig::uniform(three_branch_model(), 192);
    let none = FailurePlan::none();
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
    assert_eq!(one_report.to_json_line(), seq_report.to_json_line());
    assert_eq!(one_report.to_json_line(), win_report.to_json_line());

    let cell = "metropolis_100k_autoscaled";
    println!(
        "{cell}: serve at one worker {:.2}x, windowed{PARALLEL_WORKERS} {:.2}x over the \
         windows-disabled driver ({seq_sec:.4} s)",
        seq_sec / one_sec,
        seq_sec / win_sec,
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "{{\"bench\":\"parallel_speedup\",\"scenario\":\"{cell}\",\"workers\":{PARALLEL_WORKERS},\
         \"cores\":{cores},\"one_worker_sec\":{one_sec:.4},\"workers_sec\":{win_sec:.4},\
         \"speedup\":{:.2}}}",
        one_sec / win_sec,
    );
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
}
