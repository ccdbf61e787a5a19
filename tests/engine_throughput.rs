//! The engine's wall-clock ratios on the coupled autoscaled metropolis:
//! 100k sessions on a round-robin fleet that scales from 192 toward 256
//! shards under queue pressure (those spans run sequentially), then runs
//! its terminal phase in windows. It times three runs: `serve` at one
//! worker, the windowed engine at 8 workers and the windows-disabled
//! driver, whose zero-length plan opens no window, so every event steps
//! through `EngineCore::step`. The three reports must be byte-identical.
//! It prints both ratios over the windows-disabled driver and a
//! `parallel_speedup` line (8 workers over one, same window shape) next
//! to the host's core count, which keeps the parallel gain apart from the
//! per-event one.
//!
//! The ratios are printed, not gated. Their denominator is code that the
//! engine's own speed-ups make faster: the running Active-queue total
//! took a fleet-wide scan off every stepped arrival and sped the
//! windows-disabled driver up more than `serve`, so a 2x ratio gate
//! rejected it. The window path's promises are pinned instead as exact
//! work counts on this same cell, in tier-1 (`fcad-serve`'s
//! `window::tests`): shard reads bounded per window edge and lifecycle
//! event, one tally per worker, every arrival placed by the dense path,
//! nine tenths of all events in windows. `PERF_LEDGER.json`'s rows remain
//! the wall-clock gate. This binary holds only this test, so no sibling
//! test uses the cores while it times. Release-only; run it with
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
    ignore = "wall-clock ratios are release-only (debug heaps + debug_asserts skew them)"
)]
fn serve_and_windowed8_match_the_windows_disabled_driver_and_print_their_ratios() {
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
    let sequential = WindowPlan::new(1).with_window_us(0);
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
}
