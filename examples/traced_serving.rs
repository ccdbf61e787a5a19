//! Observability walkthrough: one traced QoS serving run, three exports.
//!
//! Optimizes the decoder once (ZU17EG, Table IV Case 2), then serves the
//! `b2_qos` burst under the weighted scheduler and budget-aware admission
//! with a recording trace sink attached. The recorder captures every
//! request lifecycle event (arrival, admission verdict, enqueue, service
//! start, terminal outcome) plus batch dispatches — all stamped with
//! simulation time — and feeds the three exporters:
//!
//! 1. **Chrome trace** — `trace_event` JSON loadable in Perfetto or
//!    `chrome://tracing`, one track per shard plus fabric batch tracks;
//! 2. **windowed metrics** — fixed-interval JSON lines with queue depth,
//!    utilization, per-class backlog and rolling p50/p99;
//! 3. **flight recorder** — full timelines of the worst-latency and
//!    non-completed requests, printed as a postmortem table.
//!
//! Asserts the observability contract: tracing is observation-only (the
//! traced report is byte-identical to the untraced one), the trace is
//! non-empty, and both JSON exports round-trip the `validate_json`
//! structural checker.
//!
//! Run with: `cargo run --release --example traced_serving`

use fcad::{
    chrome_trace, serve, validate_json, AdmissionKind, Customization, DseParams, Fcad,
    FlightRecorder, Off, Recorder, Scenario, SchedulerKind, ServeSpec, Windowed,
};
use fcad_accel::Platform;
use fcad_nnir::models::targeted_decoder;
use fcad_nnir::Precision;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let result = Fcad::new(targeted_decoder(), Platform::zu17eg())
        .with_customization(Customization::codec_avatar(Precision::Int8))
        .with_dse_params(DseParams::fast())
        .run()?;
    let scenario = Scenario::b2_qos();
    let device = result.fleet_config(1);
    let spec = ServeSpec {
        scheduler: SchedulerKind::PriorityByBranch,
        admission: AdmissionKind::BudgetAware,
        ..ServeSpec::default()
    };

    // One traced run; the untraced twin pins the observation-only claim.
    let mut recorder = Recorder::new();
    let traced = serve(&device, &scenario, &spec, &mut recorder);
    let untraced = serve(&device, &scenario, &spec, &mut Off);
    assert_eq!(traced, untraced, "tracing must not perturb the simulation");
    assert!(!recorder.is_empty(), "the run must produce trace events");
    println!(
        "{}",
        traced.with_trace_summary(recorder.summary()).to_json_line()
    );

    // Chrome trace: load the written file in Perfetto (ui.perfetto.dev)
    // or chrome://tracing to scrub through the run.
    let trace = chrome_trace(recorder.events());
    validate_json(&trace).map_err(|e| format!("chrome trace must be valid JSON: {e}"))?;
    println!(
        "\nchrome trace: {} events, {} bytes (write to a file and load in Perfetto)",
        recorder.summary().events,
        trace.len()
    );

    // Windowed metrics: 50 ms buckets over the whole run.
    let mut windowed = Windowed::new(50_000);
    recorder.replay(&mut windowed);
    let series = windowed.finish();
    let metrics = series.to_json_lines();
    for line in metrics.lines() {
        validate_json(line).map_err(|e| format!("metrics line must be valid JSON: {e}"))?;
    }
    println!(
        "windowed metrics: {} windows of {} µs",
        series.windows.len(),
        series.interval_us
    );
    let busiest = series
        .windows
        .iter()
        .max_by_key(|w| w.queue_depth_end)
        .expect("non-empty run has at least one window");
    println!(
        "deepest backlog: window {} (queue depth {}, p99 {:.1} ms, utilization {:.2})",
        busiest.index, busiest.queue_depth_end, busiest.p99_ms, busiest.utilization
    );

    // Flight recorder: the 5 worst completions plus every request that
    // never completed, as a postmortem table.
    let flight = FlightRecorder::from_events(recorder.events(), 5);
    println!("\n{}", flight.to_table());
    Ok(())
}
