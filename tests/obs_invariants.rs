//! Observability invariants: tracing observes, it never disturbs.
//!
//! The contract the `fcad-obs` layer rides on: attaching a trace sink to
//! the serving engine changes *nothing* about the simulation — the
//! `ServeReport` JSON line is byte-identical with the default `Off` sink
//! and with a full `Recorder` attached, across every scheduler × balancer
//! × scenario cell of the suite. On top of that, fixed seed ⇒
//! byte-identical trace artefacts (Chrome trace, windowed metrics), the
//! recorded story matches the report's books (via
//! `check_trace_against_report`), and the exporters produce structurally
//! valid JSON even through failure and autoscale churn.

use fcad_serve::{
    chrome_trace, serve, validate_json, AdmissionKind, Autoscaler, FailurePlan, FleetConfig,
    FlightRecorder, LoadBalancerKind, Off, Recorder, Scenario, SchedulerKind, ServeSpec,
    TraceEvent, Windowed,
};

mod common;

use common::{check_trace_against_report, three_branch_model as model};

/// A fixed-fleet spec under `kind` and `admission`.
fn spec(kind: SchedulerKind, admission: AdmissionKind) -> ServeSpec {
    ServeSpec {
        scheduler: kind,
        admission,
        ..ServeSpec::default()
    }
}

fn traced_cell(
    shards: usize,
    balancer: LoadBalancerKind,
    scenario: &Scenario,
    kind: SchedulerKind,
    admission: AdmissionKind,
) -> (fcad_serve::ServeReport, Recorder) {
    let config = FleetConfig::uniform(model(), shards).with_balancer(balancer);
    let mut recorder = Recorder::new();
    let report = serve(&config, scenario, &spec(kind, admission), &mut recorder);
    (report, recorder)
}

#[test]
fn recording_never_changes_the_report_across_the_whole_grid() {
    // Every scheduler × balancer × suite-scenario cell (plus the QoS
    // burst): the Off-sink report and the Recorder-sink report must
    // render byte-identically.
    let mut scenarios = Scenario::suite();
    scenarios.push(Scenario::b2_qos());
    for scenario in &scenarios {
        for &kind in SchedulerKind::all() {
            for &balancer in LoadBalancerKind::all() {
                let config = FleetConfig::uniform(model(), 2).with_balancer(balancer);
                let budget = spec(kind, AdmissionKind::BudgetAware);
                let off = serve(&config, scenario, &budget, &mut Off);
                let (traced, recorder) =
                    traced_cell(2, balancer, scenario, kind, AdmissionKind::BudgetAware);
                assert_eq!(
                    off.to_json_line(),
                    traced.to_json_line(),
                    "{} × {:?} × {:?}: tracing must be observation-only",
                    scenario.name,
                    kind,
                    balancer
                );
                assert!(!recorder.is_empty(), "{}: empty trace", scenario.name);
                check_trace_against_report(recorder.events(), &traced);
            }
        }
    }
}

#[test]
fn fixed_seed_gives_byte_identical_trace_artefacts() {
    let scenario = Scenario::b2_qos();
    let run = || {
        let (_, recorder) = traced_cell(
            2,
            LoadBalancerKind::LeastLoaded,
            &scenario,
            SchedulerKind::PriorityByBranch,
            AdmissionKind::BudgetAware,
        );
        let trace = chrome_trace(recorder.events());
        let mut windowed = Windowed::new(50_000);
        recorder.replay(&mut windowed);
        let metrics = windowed.finish().to_json_lines();
        let flight = FlightRecorder::from_events(recorder.events(), 8).to_table();
        (trace, metrics, flight)
    };
    let (trace_a, metrics_a, flight_a) = run();
    let (trace_b, metrics_b, flight_b) = run();
    assert_eq!(trace_a, trace_b, "chrome trace must be deterministic");
    assert_eq!(metrics_a, metrics_b, "metrics must be deterministic");
    assert_eq!(flight_a, flight_b, "flight table must be deterministic");
}

#[test]
fn exporters_emit_structurally_valid_json() {
    let (report, recorder) = traced_cell(
        2,
        LoadBalancerKind::LeastLoaded,
        &Scenario::b2_qos(),
        SchedulerKind::PriorityByBranch,
        AdmissionKind::BudgetAware,
    );
    let trace = chrome_trace(recorder.events());
    validate_json(&trace).expect("chrome trace is valid JSON");
    let mut windowed = Windowed::new(50_000);
    recorder.replay(&mut windowed);
    for line in windowed.finish().to_json_lines().lines() {
        validate_json(line).expect("every metrics line is valid JSON");
    }
    validate_json(&report.with_trace_summary(recorder.summary()).to_json_line())
        .expect("report line with trace_summary tail is valid JSON");
}

#[test]
fn failure_and_autoscale_churn_lands_on_the_trace_timeline() {
    // The availability path: kills and spawns must be mirrored as fleet
    // instants, every dispatch must respect the lifecycle intervals, and
    // the books must still match through replacement/loss.
    let scenario = Scenario::b2_failover(2);
    let config = FleetConfig::uniform(model(), 2).with_balancer(LoadBalancerKind::LeastLoaded);
    let churn = ServeSpec {
        autoscaler: Autoscaler::reactive(2, 4)
            .with_scale_up_queue_depth(3)
            .with_warmup_us(25_000)
            .with_cooldown_us(80_000),
        failures: FailurePlan::scheduled(&[(1_500_000, 1)]),
        ..ServeSpec::default()
    };
    let mut recorder = Recorder::new();
    let traced = serve(&config, &scenario, &churn, &mut recorder);
    let untraced = serve(&config, &scenario, &churn, &mut Off);
    assert_eq!(
        untraced.to_json_line(),
        traced.to_json_line(),
        "tracing must be observation-only through failures"
    );
    assert!(
        !traced.scale_events.is_empty(),
        "the kill must appear in the lifecycle log"
    );
    let fleet_instants = recorder.fleet_events().count();
    assert_eq!(
        fleet_instants,
        traced.scale_events.len(),
        "every scale event must be mirrored on the trace"
    );
    check_trace_against_report(recorder.events(), &traced);
    validate_json(&chrome_trace(recorder.events())).expect("chrome trace is valid JSON");
}

#[test]
fn flight_recorder_keeps_the_worst_and_the_failed() {
    let (report, recorder) = traced_cell(
        1,
        LoadBalancerKind::RoundRobin,
        &Scenario::b2_qos(),
        SchedulerKind::PriorityByBranch,
        AdmissionKind::BudgetAware,
    );
    assert!(report.shed > 0, "the burst must shed for this test to bite");
    let worst_k = 5;
    let flight = FlightRecorder::from_events(recorder.events(), worst_k);
    let table = flight.to_table();
    let completed_rows = flight
        .timelines
        .iter()
        .filter(|t| t.outcome == "completed")
        .count() as u64;
    let failed_rows = flight.timelines.len() as u64 - completed_rows;
    assert_eq!(
        completed_rows,
        (worst_k as u64).min(report.completed),
        "exactly the K worst completions are retained"
    );
    assert_eq!(
        failed_rows,
        report.dropped + report.lost + report.shed,
        "every non-completed request is retained"
    );
    assert!(table.contains("shed"), "the table names the outcome");
    // Completed rows are sorted worst-latency-first.
    let latencies: Vec<u64> = flight
        .timelines
        .iter()
        .filter_map(|t| t.latency_us)
        .collect();
    assert!(
        latencies.windows(2).all(|w| w[0] >= w[1]),
        "worst completions come sorted by latency"
    );
}

#[test]
fn replayed_sinks_see_the_events_in_recording_order() {
    let (_, recorder) = traced_cell(
        2,
        LoadBalancerKind::AffinityFirst,
        &Scenario::b1(),
        SchedulerKind::BatchAggregating,
        AdmissionKind::AdmitAll,
    );
    let mut copy = Recorder::new();
    recorder.replay(&mut copy);
    assert_eq!(recorder.events(), copy.events(), "replay preserves order");
    assert_eq!(recorder.summary(), copy.summary());
    // Monotonicity the windower depends on: every non-Complete event's
    // timestamp never decreases (completions are stamped in the future).
    let mut last = 0u64;
    for event in recorder.events() {
        if let TraceEvent::Request(e) = event {
            if matches!(e.kind, fcad_serve::RequestEventKind::Complete { .. }) {
                continue;
            }
        }
        assert!(event.at_us() >= last, "monotone timeline");
        last = event.at_us();
    }
}
