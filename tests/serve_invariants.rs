//! Repo-level invariants of the serving layer on a real DSE-optimized
//! design: request conservation, percentile sanity, the priority-vs-FIFO
//! acceptance criterion, and bounded starvation under priority scheduling.

use fcad::{
    serve, Customization, DseParams, Fcad, FcadResult, Off, Scenario, SchedulerKind, ServeReport,
    ServeSpec,
};
use fcad_accel::Platform;
use fcad_nnir::models::targeted_decoder;
use fcad_nnir::Precision;

fn optimized() -> FcadResult {
    Fcad::new(targeted_decoder(), Platform::zu17eg())
        .with_customization(Customization::codec_avatar(Precision::Int8))
        .with_dse_params(DseParams::fast())
        .run()
        .expect("decoder flow succeeds")
}

/// `scenario` on one shard of `result`'s design under `kind`, every other
/// axis at its default.
fn single(result: &FcadResult, scenario: &Scenario, kind: SchedulerKind) -> ServeReport {
    let spec = ServeSpec {
        scheduler: kind,
        ..ServeSpec::default()
    };
    serve(&result.fleet_config(1), scenario, &spec, &mut Off)
}

#[test]
fn every_scheduler_conserves_requests_across_the_suite() {
    let result = optimized();
    for scenario in Scenario::suite() {
        for &kind in SchedulerKind::all() {
            let report = single(&result, &scenario, kind);
            assert!(
                report.conserves_requests(),
                "{} / {}: {} + {} != {}",
                report.scenario,
                report.scheduler,
                report.completed,
                report.dropped,
                report.issued
            );
            assert!(report.issued > 0);
            assert!(report.utilization <= 1.0 + 1e-9);
            assert!(
                report.latency.p99_ms >= report.latency.p50_ms,
                "{}: p99 {} < p50 {}",
                report.scenario,
                report.latency.p99_ms,
                report.latency.p50_ms
            );
        }
    }
}

#[test]
fn fanout_scenario_shows_tail_latency_above_the_median() {
    let result = optimized();
    let report = single(&result, &Scenario::a2(5), SchedulerKind::BatchAggregating);
    // Five sessions oversubscribe the fabric: the tail must be real (not a
    // degenerate single-bucket distribution) and above the median.
    assert!(report.latency.p99_ms >= report.latency.p50_ms);
    assert!(
        report.latency.p99_ms > report.latency.p50_ms * 1.2,
        "fan-out tail {} ms too close to median {} ms",
        report.latency.p99_ms,
        report.latency.p50_ms
    );
    assert!(report.dropped > 0, "fan-out overload must shed load");
}

#[test]
fn priority_scheduling_beats_fifo_for_high_priority_branches_under_chaos() {
    let result = optimized();
    let chaos = Scenario::b2();
    let fifo = single(&result, &chaos, SchedulerKind::Fifo);
    let priority = single(&result, &chaos, SchedulerKind::PriorityByBranch);
    // Branches 0 and 1 carry priority 1.0 (visual); branch 2 is the
    // low-priority audio-like stream.
    for branch in 0..2 {
        assert!(
            priority.branches[branch].latency.p99_ms < fifo.branches[branch].latency.p99_ms,
            "branch {branch}: priority p99 {} !< fifo p99 {}",
            priority.branches[branch].latency.p99_ms,
            fifo.branches[branch].latency.p99_ms
        );
    }
}

#[test]
fn priority_scheduling_does_not_starve_the_low_priority_branch() {
    let result = optimized();
    let chaos = Scenario::b2();
    let report = single(&result, &chaos, SchedulerKind::PriorityByBranch);
    let low = &report.branches[2];
    let high = &report.branches[0];
    // The low-priority branch keeps completing work under sustained
    // contention…
    assert!(
        low.completed > low.issued / 4,
        "low-priority branch completed only {} of {}",
        low.completed,
        low.issued
    );
    // …and aging bounds how far its tail can drift behind the protected
    // branches.
    assert!(
        low.latency.p99_ms <= 5.0 * high.latency.p99_ms,
        "low-priority p99 {} ms vs high-priority {} ms",
        low.latency.p99_ms,
        high.latency.p99_ms
    );
}

#[test]
fn batching_never_loses_to_fifo_on_makespan() {
    let result = optimized();
    for scenario in Scenario::suite() {
        let fifo = single(&result, &scenario, SchedulerKind::Fifo);
        let batch = single(&result, &scenario, SchedulerKind::BatchAggregating);
        assert!(
            batch.makespan_sec <= fifo.makespan_sec + 1e-9,
            "{}: batch makespan {} > fifo {}",
            scenario.name,
            batch.makespan_sec,
            fifo.makespan_sec
        );
    }
}

#[test]
fn serve_reports_render_valid_single_line_json() {
    let result = optimized();
    let line = single(&result, &Scenario::a1(), SchedulerKind::BatchAggregating).to_json_line();
    assert!(!line.contains('\n'));
    assert!(line.starts_with('{') && line.ends_with('}'));
    // Balanced braces/brackets — a cheap structural validity check that
    // needs no JSON parser.
    assert_eq!(line.matches('{').count(), line.matches('}').count());
    assert_eq!(line.matches('[').count(), line.matches(']').count());
}
