//! SLO attainment under admission control: the same QoS burst served
//! three ways.
//!
//! Optimizes the decoder once (ZU17EG, Table IV Case 2), then serves the
//! `b2_qos` burst — eight sessions, half of them interactive with a
//! 100 ms frame budget, whose interactive demand alone oversubscribes one
//! accelerator during the on-windows — under the weighted cross-class
//! scheduler with each admission policy:
//!
//! 1. **admit-all** — the legacy front door: the bounded queue drops
//!    whoever arrives last, interactive queueing explodes during bursts,
//!    and interactive SLO attainment collapses;
//! 2. **queue-threshold** — lower tiers are turned away at 50 %/75 %
//!    occupancy, which keeps the queue shallower but still admits more
//!    interactive work than the deadline can absorb;
//! 3. **budget-aware** — a request whose projected completion already
//!    misses its class budget is rejected on arrival, so the admitted
//!    interactive population overwhelmingly lands inside 100 ms.
//!
//! One machine-readable JSON `ServeReport` line per run, then a per-class
//! attainment table. Asserts the headline claim: budget-aware admission
//! keeps interactive SLO attainment ≥ 0.95 under the burst while
//! admit-all collapses below it.
//!
//! Run with: `cargo run --release --example qos_serving`

use fcad::{
    serve, AdmissionKind, Customization, DseParams, Fcad, Off, QosClass, Scenario, SchedulerKind,
    ServeSpec,
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
    let interactive_sessions = (0..scenario.sessions)
        .filter(|&s| scenario.session_class(s) == QosClass::Interactive)
        .count();
    println!(
        "design: {:.1} FPS min-branch — {} under the weighted scheduler \
         ({} of {} sessions interactive, 100 ms budget):",
        result.min_fps(),
        scenario.name,
        interactive_sessions,
        scenario.sessions
    );

    let device = result.fleet_config(1);
    let reports: Vec<_> = AdmissionKind::all()
        .iter()
        .map(|&admission| {
            let spec = ServeSpec {
                scheduler: SchedulerKind::PriorityByBranch,
                admission,
                ..ServeSpec::default()
            };
            let report = serve(&device, &scenario, &spec, &mut Off);
            assert!(report.conserves_requests());
            println!("{}", report.to_json_line());
            (admission, report)
        })
        .collect();

    println!("\nper-class SLO attainment (fraction of completions inside the class budget):");
    println!(
        "{:<16} {:>6} {:>6} {:>12} {:>10} {:>10} {:>12}",
        "admission", "compl", "shed", "interactive", "standard", "best-eff", "inter. p99"
    );
    for (admission, report) in &reports {
        let row = |class: QosClass| report.class(class).expect("class row").slo_attainment;
        println!(
            "{:<16} {:>6} {:>6} {:>11.1}% {:>9.1}% {:>9.1}% {:>9.1} ms",
            admission.name(),
            report.completed,
            report.shed,
            row(QosClass::Interactive) * 100.0,
            row(QosClass::Standard) * 100.0,
            row(QosClass::BestEffort) * 100.0,
            report
                .class(QosClass::Interactive)
                .expect("interactive row")
                .latency
                .p99_ms
        );
    }

    // The headline claim. Deterministic run, so these are exact
    // regression pins, not statistical hopes.
    let attainment = |kind: AdmissionKind| {
        reports
            .iter()
            .find(|(a, _)| *a == kind)
            .expect("admission run")
            .1
            .class(QosClass::Interactive)
            .expect("interactive row")
            .slo_attainment
    };
    let admit_all = attainment(AdmissionKind::AdmitAll);
    let budget_aware = attainment(AdmissionKind::BudgetAware);
    assert!(
        budget_aware >= 0.95,
        "budget-aware interactive attainment {budget_aware} must hold the 95% SLO under the burst"
    );
    assert!(
        admit_all < 0.95,
        "admit-all interactive attainment {admit_all} should collapse under the burst"
    );
    let shed_total = reports
        .iter()
        .find(|(a, _)| *a == AdmissionKind::BudgetAware)
        .expect("budget-aware run")
        .1
        .shed;
    assert!(shed_total > 0, "budget-aware must actually shed");
    println!(
        "\nbudget-aware keeps interactive attainment at {:.1}% (>= 95%) where admit-all \
         collapses to {:.1}%",
        budget_aware * 100.0,
        admit_all * 100.0
    );
    Ok(())
}
