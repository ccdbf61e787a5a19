//! Serving extension of the flow: turn an optimized design into a
//! multi-session telepresence serving simulation.
//!
//! `Fcad::run()?.serve(&scenario)` feeds the DSE-optimized design's
//! per-branch frame times (and the customization's branch priorities)
//! straight into the `fcad-serve` discrete-event simulator, answering the
//! question the static report cannot: what do N concurrent avatar sessions
//! actually experience on this accelerator?

use crate::flow::FcadResult;
use fcad_cyclesim::Simulator;
use fcad_serve::{
    simulate, simulate_autoscaled, simulate_autoscaled_qos, simulate_deadline, simulate_fleet,
    simulate_fleet_qos, simulate_qos, simulate_traced, simulate_windowed, AdmissionKind,
    Autoscaler, DeadlinePolicy, FailurePlan, FleetConfig, LoadBalancerKind, Scenario,
    SchedulerKind, ServeReport, ServiceModel, TraceSink, WindowPlan,
};

impl FcadResult {
    /// The analytical service model of the best design: per-branch frame
    /// times from the accelerator report (Eq. 5 throughput, critical-stage
    /// fill) and priorities from the customization.
    pub fn service_model(&self) -> ServiceModel {
        ServiceModel::from_report(self.report(), self.accelerator.frequency_hz())
            .with_priorities(&self.customization.priorities)
    }

    /// The cycle-level-calibrated service model: frame times measured by
    /// the `fcad-cyclesim` pipeline simulator (including weight-fetch
    /// stalls the analytical model ignores) at the given external-memory
    /// bandwidth.
    pub fn calibrated_service_model(&self, bandwidth_bytes_per_sec: f64) -> ServiceModel {
        let simulator = Simulator::for_accelerator(&self.accelerator, bandwidth_bytes_per_sec);
        let sim = simulator.simulate_accelerator(&self.accelerator, &self.dse.best_config);
        ServiceModel::from_simulation(&sim, self.accelerator.frequency_hz())
            .with_priorities(&self.customization.priorities)
    }

    /// Simulates serving `scenario` on the optimized design with the
    /// default batch-aggregating scheduler.
    pub fn serve(&self, scenario: &Scenario) -> ServeReport {
        self.serve_with(scenario, SchedulerKind::BatchAggregating)
    }

    /// Simulates serving `scenario` under an explicit scheduling
    /// discipline.
    pub fn serve_with(&self, scenario: &Scenario, kind: SchedulerKind) -> ServeReport {
        simulate(&self.service_model(), scenario, kind)
    }

    /// Simulates serving `scenario` under an explicit scheduling
    /// discipline *and* admission policy: the QoS entry point. Sessions
    /// draw their class from the scenario's class mix; the report scores
    /// each class against its budget (`slo_attainment`) and counts what
    /// the admission controller shed. [`AdmissionKind::AdmitAll`]
    /// reproduces [`FcadResult::serve_with`] bit for bit.
    pub fn serve_qos(
        &self,
        scenario: &Scenario,
        kind: SchedulerKind,
        admission: AdmissionKind,
    ) -> ServeReport {
        simulate_qos(&self.service_model(), scenario, kind, admission)
    }

    /// [`FcadResult::serve_qos`] under an explicit deadline policy. With
    /// [`DeadlinePolicy::CullExpired`] the dispatcher retires queued
    /// requests whose class budget has already elapsed — the `expired`
    /// outcome in the report — instead of spending fabric time completing
    /// dead frames; pair it with [`SchedulerKind::Deadline`] for
    /// earliest-deadline-first dispatch. [`DeadlinePolicy::Off`]
    /// reproduces [`FcadResult::serve_qos`] bit for bit.
    pub fn serve_deadline(
        &self,
        scenario: &Scenario,
        kind: SchedulerKind,
        admission: AdmissionKind,
        deadline: DeadlinePolicy,
    ) -> ServeReport {
        simulate_deadline(&self.service_model(), scenario, kind, admission, deadline)
    }

    /// [`FcadResult::serve_qos`] with every request lifecycle narrated
    /// into `sink` — the observability entry point. Pass a
    /// [`fcad_serve::Recorder`] and feed its events to the exporters
    /// (`chrome_trace`, `Windowed`, `FlightRecorder`); tracing is
    /// observation-only, so the returned report is byte-identical to the
    /// untraced [`FcadResult::serve_qos`] run.
    pub fn serve_qos_traced(
        &self,
        scenario: &Scenario,
        kind: SchedulerKind,
        admission: AdmissionKind,
        sink: &mut dyn TraceSink,
    ) -> ServeReport {
        simulate_traced(
            &self.fleet_config(1),
            scenario,
            kind,
            &Autoscaler::none(),
            &FailurePlan::none(),
            admission,
            sink,
        )
    }

    /// [`FcadResult::serve_with`] on the cycle-level-calibrated service
    /// model instead of the analytical one.
    pub fn serve_calibrated(
        &self,
        scenario: &Scenario,
        kind: SchedulerKind,
        bandwidth_bytes_per_sec: f64,
    ) -> ServeReport {
        simulate(
            &self.calibrated_service_model(bandwidth_bytes_per_sec),
            scenario,
            kind,
        )
    }

    /// A homogeneous fleet of `shards` copies of this design's analytical
    /// service model (round-robin until
    /// [`FleetConfig::with_balancer`] says otherwise).
    pub fn fleet_config(&self, shards: usize) -> FleetConfig {
        FleetConfig::uniform(self.service_model(), shards)
    }

    /// Simulates serving `scenario` on a fleet of `shards` copies of the
    /// optimized design under the given balancing policy and scheduling
    /// discipline. A one-shard fleet reproduces [`FcadResult::serve_with`]
    /// bit for bit (modulo the report's balancer name).
    pub fn serve_fleet(
        &self,
        scenario: &Scenario,
        shards: usize,
        balancer: LoadBalancerKind,
        kind: SchedulerKind,
    ) -> ServeReport {
        simulate_fleet(
            &self.fleet_config(shards).with_balancer(balancer),
            scenario,
            kind,
        )
    }

    /// [`FcadResult::serve_fleet`] under an explicit admission policy:
    /// the controller is consulted at every shard front door.
    /// [`AdmissionKind::AdmitAll`] reproduces [`FcadResult::serve_fleet`]
    /// bit for bit.
    pub fn serve_qos_fleet(
        &self,
        scenario: &Scenario,
        shards: usize,
        balancer: LoadBalancerKind,
        kind: SchedulerKind,
        admission: AdmissionKind,
    ) -> ServeReport {
        simulate_fleet_qos(
            &self.fleet_config(shards).with_balancer(balancer),
            scenario,
            kind,
            admission,
        )
    }

    /// Simulates serving `scenario` on a *dynamic* fleet that starts as
    /// `shards` copies of the optimized design: `policy` scales the fleet
    /// up and down at runtime (spawned shards pay a warm-up weight fill
    /// before serving) and `failures` kills shards mid-run, re-placing
    /// their orphaned sessions through the balancer. With
    /// [`Autoscaler::none`] and [`FailurePlan::none`] this reproduces
    /// [`FcadResult::serve_fleet`] bit for bit.
    pub fn serve_autoscaled(
        &self,
        scenario: &Scenario,
        shards: usize,
        balancer: LoadBalancerKind,
        kind: SchedulerKind,
        policy: &Autoscaler,
        failures: &FailurePlan,
    ) -> ServeReport {
        simulate_autoscaled(
            &self.fleet_config(shards).with_balancer(balancer),
            scenario,
            kind,
            policy,
            failures,
        )
    }

    /// [`FcadResult::serve_autoscaled`] under an explicit admission
    /// policy — the full stack: QoS classes, admission shedding,
    /// autoscaling and failure injection in one run.
    /// [`AdmissionKind::AdmitAll`] reproduces
    /// [`FcadResult::serve_autoscaled`] bit for bit.
    #[allow(clippy::too_many_arguments)]
    pub fn serve_qos_autoscaled(
        &self,
        scenario: &Scenario,
        shards: usize,
        balancer: LoadBalancerKind,
        kind: SchedulerKind,
        policy: &Autoscaler,
        failures: &FailurePlan,
        admission: AdmissionKind,
    ) -> ServeReport {
        simulate_autoscaled_qos(
            &self.fleet_config(shards).with_balancer(balancer),
            scenario,
            kind,
            policy,
            failures,
            admission,
        )
    }

    /// [`FcadResult::serve_qos_autoscaled`] executed by the
    /// time-windowed engine on `workers` workers, the calling thread
    /// included (`1` runs every window inline and spawns no thread). The
    /// report is byte-identical to the sequential run at every worker
    /// count; under a load-aware balancer no window opens and every event
    /// steps sequentially.
    #[allow(clippy::too_many_arguments)]
    pub fn serve_windowed(
        &self,
        scenario: &Scenario,
        shards: usize,
        balancer: LoadBalancerKind,
        kind: SchedulerKind,
        policy: &Autoscaler,
        failures: &FailurePlan,
        admission: AdmissionKind,
        workers: usize,
    ) -> ServeReport {
        simulate_windowed(
            &self.fleet_config(shards).with_balancer(balancer),
            scenario,
            kind,
            policy,
            failures,
            admission,
            DeadlinePolicy::Off,
            &WindowPlan::new(workers).with_window_us(400_000),
        )
    }

    /// [`FcadResult::serve_fleet`] on the cycle-level-calibrated service
    /// model instead of the analytical one.
    pub fn serve_fleet_calibrated(
        &self,
        scenario: &Scenario,
        shards: usize,
        balancer: LoadBalancerKind,
        kind: SchedulerKind,
        bandwidth_bytes_per_sec: f64,
    ) -> ServeReport {
        let model = self.calibrated_service_model(bandwidth_bytes_per_sec);
        simulate_fleet(
            &FleetConfig::uniform(model, shards).with_balancer(balancer),
            scenario,
            kind,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Customization, DseParams, Fcad};
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

    #[test]
    fn service_model_mirrors_the_report() {
        let result = optimized();
        let model = result.service_model();
        assert_eq!(model.branch_count(), result.report().branches.len());
        for (service, branch) in model.branches.iter().zip(&result.report().branches) {
            assert_eq!(service.name, branch.name);
            assert_eq!(service.max_batch, branch.batch_size);
            assert!(service.frame_time_us >= 1);
            // Frame time is the reciprocal of the branch throughput.
            let fps_from_model = 1e6 / service.frame_time_us as f64;
            assert!((fps_from_model - branch.fps).abs() / branch.fps < 0.05);
        }
    }

    #[test]
    fn serving_the_baseline_scenario_conserves_requests() {
        let result = optimized();
        let report = result.serve(&Scenario::a1());
        assert!(report.conserves_requests());
        assert!(report.completed > 0);
        assert!(report.latency.p99_ms >= report.latency.p50_ms);
    }

    #[test]
    fn calibrated_model_is_no_faster_than_the_analytical_one() {
        let result = optimized();
        let bandwidth = Platform::zu17eg().budget().bandwidth_bytes_per_sec;
        let analytical = result.service_model();
        let calibrated = result.calibrated_service_model(bandwidth);
        assert_eq!(analytical.branch_count(), calibrated.branch_count());
        for (a, c) in analytical.branches.iter().zip(&calibrated.branches) {
            // The cycle-level simulator adds tile overheads and weight
            // stalls, so its frame times can only be equal or slower.
            assert!(
                c.frame_time_us as f64 >= a.frame_time_us as f64 * 0.99,
                "{}: calibrated {} µs vs analytical {} µs",
                a.name,
                c.frame_time_us,
                a.frame_time_us
            );
        }
        let report =
            result.serve_calibrated(&Scenario::a1(), SchedulerKind::BatchAggregating, bandwidth);
        assert!(report.conserves_requests());
    }

    #[test]
    fn fleet_serving_conserves_and_scales_the_burst_tail_down() {
        let result = optimized();
        let chaos = Scenario::b2();
        let one = result.serve_fleet(
            &chaos,
            1,
            LoadBalancerKind::LeastLoaded,
            SchedulerKind::BatchAggregating,
        );
        let four = result.serve_fleet(
            &chaos,
            4,
            LoadBalancerKind::LeastLoaded,
            SchedulerKind::BatchAggregating,
        );
        assert!(one.conserves_requests());
        assert!(four.conserves_requests());
        assert_eq!(one.shard_count(), 1);
        assert_eq!(four.shard_count(), 4);
        assert!(
            four.latency.p99_ms < one.latency.p99_ms,
            "4-shard p99 {} !< 1-shard p99 {}",
            four.latency.p99_ms,
            one.latency.p99_ms
        );
    }

    #[test]
    fn autoscaled_serving_recovers_from_a_mid_run_failure() {
        let result = optimized();
        let scenario = Scenario::b2_failover(2);
        let plan = FailurePlan::scheduled(&[(1_500_000, 1)]);
        let noop = result.serve_autoscaled(
            &scenario,
            2,
            LoadBalancerKind::AffinityFirst,
            SchedulerKind::BatchAggregating,
            &Autoscaler::none(),
            &FailurePlan::none(),
        );
        let fixed = result.serve_fleet(
            &scenario,
            2,
            LoadBalancerKind::AffinityFirst,
            SchedulerKind::BatchAggregating,
        );
        assert_eq!(noop, fixed, "no-op policy must reproduce the fixed fleet");
        let failed = result.serve_autoscaled(
            &scenario,
            2,
            LoadBalancerKind::AffinityFirst,
            SchedulerKind::BatchAggregating,
            &Autoscaler::reactive(2, 4),
            &plan,
        );
        assert!(failed.conserves_requests());
        assert!(
            failed
                .scale_events
                .iter()
                .any(|e| e.kind == fcad_serve::ScaleEventKind::Fail),
            "the scheduled kill must fire"
        );
        assert!(failed.replaced + failed.lost > 0 || failed.shards[1].issued == 0);
        assert!(failed.availability > 0.5);
    }

    #[test]
    fn qos_entry_points_reduce_to_the_legacy_paths_under_admit_all() {
        let result = optimized();
        let scenario = Scenario::b2();
        let legacy = result.serve_with(&scenario, SchedulerKind::PriorityByBranch);
        let qos = result.serve_qos(
            &scenario,
            SchedulerKind::PriorityByBranch,
            AdmissionKind::AdmitAll,
        );
        assert_eq!(legacy, qos, "admit-all must be the legacy single device");
        let fleet = result.serve_fleet(
            &scenario,
            2,
            LoadBalancerKind::LeastLoaded,
            SchedulerKind::BatchAggregating,
        );
        let qos_fleet = result.serve_qos_fleet(
            &scenario,
            2,
            LoadBalancerKind::LeastLoaded,
            SchedulerKind::BatchAggregating,
            AdmissionKind::AdmitAll,
        );
        assert_eq!(fleet, qos_fleet, "admit-all must be the legacy fleet");
    }

    #[test]
    fn qos_serving_sheds_and_scores_the_classes() {
        let result = optimized();
        let scenario = Scenario::b2_qos();
        let report = result.serve_qos(
            &scenario,
            SchedulerKind::PriorityByBranch,
            AdmissionKind::BudgetAware,
        );
        assert!(report.conserves_requests());
        assert!(report.shed > 0, "the QoS burst must trigger shedding");
        assert!(report.slo_attainment > 0.0 && report.slo_attainment <= 1.0);
        let autoscaled = result.serve_qos_autoscaled(
            &scenario,
            1,
            LoadBalancerKind::RoundRobin,
            SchedulerKind::PriorityByBranch,
            &Autoscaler::none(),
            &FailurePlan::none(),
            AdmissionKind::BudgetAware,
        );
        assert_eq!(report, autoscaled, "no-op policy must not disturb QoS");
    }

    #[test]
    fn deadline_entry_point_reduces_to_qos_when_off() {
        let result = optimized();
        let scenario = Scenario::b2_qos();
        let qos = result.serve_qos(&scenario, SchedulerKind::Deadline, AdmissionKind::AdmitAll);
        let off = result.serve_deadline(
            &scenario,
            SchedulerKind::Deadline,
            AdmissionKind::AdmitAll,
            DeadlinePolicy::Off,
        );
        assert_eq!(qos, off, "culling off must be the QoS path bit for bit");
        let culled = result.serve_deadline(
            &scenario,
            SchedulerKind::Deadline,
            AdmissionKind::AdmitAll,
            DeadlinePolicy::CullExpired,
        );
        assert!(culled.conserves_requests());
        assert_eq!(culled.scheduler, "deadline");
        assert_eq!(
            culled.expired,
            culled.classes.iter().map(|c| c.expired).sum::<u64>(),
            "expiry must be attributed to classes"
        );
    }

    #[test]
    fn traced_qos_serving_observes_without_disturbing() {
        let result = optimized();
        let scenario = Scenario::b2_qos();
        let untraced = result.serve_qos(
            &scenario,
            SchedulerKind::PriorityByBranch,
            AdmissionKind::BudgetAware,
        );
        let mut recorder = fcad_serve::Recorder::new();
        let traced = result.serve_qos_traced(
            &scenario,
            SchedulerKind::PriorityByBranch,
            AdmissionKind::BudgetAware,
            &mut recorder,
        );
        assert_eq!(untraced, traced, "tracing must be observation-only");
        assert!(!recorder.is_empty(), "the run must narrate itself");
        assert_eq!(
            recorder.summary().events,
            recorder.events().len() as u64,
            "the summary must count what was recorded"
        );
    }

    #[test]
    fn calibrated_fleet_serving_conserves_requests() {
        let result = optimized();
        let bandwidth = Platform::zu17eg().budget().bandwidth_bytes_per_sec;
        let report = result.serve_fleet_calibrated(
            &Scenario::b1_fleet(2),
            2,
            LoadBalancerKind::AffinityFirst,
            SchedulerKind::BatchAggregating,
            bandwidth,
        );
        assert!(report.conserves_requests());
        assert_eq!(report.shard_count(), 2);
        assert_eq!(report.balancer, "affinity");
    }
}
