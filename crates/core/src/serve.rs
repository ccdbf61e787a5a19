//! Serving extension of the flow: turn an optimized design into a
//! multi-session telepresence serving simulation.
//!
//! [`FcadResult::service_model`] feeds the DSE-optimized design's
//! per-branch frame times (and the customization's branch priorities)
//! into the `fcad-serve` discrete-event simulator, and
//! [`FcadResult::fleet_config`] scales it to a fleet;
//! `fcad_serve::serve(&result.fleet_config(shards), &scenario, &spec, sink)`
//! then answers the question the static report cannot: what do N
//! concurrent avatar sessions actually experience on this accelerator?

use crate::flow::FcadResult;
use fcad_cyclesim::Simulator;
use fcad_serve::{FleetConfig, ServiceModel};

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

    /// A homogeneous fleet of `shards` copies of this design's analytical
    /// service model (round-robin until
    /// [`FleetConfig::with_balancer`] says otherwise). One shard is the
    /// single device.
    pub fn fleet_config(&self, shards: usize) -> FleetConfig {
        FleetConfig::uniform(self.service_model(), shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Customization, DseParams, Fcad};
    use fcad_accel::Platform;
    use fcad_nnir::models::targeted_decoder;
    use fcad_nnir::Precision;
    use fcad_serve::{
        serve, simulate, AdmissionKind, Autoscaler, DeadlinePolicy, FailurePlan, LoadBalancerKind,
        Off, Scenario, SchedulerKind, ServeSpec,
    };

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
        let report = serve(
            &result.fleet_config(1),
            &Scenario::a1(),
            &ServeSpec::default(),
            &mut Off,
        );
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
        let report = simulate(
            &calibrated,
            &Scenario::a1(),
            SchedulerKind::BatchAggregating,
        );
        assert!(report.conserves_requests());
    }

    #[test]
    fn fleet_serving_conserves_and_scales_the_burst_tail_down() {
        let result = optimized();
        let chaos = Scenario::b2();
        let fleet = |shards| {
            let config = result
                .fleet_config(shards)
                .with_balancer(LoadBalancerKind::LeastLoaded);
            serve(&config, &chaos, &ServeSpec::default(), &mut Off)
        };
        let one = fleet(1);
        let four = fleet(4);
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
        let config = result
            .fleet_config(2)
            .with_balancer(LoadBalancerKind::AffinityFirst);
        let spec = ServeSpec {
            autoscaler: Autoscaler::reactive(2, 4),
            failures: FailurePlan::scheduled(&[(1_500_000, 1)]),
            ..ServeSpec::default()
        };
        let failed = serve(&config, &scenario, &spec, &mut Off);
        assert!(failed.conserves_requests());
        assert!(
            failed
                .scale_events
                .iter()
                .any(|e| e.kind == fcad_serve::FleetEventKind::Fail),
            "the scheduled kill must fire"
        );
        assert!(failed.replaced + failed.lost > 0 || failed.shards[1].issued == 0);
        assert!(failed.availability > 0.5);
    }

    #[test]
    fn qos_serving_sheds_and_scores_the_classes() {
        let result = optimized();
        let spec = ServeSpec {
            scheduler: SchedulerKind::PriorityByBranch,
            admission: AdmissionKind::BudgetAware,
            ..ServeSpec::default()
        };
        let report = serve(
            &result.fleet_config(1),
            &Scenario::b2_qos(),
            &spec,
            &mut Off,
        );
        assert!(report.conserves_requests());
        assert!(report.shed > 0, "the QoS burst must trigger shedding");
        assert!(report.slo_attainment > 0.0 && report.slo_attainment <= 1.0);
    }

    #[test]
    fn deadline_entry_point_reduces_to_qos_when_off() {
        let result = optimized();
        let config = result.fleet_config(1);
        let scenario = Scenario::b2_qos();
        let edf = |deadline| ServeSpec {
            scheduler: SchedulerKind::Deadline,
            deadline,
            ..ServeSpec::default()
        };
        let qos = serve(
            &config,
            &scenario,
            &ServeSpec {
                scheduler: SchedulerKind::Deadline,
                ..ServeSpec::default()
            },
            &mut Off,
        );
        let off = serve(&config, &scenario, &edf(DeadlinePolicy::Off), &mut Off);
        assert_eq!(qos, off, "culling off must be the default spec bit for bit");
        let culled = serve(
            &config,
            &scenario,
            &edf(DeadlinePolicy::CullExpired),
            &mut Off,
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
        let config = result.fleet_config(1);
        let scenario = Scenario::b2_qos();
        let spec = ServeSpec {
            scheduler: SchedulerKind::PriorityByBranch,
            admission: AdmissionKind::BudgetAware,
            ..ServeSpec::default()
        };
        let untraced = serve(&config, &scenario, &spec, &mut Off);
        let mut recorder = fcad_serve::Recorder::new();
        let traced = serve(&config, &scenario, &spec, &mut recorder);
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
        let config = FleetConfig::uniform(result.calibrated_service_model(bandwidth), 2)
            .with_balancer(LoadBalancerKind::AffinityFirst);
        let report = serve(
            &config,
            &Scenario::b1_fleet(2),
            &ServeSpec::default(),
            &mut Off,
        );
        assert!(report.conserves_requests());
        assert_eq!(report.shard_count(), 2);
        assert_eq!(report.balancer, "affinity");
    }
}
