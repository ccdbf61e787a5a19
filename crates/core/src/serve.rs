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
//!
//! The rule that turns a design into a [`ServiceModel`] lives here, so
//! the serving simulator needs no hardware crate: a branch's frame time is
//! the reciprocal of its frame rate, its fill is paid once per dispatched
//! batch, and its batch size is the DSE's. The analytical and the
//! calibrated model differ only in the fill cycles they feed it.

use crate::flow::FcadResult;
use fcad_cyclesim::Simulator;
use fcad_obs::cast::{f64_to_u64, u64_to_f64};
use fcad_serve::{BranchService, FleetConfig, ServiceModel};

impl FcadResult {
    /// The analytical service model of the best design: per-branch frame
    /// times from the accelerator report (Eq. 5 throughput, critical-stage
    /// fill) and priorities from the customization.
    pub fn service_model(&self) -> ServiceModel {
        self.service_model_of(self.report().branches.iter().map(|b| {
            (
                b.name.as_str(),
                b.fps,
                b.critical_latency_cycles,
                b.batch_size,
            )
        }))
    }

    /// The cycle-level-calibrated service model: frame times measured by
    /// the `fcad-cyclesim` pipeline simulator (including weight-fetch
    /// stalls the analytical model ignores) at the given external-memory
    /// bandwidth, and the measured first-frame latency as the fill.
    pub fn calibrated_service_model(&self, bandwidth_bytes_per_sec: f64) -> ServiceModel {
        let simulator = Simulator::for_accelerator(&self.accelerator, bandwidth_bytes_per_sec);
        let sim = simulator.simulate_accelerator(&self.accelerator, &self.dse.best_config);
        self.service_model_of(sim.branches.iter().map(|b| {
            (
                b.name.as_str(),
                b.fps,
                b.first_frame_latency_cycles,
                b.batch_size,
            )
        }))
    }

    /// A homogeneous fleet of `shards` copies of this design's analytical
    /// service model (round-robin until
    /// [`FleetConfig::with_balancer`] says otherwise). One shard is the
    /// single device.
    pub fn fleet_config(&self, shards: usize) -> FleetConfig {
        FleetConfig::uniform(self.service_model(), shards)
    }

    /// The service model of `(name, fps, fill cycles, batch size)` rows,
    /// one per branch, at this design's clock and with the
    /// customization's priorities.
    fn service_model_of<'a>(
        &self,
        rows: impl Iterator<Item = (&'a str, f64, u64, usize)>,
    ) -> ServiceModel {
        let frequency_hz = self.accelerator.frequency_hz();
        let branches = rows
            .map(|(name, fps, fill_cycles, batch_size)| BranchService {
                name: name.to_owned(),
                frame_time_us: seconds_to_us(1.0 / fps.max(f64::MIN_POSITIVE)),
                fill_time_us: cycles_to_us(fill_cycles, frequency_hz),
                max_batch: batch_size.max(1),
                priority: 1.0,
            })
            .collect();
        ServiceModel { branches }.with_priorities(&self.customization.priorities)
    }
}

/// Whole microseconds of `seconds`, rounded up and at least 1, so every
/// frame advances the event clock.
fn seconds_to_us(seconds: f64) -> u64 {
    f64_to_u64((seconds * 1e6).ceil().max(1.0))
}

/// Whole microseconds of `cycles` at `frequency_hz`, rounded up.
fn cycles_to_us(cycles: u64, frequency_hz: f64) -> u64 {
    f64_to_u64((u64_to_f64(cycles) / frequency_hz.max(1.0) * 1e6).ceil())
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
    fn each_service_model_reads_its_own_fill_source() {
        let result = optimized();
        let frequency_hz = result.accelerator.frequency_hz();
        let fill_us = |cycles: u64| (cycles as f64 / frequency_hz * 1e6).ceil() as u64;
        let frame_us = |fps: f64| (1e6 / fps).ceil() as u64;

        let analytical = result.service_model();
        let report = &result.report().branches;
        assert_eq!(analytical.branches.len(), report.len());
        for (service, branch) in analytical.branches.iter().zip(report) {
            let name = &branch.name;
            assert_eq!(
                service.fill_time_us,
                fill_us(branch.critical_latency_cycles),
                "{name}"
            );
            assert_eq!(service.frame_time_us, frame_us(branch.fps), "{name}");
        }

        let bandwidth = Platform::zu17eg().budget().bandwidth_bytes_per_sec;
        let calibrated = result.calibrated_service_model(bandwidth);
        let sim = Simulator::for_accelerator(&result.accelerator, bandwidth)
            .simulate_accelerator(&result.accelerator, &result.dse.best_config);
        assert_eq!(calibrated.branches.len(), sim.branches.len());
        for (service, branch) in calibrated.branches.iter().zip(&sim.branches) {
            let name = &branch.name;
            assert_eq!(
                service.fill_time_us,
                fill_us(branch.first_frame_latency_cycles),
                "{name}"
            );
            assert_eq!(service.frame_time_us, frame_us(branch.fps), "{name}");
        }

        // The two fill sources differ, so a model fed the other one fails
        // the loops above.
        assert!(analytical
            .branches
            .iter()
            .zip(&calibrated.branches)
            .all(|(a, c)| a.fill_time_us != c.fill_time_us));
    }

    #[test]
    fn unit_conversions_round_up_and_stay_positive() {
        assert_eq!(seconds_to_us(0.0005), 500);
        assert_eq!(seconds_to_us(0.0), 1);
        // 200 cycles at 200 MHz = 1 µs.
        assert_eq!(cycles_to_us(200, 200e6), 1);
        assert_eq!(cycles_to_us(0, 200e6), 0);
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
