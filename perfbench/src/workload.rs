//! The three workloads, their set-up, and the operations they time. Every
//! input is generated from the workload seed; the library sees only the
//! generated inputs.

use fcad::{Customization, DseParams, Fcad, FcadResult, ValidationReport};
use fcad_accel::Platform;
use fcad_nnir::{models, Network, Precision};
use fcad_serve::{
    simulate_windowed, simulate_windowed_traced, AdmissionKind, Autoscaler, DeadlinePolicy,
    FailurePlan, FleetConfig, LoadBalancerKind, Scenario, SchedulerKind, ServeReport, ServiceModel,
    TraceSink, WindowPlan,
};

use crate::check::{fnv1a, Expected};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table IV Cases 2 and 5 on the three-branch decoder at P=200/N=20.
    DseDecoder,
    /// The Fig. 6/7 estimation study: eight single-branch flows on KU115.
    DseClassic,
    /// The 1.05 M-session autoscaled round-robin metropolis.
    ServeMetropolis,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::DseDecoder,
        Workload::DseClassic,
        Workload::ServeMetropolis,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DseDecoder => "dse_decoder",
            Workload::DseClassic => "dse_classic",
            Workload::ServeMetropolis => "serve_metropolis",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64 finalizer: independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The DSE setting of the `reproduce` harness (P=48, N=12).
fn harness_params(seed: u64) -> DseParams {
    DseParams {
        population: 48,
        iterations: 12,
        ..DseParams::paper()
    }
    .with_seed(seed)
}

/// Largest relative FPS or efficiency error the cycle-level validation
/// may report. The paper measures at most 2.89% (FPS) and 3.96%
/// (efficiency) on boards; the simulator that stands in for them stays
/// within this bound, the one the crate's own validation tests use.
pub const MAX_ESTIMATION_ERROR: f64 = 0.12;

/// One F-CAD flow input: network, platform, customization and DSE
/// setting, plus what its output must satisfy.
#[derive(Debug, Clone)]
pub struct DseCase {
    /// Case label, unique within the workload.
    pub label: String,
    /// Input network.
    pub network: Network,
    /// Target platform.
    pub platform: Platform,
    /// Quantization, batch sizes and priorities.
    pub customization: Customization,
    /// Swarm size, iterations and seed.
    pub params: DseParams,
    /// Slowest-branch FPS the design must reach.
    pub min_fps_floor: f64,
    /// Bound on the validation's estimation errors, where the paper
    /// gives one (the single-branch study).
    pub max_estimation_error: Option<f64>,
    /// The output digest, where it does not depend on the seed.
    pub golden: Option<u64>,
}

impl DseCase {
    fn decoder(label: &str, platform: Platform, precision: Precision, params: DseParams) -> Self {
        Self {
            label: label.to_owned(),
            network: models::targeted_decoder(),
            platform,
            customization: Customization::codec_avatar(precision),
            params,
            // Real-time avatar decoding on every Table IV platform.
            min_fps_floor: 30.0,
            max_estimation_error: None,
            golden: None,
        }
    }

    /// Candidates one exploration evaluates.
    pub fn candidates(&self) -> u64 {
        (self.params.population.max(1) * self.params.iterations.max(1)) as u64
    }

    /// External-memory bandwidth of the platform, for the validation.
    pub fn bandwidth(&self) -> f64 {
        self.platform.budget().bandwidth_bytes_per_sec
    }
}

/// The flow's output: the optimized design and its cycle-level
/// validation.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Every artifact of profile → construct → explore.
    pub result: FcadResult,
    /// Analytical estimate versus cycle-level simulation.
    pub validation: ValidationReport,
}

impl FlowOutcome {
    /// Checks the design against the case's invariants and returns the
    /// digest of best configuration, FPS, efficiency, convergence
    /// iteration and estimation errors.
    pub fn check(&self, case: &DseCase) -> Result<u64, String> {
        let dse = &self.result.dse;
        let report = &dse.best_report;
        let label = &case.label;
        if !report.fits(case.platform.budget()) {
            return Err(format!("{label}: best design exceeds the platform budget"));
        }
        if dse.min_fps().is_nan() || dse.min_fps() < case.min_fps_floor {
            return Err(format!(
                "{label}: min fps {} below {}",
                dse.min_fps(),
                case.min_fps_floor
            ));
        }
        if !(dse.efficiency() > 0.0 && dse.efficiency() <= 1.0) {
            return Err(format!("{label}: efficiency {}", dse.efficiency()));
        }
        if dse.convergence_iteration == 0 || dse.convergence_iteration > dse.iterations_run {
            return Err(format!(
                "{label}: convergence iteration {}",
                dse.convergence_iteration
            ));
        }
        let (fps_err, eff_err) = (
            self.validation.max_fps_error(),
            self.validation.max_efficiency_error(),
        );
        if case
            .max_estimation_error
            .is_some_and(|bound| !(fps_err <= bound && eff_err <= bound))
        {
            return Err(format!(
                "{label}: estimation error fps {fps_err} / efficiency {eff_err}"
            ));
        }
        let canonical = format!(
            "{:?}|{:x}|{:x}|{}|{:x}|{:x}",
            dse.best_config,
            dse.min_fps().to_bits(),
            dse.efficiency().to_bits(),
            dse.convergence_iteration,
            fps_err.to_bits(),
            eff_err.to_bits()
        );
        Ok(fnv1a(canonical.as_bytes()))
    }
}

/// One flow through the public front door: `Fcad::run`, then
/// `ValidationReport::compare`.
pub fn run_flow(case: &DseCase) -> Result<FlowOutcome, String> {
    let result = Fcad::new(case.network.clone(), case.platform.clone())
        .with_customization(case.customization.clone())
        .with_dse_params(case.params)
        .run()
        .map_err(|e| format!("{}: {e}", case.label))?;
    let validation = ValidationReport::compare(
        &result.accelerator,
        &result.dse.best_config,
        case.bandwidth(),
    )
    .map_err(|e| format!("{}: {e}", case.label))?;
    Ok(FlowOutcome { result, validation })
}

/// Table IV Cases 2 and 5 at the paper's P=200/N=20.
pub fn decoder_cases(seed: u64) -> Vec<DseCase> {
    vec![
        DseCase::decoder(
            "case2_zu17eg_int8",
            Platform::zu17eg(),
            Precision::Int8,
            DseParams::paper().with_seed(mix(seed, 2)),
        ),
        DseCase::decoder(
            "case5_zu9cg_int16",
            Platform::zu9cg(),
            Precision::Int16,
            DseParams::paper().with_seed(mix(seed, 5)),
        ),
    ]
}

/// Output digests of the single-branch study. With one branch every
/// particle of the swarm normalizes to the whole budget, so the design,
/// and with it the digest, does not depend on the seed.
const CLASSIC_GOLDEN: [(&str, u64); 8] = [
    ("alexnet_16-bit", 0xee0d_55b5_7ba4_18c4),
    ("zfnet_16-bit", 0x2d9d_c28f_adcc_3657),
    ("vgg16_16-bit", 0x9069_b8ab_272b_3516),
    ("tiny-yolo_16-bit", 0xfb2d_86bd_23cb_02d7),
    ("alexnet_8-bit", 0x1096_6c10_758c_dc64),
    ("zfnet_8-bit", 0xec4e_ddb5_6715_1c40),
    ("vgg16_8-bit", 0xbfb4_c3b9_eb54_e889),
    ("tiny-yolo_8-bit", 0x2802_3569_36d9_2601),
];

/// The Fig. 6/7 study: AlexNet, ZFNet, VGG16 and Tiny-YOLO at 16 and 8
/// bits on KU115 at the harness setting.
pub fn classic_cases(seed: u64) -> Vec<DseCase> {
    let mut cases = Vec::new();
    for precision in [Precision::Int16, Precision::Int8] {
        for network in models::classic_benchmarks() {
            let salt = cases.len() as u64;
            let label = format!("{}_{precision}", network.name());
            let golden = CLASSIC_GOLDEN
                .iter()
                .find(|(name, _)| *name == label)
                .map(|&(_, digest)| digest);
            cases.push(DseCase {
                label,
                network,
                platform: Platform::ku115(),
                customization: Customization::uniform(1, precision),
                params: harness_params(mix(seed, salt)),
                min_fps_floor: f64::MIN_POSITIVE,
                max_estimation_error: Some(MAX_ESTIMATION_ERROR),
                golden,
            });
        }
    }
    cases
}

/// The DSE prelude of the serve workload: the `reproduce` harness case
/// (ZU17EG, 8-bit) whose design gives the fleet its service model.
pub fn prelude_case(seed: u64) -> DseCase {
    DseCase::decoder(
        "prelude_zu17eg_int8",
        Platform::zu17eg(),
        Precision::Int8,
        harness_params(mix(seed, 7)),
    )
}

/// Sessions above which the recorder probe runs a slice of the scenario:
/// a recorder keeps every event in memory.
const RECORDER_SESSION_CAP: usize = 100_000;

/// One serve call's inputs, passed to `simulate_windowed`.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Shards, their service model and the balancer.
    pub config: FleetConfig,
    /// Who connects and when.
    pub scenario: Scenario,
    /// Dispatch discipline.
    pub kind: SchedulerKind,
    /// Autoscaling policy.
    pub policy: Autoscaler,
    /// Scheduled shard kills.
    pub failures: FailurePlan,
    /// Admission policy.
    pub admission: AdmissionKind,
    /// Queue-time expiry policy.
    pub deadline: DeadlinePolicy,
}

impl ServeSpec {
    /// The full metropolis: 1.05 M sessions on 192 round-robin shards
    /// that may scale to 256, batch-aggregating dispatch.
    pub fn metropolis(model: ServiceModel, seed: u64) -> Self {
        Self {
            config: FleetConfig::uniform(model, 192),
            scenario: Scenario::metropolis().with_seed(seed),
            kind: SchedulerKind::BatchAggregating,
            policy: Autoscaler::reactive(192, 256)
                .with_cooldown_us(0)
                .with_idle_retire_us(0),
            failures: FailurePlan::none(),
            admission: AdmissionKind::AdmitAll,
            deadline: DeadlinePolicy::Off,
        }
    }

    /// The b2_qos burst on `shards` least-loaded shards × 8 sessions for
    /// `seconds`: EDF with expiry culling, budget-aware admission,
    /// reactive autoscaling to 1.5× and three kills at 1/3, 1/2 and 2/3
    /// of the window.
    pub fn policy_mix(model: ServiceModel, seed: u64, shards: usize, seconds: u64) -> Self {
        let mut scenario = Scenario::b2_qos().with_seed(seed).with_sessions(8 * shards);
        scenario.duration_sec = seconds as f64;
        scenario.name = format!("b2_qos_burst_fleet{shards}");
        let at = |num: u64, den: u64| seconds * 1_000_000 * num / den;
        Self {
            config: FleetConfig::uniform(model, shards)
                .with_balancer(LoadBalancerKind::LeastLoaded),
            scenario,
            kind: SchedulerKind::Deadline,
            policy: Autoscaler::reactive(shards, shards * 3 / 2),
            failures: FailurePlan::scheduled(&[(at(1, 3), 1), (at(1, 2), 2), (at(2, 3), 3)]),
            admission: AdmissionKind::BudgetAware,
            deadline: DeadlinePolicy::CullExpired,
        }
    }

    /// The serve call at `workers` threads.
    pub fn serve(&self, workers: usize) -> ServeReport {
        simulate_windowed(
            &self.config,
            &self.scenario,
            self.kind,
            &self.policy,
            &self.failures,
            self.admission,
            self.deadline,
            &self.plan(workers),
        )
    }

    /// The serve call with every engine event delivered to `sink`.
    pub fn serve_traced(&self, workers: usize, sink: &mut dyn TraceSink) -> ServeReport {
        simulate_windowed_traced(
            &self.config,
            &self.scenario,
            self.kind,
            &self.policy,
            &self.failures,
            self.admission,
            self.deadline,
            sink,
            &self.plan(workers),
        )
    }

    /// This spec, with the scenario cut to at most
    /// [`RECORDER_SESSION_CAP`] sessions.
    pub fn recorder_probe(&self) -> Self {
        let mut probe = self.clone();
        if probe.scenario.sessions > RECORDER_SESSION_CAP {
            probe.scenario = probe.scenario.with_sessions(RECORDER_SESSION_CAP);
        }
        probe
    }

    fn plan(&self, workers: usize) -> WindowPlan {
        WindowPlan::new(workers).with_window_us(400_000)
    }
}

/// A workload ready to run.
#[derive(Debug)]
pub enum Ready {
    /// F-CAD flows, one per case, in rotation.
    Dse(Vec<DseCase>),
    /// One serve call, repeated; `prelude` is the flow that produced the
    /// service model.
    Serve {
        /// The call's inputs.
        spec: Box<ServeSpec>,
        /// The prelude's input.
        prelude_case: Box<DseCase>,
        /// The prelude's output through `Fcad::run`.
        prelude: Box<FcadResult>,
    },
}

impl Ready {
    /// Expectations known before the run: the golden digests.
    pub fn expected(&self) -> Expected {
        let mut expected = Expected::default();
        if let Ready::Dse(cases) = self {
            for case in cases {
                if let Some(golden) = case.golden {
                    expected.pin(&case.label, golden);
                }
            }
        }
        expected
    }

    /// Distinct operations in the rotation.
    pub fn case_labels(&self) -> Vec<String> {
        match self {
            Ready::Dse(cases) => cases.iter().map(|c| c.label.clone()).collect(),
            Ready::Serve { spec, .. } => vec![spec.scenario.name.clone()],
        }
    }
}

/// Builds the inputs of `workload` from `seed`: networks and cases for
/// the DSE workloads; for the serve workload also the harness DSE
/// prelude that yields the service model, and the fleet and scenario.
pub fn setup(workload: Workload, seed: u64) -> Result<Ready, String> {
    match workload {
        Workload::DseDecoder => Ok(Ready::Dse(decoder_cases(seed))),
        Workload::DseClassic => Ok(Ready::Dse(classic_cases(seed))),
        Workload::ServeMetropolis => {
            let prelude_case = prelude_case(seed);
            let prelude = Fcad::new(prelude_case.network.clone(), prelude_case.platform.clone())
                .with_customization(prelude_case.customization.clone())
                .with_dse_params(prelude_case.params)
                .run()
                .map_err(|e| format!("prelude: {e}"))?;
            Ok(Ready::Serve {
                spec: Box::new(ServeSpec::metropolis(
                    prelude.service_model(),
                    mix(seed, 100),
                )),
                prelude_case: Box::new(prelude_case),
                prelude: Box::new(prelude),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn seeds_reach_every_input() {
        assert_ne!(
            decoder_cases(1)[0].params.seed,
            decoder_cases(2)[0].params.seed
        );
        let a = classic_cases(1);
        assert_eq!(a.len(), 8);
        assert!(
            a.iter().all(|c| c.golden.is_some()),
            "every study case is pinned"
        );
        assert_ne!(a[0].params.seed, a[1].params.seed);
        assert_ne!(mix(3, 100), mix(4, 100));
    }

    #[test]
    fn policy_mix_kills_inside_the_window() {
        let model = ServiceModel {
            branches: vec![fcad_serve::BranchService {
                name: "b".to_owned(),
                frame_time_us: 4_000,
                fill_time_us: 1_000,
                max_batch: 2,
                priority: 1.0,
            }],
        };
        let spec = ServeSpec::policy_mix(model, 9, 8, 3);
        assert_eq!(spec.scenario.sessions, 64);
        assert_eq!(spec.failures.first_kill_us(), Some(1_000_000));
        assert_eq!(spec.policy.max_shards, 12);
        assert_eq!(spec.recorder_probe().scenario.sessions, 64);
    }
}
