//! Top-level simulator API.

use crate::engine;
use crate::memory::MemoryModel;
use crate::result::{AcceleratorSim, BranchSim};
use fcad_accel::{
    efficiency, AcceleratorConfig, BranchConfig, ConvStage, ElasticAccelerator, Parallelism,
};
use fcad_nnir::Precision;

/// Cycle-level simulator for layer-pipelined accelerators.
///
/// A simulator is parameterized by the clock frequency and the external
/// memory bandwidth of the target platform; it then executes branch
/// pipelines under concrete configurations and reports measured throughput
/// and efficiency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Simulator {
    frequency_hz: f64,
    memory: MemoryModel,
}

impl Simulator {
    /// Creates a simulator for a platform clocked at `frequency_hz` with
    /// `bandwidth_bytes_per_sec` of external memory bandwidth.
    pub fn new(frequency_hz: f64, bandwidth_bytes_per_sec: f64) -> Self {
        Self {
            frequency_hz,
            memory: MemoryModel::new(bandwidth_bytes_per_sec, frequency_hz),
        }
    }

    /// Creates a simulator matching an [`ElasticAccelerator`]'s platform
    /// parameters.
    pub fn for_accelerator(accelerator: &ElasticAccelerator, bandwidth_bytes_per_sec: f64) -> Self {
        Self::new(accelerator.frequency_hz(), bandwidth_bytes_per_sec)
    }

    /// Clock frequency in Hz.
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_hz
    }

    /// The external memory model.
    pub fn memory(&self) -> &MemoryModel {
        &self.memory
    }

    /// Simulates one branch pipeline under a branch configuration.
    ///
    /// Stage configurations beyond the stage count are ignored; missing ones
    /// default to unit parallelism, so the method never fails — the
    /// analytical model is the place where configuration mismatches are
    /// treated as errors.
    pub fn simulate_branch(
        &self,
        stages: &[ConvStage],
        config: &BranchConfig,
        precision: Precision,
    ) -> BranchSim {
        let parallelism: Vec<Parallelism> = (0..stages.len())
            .map(|i| {
                config
                    .stages
                    .get(i)
                    .map(|s| s.parallelism)
                    .unwrap_or_else(Parallelism::unit)
            })
            .collect();
        let timing = engine::run_branch(stages, &parallelism, precision, &self.memory);
        let batch = config.batch_size.max(1);
        let fps = if timing.steady_interval_cycles == 0 {
            0.0
        } else {
            batch as f64 * self.frequency_hz / timing.steady_interval_cycles as f64
        };
        let dsp = timing.dsp * batch;
        let eff = efficiency(
            timing.ops_per_frame as f64 * fps,
            dsp,
            precision.ops_per_multiplier(),
            self.frequency_hz,
        );
        BranchSim {
            name: stages
                .first()
                .map(|s| s.name.clone())
                .unwrap_or_else(|| "empty".to_owned()),
            batch_size: batch,
            steady_interval_cycles: timing.steady_interval_cycles,
            first_frame_latency_cycles: timing.first_frame_latency_cycles,
            fps,
            efficiency: eff,
            dsp,
            ops_per_frame: timing.ops_per_frame,
            stages: timing.stages,
        }
    }

    /// Simulates a complete multi-branch accelerator under a configuration.
    ///
    /// Branch configurations beyond the architecture's branch count are
    /// ignored; missing ones default to a minimal configuration.
    pub fn simulate_accelerator(
        &self,
        accelerator: &ElasticAccelerator,
        config: &AcceleratorConfig,
    ) -> AcceleratorSim {
        let branches: Vec<BranchSim> = accelerator
            .branches()
            .iter()
            .enumerate()
            .map(|(i, pipeline)| {
                let fallback = BranchConfig::minimal(pipeline.stage_count());
                let branch_cfg = config.branches.get(i).unwrap_or(&fallback);
                let mut sim = self.simulate_branch(pipeline.stages(), branch_cfg, config.precision);
                sim.name = pipeline.name().to_owned();
                sim
            })
            .collect();
        let min_fps = branches.iter().map(|b| b.fps).fold(f64::INFINITY, f64::min);
        let min_fps = if min_fps.is_finite() { min_fps } else { 0.0 };
        let dsp: usize = branches.iter().map(|b| b.dsp).sum();
        let total_ops_per_sec: f64 = branches
            .iter()
            .map(|b| b.ops_per_frame as f64 * b.fps)
            .sum();
        let overall_efficiency = efficiency(
            total_ops_per_sec,
            dsp,
            config.precision.ops_per_multiplier(),
            self.frequency_hz,
        );
        AcceleratorSim {
            branches,
            min_fps,
            overall_efficiency,
            dsp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcad_accel::{BranchPipeline, StageConfig};

    fn stages() -> Vec<ConvStage> {
        vec![
            ConvStage::synthetic("conv1", 8, 16, 64, 64, 3, 1),
            ConvStage::synthetic("conv2", 16, 16, 64, 64, 3, 1),
        ]
    }

    fn config(lanes: usize, batch: usize) -> BranchConfig {
        let s = stages();
        BranchConfig::new(
            batch,
            s.iter()
                .map(|st| StageConfig::new(Parallelism::for_target(st, lanes)))
                .collect(),
        )
    }

    #[test]
    fn simulated_fps_is_close_to_but_below_the_analytical_estimate() {
        let s = stages();
        let cfg = config(128, 1);
        let sim = Simulator::new(200e6, 12.8e9);
        let measured = sim.simulate_branch(&s, &cfg, Precision::Int8);

        let pipeline = BranchPipeline::new("b", s);
        let analytical = pipeline
            .evaluate(
                &cfg,
                Precision::Int8,
                200e6,
                &fcad_accel::CostModel::default(),
            )
            .unwrap();

        assert!(measured.fps > 0.0);
        assert!(
            measured.fps <= analytical.fps,
            "simulation must not beat the ideal analytical model"
        );
        let error = (analytical.fps - measured.fps) / measured.fps;
        assert!(
            error < 0.15,
            "analytical vs simulated FPS differ by {:.1}% — model too loose",
            error * 100.0
        );
    }

    #[test]
    fn batch_scales_simulated_fps() {
        let s = stages();
        let sim = Simulator::new(200e6, 12.8e9);
        let one = sim.simulate_branch(&s, &config(64, 1), Precision::Int8);
        let two = sim.simulate_branch(&s, &config(64, 2), Precision::Int8);
        assert!((two.fps / one.fps - 2.0).abs() < 1e-9);
        assert_eq!(two.dsp, 2 * one.dsp);
    }

    #[test]
    fn missing_stage_configs_default_to_unit_parallelism() {
        let s = stages();
        let sim = Simulator::new(200e6, 12.8e9);
        let result = sim.simulate_branch(&s, &BranchConfig::new(1, vec![]), Precision::Int8);
        assert_eq!(result.stages.len(), 2);
        assert!(result.fps > 0.0);
    }

    #[test]
    fn accelerator_simulation_covers_every_branch() {
        let acc = ElasticAccelerator::new(
            "two-branch",
            vec![
                BranchPipeline::new("a", vec![ConvStage::synthetic("a1", 8, 8, 32, 32, 3, 1)]),
                BranchPipeline::new("b", stages()),
            ],
            200e6,
        );
        let cfg = AcceleratorConfig::new(
            vec![BranchConfig::minimal(1), config(64, 1)],
            Precision::Int8,
        );
        let sim = Simulator::new(200e6, 12.8e9).simulate_accelerator(&acc, &cfg);
        assert_eq!(sim.branches.len(), 2);
        assert_eq!(sim.branches[0].name, "a");
        assert!(sim.min_fps <= sim.branches[0].fps);
        assert!(sim.min_fps <= sim.branches[1].fps);
        assert!(sim.overall_efficiency > 0.0);
    }
}
