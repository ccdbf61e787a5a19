//! Branch pipelines: chains of basic architecture units evaluated under a
//! configuration.

use crate::config::BranchConfig;
use crate::cost::CostModel;
use crate::efficiency;
use crate::error::{Error, Result};
use crate::parallelism::Parallelism;
use crate::platform::ResourceUsage;
use crate::stage::ConvStage;
use crate::unit::UnitCost;
use fcad_nnir::Precision;
use serde::{Deserialize, Serialize};

/// Evaluation of a single pipeline stage under its configured parallelism.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageEvaluation {
    /// Stage name.
    pub name: String,
    /// Configured (clamped) parallelism.
    pub parallelism: Parallelism,
    /// Stage latency in cycles (Eq. 4).
    pub latency_cycles: u64,
    /// DSPs used by one copy of the stage.
    pub dsp: usize,
    /// BRAM blocks used by one copy of the stage.
    pub bram: usize,
    /// Weight bytes streamed per frame.
    pub weight_bytes_per_frame: u64,
}

/// Evaluation of one branch pipeline: per-stage results plus branch-level
/// throughput, efficiency and resource usage (including the `batch_size`
/// pipeline copies).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BranchReport {
    /// Branch name.
    pub name: String,
    /// Pipeline copies instantiated.
    pub batch_size: usize,
    /// Throughput in frames per second (Eq. 5).
    pub fps: f64,
    /// Latency of the slowest stage in cycles.
    pub critical_latency_cycles: u64,
    /// Name of the slowest stage.
    pub critical_stage: String,
    /// Hardware efficiency of the branch (Eq. 3).
    pub efficiency: f64,
    /// Operations per frame handled by this branch's pipeline.
    pub ops_per_frame: u64,
    /// Total resources of the branch (all pipeline copies).
    pub usage: ResourceUsage,
    /// Per-stage evaluations (single copy).
    pub stages: Vec<StageEvaluation>,
}

/// One branch of the elastic architecture: an ordered chain of fused
/// Conv-like stages executed as a fine-grained pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BranchPipeline {
    name: String,
    stages: Vec<ConvStage>,
}

impl BranchPipeline {
    /// Creates a pipeline from fused stages.
    pub fn new(name: impl Into<String>, stages: Vec<ConvStage>) -> Self {
        Self {
            name: name.into(),
            stages,
        }
    }

    /// Branch name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fused stages in execution order.
    pub fn stages(&self) -> &[ConvStage] {
        &self.stages
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Operations per frame across all stages.
    pub fn ops_per_frame(&self) -> u64 {
        self.stages.iter().map(|s| s.ops).sum()
    }

    /// MACs per frame across all stages.
    pub fn macs_per_frame(&self) -> u64 {
        self.stages.iter().map(|s| s.macs).sum()
    }

    /// Weight bytes per frame at the given precision.
    pub fn weight_bytes_per_frame(&self, precision: Precision) -> u64 {
        self.stages
            .iter()
            .map(|s| s.params * precision.bytes() as u64)
            .sum()
    }

    /// Evaluates the pipeline under a branch configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the configuration does not
    /// provide exactly one [`crate::StageConfig`] per stage.
    pub fn evaluate(
        &self,
        config: &BranchConfig,
        precision: Precision,
        frequency_hz: f64,
        cost: &CostModel,
    ) -> Result<BranchReport> {
        if config.stages.len() != self.stages.len() {
            return Err(Error::InvalidConfig {
                reason: format!(
                    "branch `{}` has {} stages but the configuration provides {}",
                    self.name,
                    self.stages.len(),
                    config.stages.len()
                ),
            });
        }
        let stages: Vec<StageEvaluation> = self
            .stages
            .iter()
            .zip(&config.stages)
            .map(|(stage, cfg)| {
                let unit = UnitCost::of(stage, cfg.parallelism, precision, cost);
                StageEvaluation {
                    name: stage.name.clone(),
                    parallelism: cfg.parallelism.clamped_to(stage),
                    latency_cycles: unit.latency_cycles,
                    dsp: unit.dsp,
                    bram: unit.bram,
                    weight_bytes_per_frame: unit.weight_bytes_per_frame,
                }
            })
            .collect();

        let (critical_index, critical_latency) = stages
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.latency_cycles))
            .max_by_key(|(_, lat)| *lat)
            .unwrap_or((0, 1));

        // Eq. 5: FPS = batch / max(Lat_i); each of the `batch` pipeline
        // copies produces one frame per critical-stage interval.
        let fps = if self.stages.is_empty() {
            0.0
        } else {
            config.batch_size as f64 * frequency_hz / critical_latency as f64
        };

        let dsp: usize = stages.iter().map(|s| s.dsp).sum::<usize>() * config.batch_size;
        let bram: usize = stages.iter().map(|s| s.bram).sum::<usize>() * config.batch_size;
        let weight_bytes: u64 = stages.iter().map(|s| s.weight_bytes_per_frame).sum();
        // `fps` already counts the frames produced by all copies, and each
        // frame requires one pass of the weights.
        let bandwidth = weight_bytes as f64 * fps / cost.dram_efficiency.max(1e-6);

        let ops_per_frame = self.ops_per_frame();
        let eff = efficiency(
            ops_per_frame as f64 * fps,
            dsp,
            precision.ops_per_multiplier(),
            frequency_hz,
        );

        Ok(BranchReport {
            name: self.name.clone(),
            batch_size: config.batch_size,
            fps,
            critical_latency_cycles: critical_latency,
            critical_stage: self
                .stages
                .get(critical_index)
                .map(|s| s.name.clone())
                .unwrap_or_default(),
            efficiency: eff,
            ops_per_frame,
            usage: ResourceUsage {
                dsp,
                bram,
                bandwidth_bytes_per_sec: bandwidth,
            },
            stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StageConfig;

    fn pipeline() -> BranchPipeline {
        BranchPipeline::new(
            "test",
            vec![
                ConvStage::synthetic("conv1", 8, 16, 32, 32, 3, 2),
                ConvStage::synthetic("conv2", 16, 16, 64, 64, 3, 1),
            ],
        )
    }

    fn config(p1: Parallelism, p2: Parallelism, batch: usize) -> BranchConfig {
        BranchConfig::new(batch, vec![StageConfig::new(p1), StageConfig::new(p2)])
    }

    #[test]
    fn throughput_is_limited_by_the_slowest_stage() {
        let pipe = pipeline();
        let cfg = config(Parallelism::new(8, 16, 1), Parallelism::new(1, 1, 1), 1);
        let report = pipe
            .evaluate(&cfg, Precision::Int8, 200e6, &CostModel::default())
            .expect("valid config");
        assert_eq!(report.critical_stage, "conv2");
        let conv2_cycles = 16u64 * 16 * 9 * 64 * 64;
        assert_eq!(report.critical_latency_cycles, conv2_cycles);
        assert!((report.fps - 200e6 / conv2_cycles as f64).abs() < 1e-9);
    }

    #[test]
    fn batch_copies_multiply_fps_and_resources() {
        let pipe = pipeline();
        let p = Parallelism::new(4, 4, 1);
        let single = pipe
            .evaluate(
                &config(p, p, 1),
                Precision::Int8,
                200e6,
                &CostModel::default(),
            )
            .unwrap();
        let double = pipe
            .evaluate(
                &config(p, p, 2),
                Precision::Int8,
                200e6,
                &CostModel::default(),
            )
            .unwrap();
        assert!((double.fps / single.fps - 2.0).abs() < 1e-9);
        assert_eq!(double.usage.dsp, 2 * single.usage.dsp);
        assert_eq!(double.usage.bram, 2 * single.usage.bram);
        // Every frame streams the weights once, so twice the frames need
        // twice the bandwidth.
        let bandwidth_ratio =
            double.usage.bandwidth_bytes_per_sec / single.usage.bandwidth_bytes_per_sec;
        assert!((bandwidth_ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn balanced_stages_have_high_efficiency() {
        // Give each stage parallelism proportional to its MAC count so the
        // pipeline is load-balanced; efficiency should then be high.
        let pipe = pipeline();
        let macs1 = pipe.stages()[0].macs as f64;
        let macs2 = pipe.stages()[1].macs as f64;
        let lanes2 = 256usize;
        let lanes1 = ((macs1 / macs2) * lanes2 as f64).round() as usize;
        let cfg = BranchConfig::new(
            1,
            vec![
                StageConfig::new(Parallelism::for_target(&pipe.stages()[0], lanes1)),
                StageConfig::new(Parallelism::for_target(&pipe.stages()[1], lanes2)),
            ],
        );
        let report = pipe
            .evaluate(&cfg, Precision::Int16, 200e6, &CostModel::default())
            .unwrap();
        assert!(
            report.efficiency > 0.6,
            "efficiency {} too low for a balanced pipeline",
            report.efficiency
        );
        // Auxiliary (non-MAC) operations are counted in GOP but executed by
        // fabric logic, so efficiency may marginally exceed 1 on tiny
        // synthetic stages.
        assert!(report.efficiency <= 1.05);
    }

    #[test]
    fn mismatched_config_is_rejected() {
        let pipe = pipeline();
        let cfg = BranchConfig::minimal(3);
        assert!(matches!(
            pipe.evaluate(&cfg, Precision::Int8, 200e6, &CostModel::default()),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn weight_traffic_matches_parameters() {
        let pipe = pipeline();
        let params: u64 = pipe.stages().iter().map(|s| s.params).sum();
        assert_eq!(pipe.weight_bytes_per_frame(Precision::Int16), params * 2);
    }
}
