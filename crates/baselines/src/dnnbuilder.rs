//! DNNBuilder-style baseline: unfolded per-layer pipeline with two-level
//! parallelism.

use crate::result::{BaselineResult, LayerLatency};
use fcad_accel::{efficiency, ConvStage, CostModel, LaneTable, Platform, UnitCost};
use fcad_nnir::{Network, Precision};
use fcad_profiler::NetworkProfile;

/// Model of a DNNBuilder-generated accelerator (Zhang et al., ICCAD 2018) as
/// characterized in Sec. III of the F-CAD paper.
///
/// DNNBuilder instantiates one dedicated pipeline stage per layer (an
/// *unfolded* architecture) and unrolls each stage along input and output
/// channels only, so a stage can never exceed `InCh × OutCh` MAC lanes. The
/// model distributes the device's DSP budget across stages proportionally to
/// their compute demand (capped at that ceiling) and reports the resulting
/// throughput, efficiency and per-layer latency.
#[derive(Debug, Clone)]
pub struct DnnBuilder {
    platform: Platform,
    precision: Precision,
    cost: CostModel,
}

impl DnnBuilder {
    /// Creates the baseline for a platform and precision.
    pub fn new(platform: Platform, precision: Precision) -> Self {
        Self {
            platform,
            precision,
            cost: CostModel::fpga(),
        }
    }

    /// The platform this instance targets.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Evaluates the baseline on a network (every branch's layers are mapped
    /// onto one unfolded pipeline, shared layers instantiated once).
    pub fn evaluate(&self, network: &Network) -> BaselineResult {
        let stages = unfolded_stages(network);
        let budget_lanes =
            (self.platform.budget().dsp as f64 * self.precision.macs_per_dsp()) as usize;

        // DNNBuilder's resource allocation: each stage receives MAC lanes
        // proportional to its compute demand, quantized down to a power of
        // two (its channel unroll factors are powers of two) and capped at
        // the two-level ceiling InCh × OutCh. The quantization leaves part
        // of the budget unused, and the caps pin the few-channel HD layers —
        // which is exactly why bigger FPGAs do not buy more FPS.
        let total_macs: f64 = stages.iter().map(|s| s.macs as f64).sum();
        let lanes: Vec<usize> = stages
            .iter()
            .map(|stage| {
                let proportional = budget_lanes as f64 * stage.macs as f64 / total_macs.max(1.0);
                let quantized = floor_pow2(proportional.floor() as usize);
                quantized.clamp(1, stage.channel_parallelism_limit())
            })
            .collect();

        let mut layer_latencies = Vec::with_capacity(stages.len());
        let mut dsp = 0usize;
        let mut bram = 0usize;
        let mut max_latency = 1u64;
        for (stage, &stage_lanes) in stages.iter().zip(&lanes) {
            let parallelism = LaneTable::of(stage).channel_split_at_most(stage_lanes);
            let unit = UnitCost::of(stage, parallelism, self.precision, &self.cost);
            dsp += unit.dsp;
            bram += unit.bram;
            max_latency = max_latency.max(unit.latency_cycles);
            layer_latencies.push(LayerLatency {
                name: stage.name.clone(),
                cycles: unit.latency_cycles,
                lanes: parallelism.total(),
                at_parallelism_cap: parallelism.total() >= stage.channel_parallelism_limit(),
            });
        }

        let fps = self.platform.frequency_hz() / max_latency as f64;
        let ops: u64 = stages.iter().map(|s| s.ops).sum();
        let eff = efficiency(
            ops as f64 * fps,
            dsp,
            self.precision.ops_per_multiplier(),
            self.platform.frequency_hz(),
        );
        BaselineResult {
            name: format!("DNNBuilder ({})", self.precision),
            dsp,
            bram,
            fps,
            efficiency: eff,
            layers: layer_latencies,
        }
    }

    /// Per-layer latencies of the last `count` compute layers of a given
    /// branch — the data series of Fig. 3.
    pub fn branch_tail_latencies(
        &self,
        network: &Network,
        branch_name: &str,
        count: usize,
    ) -> Vec<LayerLatency> {
        let result = self.evaluate(network);
        let profile = NetworkProfile::of(network);
        let Some(branch) = profile.branches().iter().find(|b| b.name == branch_name) else {
            return Vec::new();
        };
        let tail_names: Vec<String> = branch
            .compute_layers()
            .map(|l| l.name.clone())
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .take(count)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        tail_names
            .iter()
            .filter_map(|name| result.layers.iter().find(|l| &l.name == name).cloned())
            .collect()
    }
}

/// All distinct compute layers of the network as fused stages (shared layers
/// appear once), in branch order.
fn unfolded_stages(network: &Network) -> Vec<ConvStage> {
    let profile = NetworkProfile::of(network);
    let mut stages: Vec<ConvStage> = Vec::new();
    let mut seen: std::collections::HashSet<String> = Default::default();
    for branch in profile.branches() {
        for stage in ConvStage::stages_of_branch(branch) {
            if seen.insert(stage.name.clone()) {
                stages.push(stage);
            }
        }
    }
    stages
}

/// Largest power of two not exceeding `value` (1 for zero).
fn floor_pow2(value: usize) -> usize {
    if value == 0 {
        1
    } else {
        1 << (usize::BITS - 1 - value.leading_zeros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcad_nnir::models::mimic_decoder;

    fn schemes() -> Vec<Platform> {
        Platform::evaluation_schemes()
    }

    #[test]
    fn throughput_saturates_across_schemes() {
        let net = mimic_decoder();
        let results: Vec<BaselineResult> = schemes()
            .into_iter()
            .map(|p| DnnBuilder::new(p, Precision::Int8).evaluate(&net))
            .collect();
        // FPS does not improve with bigger FPGAs (the Sec. III observation).
        let fps: Vec<f64> = results.iter().map(|r| r.fps).collect();
        assert!((fps[1] - fps[0]).abs() / fps[0] < 0.05, "{fps:?}");
        assert!((fps[2] - fps[0]).abs() / fps[0] < 0.05, "{fps:?}");
        // And the saturated FPS is far below the VR requirement of 90+.
        assert!(fps[0] < 60.0);
        // Resource usage grows while FPS stays flat, so efficiency drops
        // monotonically (81.6% -> 50.4% -> 28.8% in the paper).
        assert!(results[0].efficiency > results[1].efficiency);
        assert!(results[1].efficiency > results[2].efficiency);
        assert!(results[0].dsp < results[1].dsp);
        assert!(results[1].dsp <= results[2].dsp);
    }

    #[test]
    fn scheme1_is_the_most_efficient_and_fits_its_budget() {
        let net = mimic_decoder();
        let result = DnnBuilder::new(Platform::z7045(), Precision::Int8).evaluate(&net);
        // Paper: 81.6% on Z7045, 644 of 900 DSPs used. Our reproduction
        // saturates at a lower FPS (the HD output conv caps earlier), so the
        // absolute efficiency is lower, but scheme 1 must remain the
        // efficient end of the range and must not overrun the device.
        assert!(
            result.efficiency > 0.35 && result.efficiency <= 1.0,
            "scheme-1 efficiency {}",
            result.efficiency
        );
        assert!(result.dsp <= Platform::z7045().budget().dsp);
        // Like the paper, the allocator cannot use the whole device: the
        // power-of-two unrolling leaves DSPs on the table.
        assert!(result.dsp < Platform::z7045().budget().dsp);
    }

    #[test]
    fn bottleneck_is_a_channel_capped_hd_layer() {
        let net = mimic_decoder();
        let result = DnnBuilder::new(Platform::zu9cg(), Precision::Int8).evaluate(&net);
        let bottleneck = result.bottleneck().expect("per-layer breakdown");
        assert!(
            bottleneck.at_parallelism_cap,
            "the slowest layer must be limited by InCh x OutCh"
        );
        // It is one of the few-channel HD layers at the end of branch 2.
        assert!(bottleneck.name.contains("texture"));
    }

    #[test]
    fn fig3_tail_latencies_show_capped_layers() {
        let net = mimic_decoder();
        let builder = DnnBuilder::new(Platform::zu9cg(), Precision::Int8);
        let tail = builder.branch_tail_latencies(&net, "texture", 5);
        assert_eq!(tail.len(), 5);
        assert!(
            tail.iter().any(|l| l.at_parallelism_cap),
            "Fig. 3 must show layers stuck at their parallelism cap"
        );
    }

    #[test]
    fn shared_layers_are_instantiated_once() {
        let net = mimic_decoder();
        let stages = unfolded_stages(&net);
        let distinct: std::collections::HashSet<&str> =
            stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(stages.len(), distinct.len());
        // 6 + 8 + 6 compute layers minus 5 shared = 15 distinct stages.
        assert_eq!(stages.len(), 15);
    }
}
