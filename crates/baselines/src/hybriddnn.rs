//! HybridDNN-style baseline: a folded, shared compute engine with
//! coarse-grained scaling.

use crate::result::{BaselineResult, LayerLatency};
use fcad_accel::{efficiency, ConvStage, Platform};
use fcad_nnir::{Network, Precision};
use fcad_profiler::NetworkProfile;

/// Model of a HybridDNN-generated accelerator (Ye et al., DAC 2020) as
/// characterized in Sec. III of the F-CAD paper.
///
/// HybridDNN builds one *folded* engine that executes layers sequentially.
/// The engine's MAC array scales only in powers of two, and each doubling
/// roughly doubles the on-chip buffering it needs, so on BRAM-limited
/// devices the engine stops growing and leaves DSPs idle. Only 16-bit
/// arithmetic is supported (the paper had to use a 16-bit mimic decoder).
#[derive(Debug, Clone)]
pub struct HybridDnn {
    platform: Platform,
    precision: Precision,
}

/// Smallest engine HybridDNN instantiates (MAC lanes).
const MIN_ENGINE_LANES: usize = 256;

/// Largest engine considered (keeps the search bounded).
const MAX_ENGINE_LANES: usize = 1 << 16;

/// BRAM blocks needed per MAC lane of the folded engine (input, output and
/// weight double-buffers all scale with the array size).
const BRAM_PER_LANE: f64 = 1.1;

/// Cycles lost per layer to reconfigure the folded engine and drain its
/// buffers.
const LAYER_SWITCH_OVERHEAD_CYCLES: u64 = 2_000;

/// Spatial unrolling the folded engine can exploit inside one layer in
/// addition to its channel parallelism.
const SPATIAL_UNROLL: usize = 4;

impl HybridDnn {
    /// Creates the baseline for a platform. The precision is fixed to 16-bit
    /// because the original tool does not support 8-bit models.
    pub fn new(platform: Platform) -> Self {
        Self {
            platform,
            precision: Precision::Int16,
        }
    }

    /// The platform this instance targets.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The engine size (MAC lanes) chosen for the platform: the largest
    /// power of two whose DSP *and* BRAM demand both fit.
    pub fn engine_lanes(&self) -> usize {
        let budget = self.platform.budget();
        let dsp_limit = (budget.dsp as f64 * self.precision.macs_per_dsp()) as usize;
        let mut lanes = MIN_ENGINE_LANES;
        let mut best = MIN_ENGINE_LANES;
        while lanes <= MAX_ENGINE_LANES {
            let bram_needed = (lanes as f64 * BRAM_PER_LANE).ceil() as usize;
            if lanes <= dsp_limit && bram_needed <= budget.bram {
                best = lanes;
            } else {
                break;
            }
            lanes *= 2;
        }
        best
    }

    /// Evaluates the baseline on a network (layers run sequentially on the
    /// shared engine; shared branch prefixes execute once).
    pub fn evaluate(&self, network: &Network) -> BaselineResult {
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

        let lanes = self.engine_lanes();
        let dsp = (lanes as f64 / self.precision.macs_per_dsp()).ceil() as usize;
        let bram = (lanes as f64 * BRAM_PER_LANE).ceil() as usize;

        let mut total_cycles: u64 = 0;
        let mut layers = Vec::with_capacity(stages.len());
        for stage in &stages {
            // The folded engine can use channel parallelism plus a modest
            // spatial unroll; layers with few channels underuse the array.
            let usable = (stage.channel_parallelism_limit() * SPATIAL_UNROLL).min(lanes);
            let cycles =
                (stage.macs as f64 / usable as f64).ceil() as u64 + LAYER_SWITCH_OVERHEAD_CYCLES;
            total_cycles += cycles;
            layers.push(LayerLatency {
                name: stage.name.clone(),
                cycles,
                lanes: usable,
                at_parallelism_cap: usable < lanes,
            });
        }

        let fps = self.platform.frequency_hz() / total_cycles.max(1) as f64;
        let ops: u64 = stages.iter().map(|s| s.ops).sum();
        let eff = efficiency(
            ops as f64 * fps,
            dsp,
            self.precision.ops_per_multiplier(),
            self.platform.frequency_hz(),
        );
        BaselineResult {
            name: format!("HybridDNN ({})", self.precision),
            dsp,
            bram,
            fps,
            efficiency: eff,
            layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcad_nnir::models::mimic_decoder;

    #[test]
    fn engine_size_is_a_power_of_two_and_fits_the_budget() {
        for platform in Platform::evaluation_schemes() {
            let hybrid = HybridDnn::new(platform.clone());
            let lanes = hybrid.engine_lanes();
            assert!(lanes.is_power_of_two());
            let bram = (lanes as f64 * BRAM_PER_LANE).ceil() as usize;
            assert!(bram <= platform.budget().bram);
            assert!(lanes <= platform.budget().dsp); // 16-bit: 1 lane per DSP
        }
    }

    #[test]
    fn bram_pressure_prevents_scaling_from_zu17eg_to_zu9cg() {
        // The paper's key observation: schemes 2 and 3 end up with the same
        // engine because the next power of two does not fit the BRAM budget.
        let scheme2 = HybridDnn::new(Platform::zu17eg()).engine_lanes();
        let scheme3 = HybridDnn::new(Platform::zu9cg()).engine_lanes();
        assert_eq!(scheme2, scheme3);
        // More than half of the ZU9CG's DSPs are left unused.
        assert!(scheme3 < Platform::zu9cg().budget().dsp / 2 + 1);
    }

    #[test]
    fn larger_scheme_improves_fps_unlike_dnnbuilder() {
        let net = mimic_decoder();
        let scheme1 = HybridDnn::new(Platform::z7045()).evaluate(&net);
        let scheme2 = HybridDnn::new(Platform::zu17eg()).evaluate(&net);
        assert!(
            scheme2.fps > scheme1.fps,
            "HybridDNN scales a little better than DNNBuilder at first"
        );
    }

    #[test]
    fn folded_engine_is_slower_than_real_time_on_the_decoder() {
        let net = mimic_decoder();
        let result = HybridDnn::new(Platform::zu9cg()).evaluate(&net);
        // Paper: 22 FPS on ZU9CG. Ours must land in the same "too slow for
        // VR" regime (well under 60 FPS).
        assert!(result.fps < 60.0, "fps {}", result.fps);
        assert!(result.fps > 5.0, "fps {}", result.fps);
        // Efficiency is decent (the engine is shared), around the paper's 70%.
        assert!(result.efficiency > 0.4 && result.efficiency <= 1.0);
    }

    #[test]
    fn few_channel_layers_underuse_the_engine() {
        let net = mimic_decoder();
        let result = HybridDnn::new(Platform::zu9cg()).evaluate(&net);
        assert!(
            result.layers.iter().any(|l| l.at_parallelism_cap),
            "the HD low-channel layers cannot fill the folded engine"
        );
    }
}
