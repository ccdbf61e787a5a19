//! Mobile-SoC baseline: a Snapdragon-865-class AI engine limited by its
//! cache.

use crate::result::{BaselineResult, LayerLatency};
use fcad_accel::{efficiency, ConvStage};
use fcad_nnir::{Network, Precision};
use fcad_profiler::NetworkProfile;

/// Model of a flagship mobile SoC running the decoder on its AI engine
/// (the Snapdragon 865 row of Table II).
///
/// The engine has a healthy peak MAC rate but only a few megabytes of shared
/// cache. Layers whose working set (weights plus input and output feature
/// maps) fits in the cache run at compute speed; layers with HD feature maps
/// spill to LPDDR and become memory-bound, re-reading their activations
/// several times because of tiling. The paper measures 35.8 FPS and 16.9 %
/// efficiency — the decoder's HD texture branch is exactly the spilling
/// case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobileSoc {
    /// Number of MAC units in the AI engine.
    pub mac_units: usize,
    /// Clock frequency of the AI engine in Hz.
    pub frequency_hz: f64,
    /// Shared cache capacity in bytes.
    pub cache_bytes: u64,
    /// Effective LPDDR bandwidth available to the AI engine, bytes/s.
    pub dram_bytes_per_sec: f64,
    /// How many times a spilled layer re-reads its activations due to
    /// tiling.
    pub reread_factor: f64,
}

impl MobileSoc {
    /// A Snapdragon-865-class configuration: 512 MACs at 1.45 GHz, 4 MiB of
    /// shared cache, ~15 GB/s of effective LPDDR bandwidth for the engine.
    pub fn snapdragon865() -> Self {
        Self {
            mac_units: 512,
            frequency_hz: 1.45e9,
            cache_bytes: 4 * 1024 * 1024,
            dram_bytes_per_sec: 15e9,
            reread_factor: 6.0,
        }
    }

    /// Peak operation rate in ops/s at the given precision.
    pub fn peak_ops_per_sec(&self, precision: Precision) -> f64 {
        precision.ops_per_multiplier() * self.mac_units as f64 * self.frequency_hz
    }

    /// Evaluates the SoC on a network at the given precision.
    pub fn evaluate(&self, network: &Network, precision: Precision) -> BaselineResult {
        let profile = NetworkProfile::of(network);
        let bytes = precision.bytes() as u64;
        let mut total_seconds = 0.0;
        let mut layers = Vec::new();
        let mut seen: std::collections::HashSet<String> = Default::default();
        for branch in profile.branches() {
            for stage in ConvStage::stages_of_branch(branch) {
                if !seen.insert(stage.name.clone()) {
                    continue;
                }
                let seconds = self.layer_seconds(&stage, precision);
                total_seconds += seconds;
                layers.push(LayerLatency {
                    name: stage.name.clone(),
                    cycles: (seconds * self.frequency_hz) as u64,
                    lanes: self.mac_units,
                    at_parallelism_cap: self.is_memory_bound(&stage, bytes),
                });
            }
        }
        let fps = if total_seconds > 0.0 {
            1.0 / total_seconds
        } else {
            0.0
        };
        let ops = network.total_ops();
        let eff = efficiency(
            ops as f64 * fps,
            self.mac_units,
            precision.ops_per_multiplier(),
            self.frequency_hz,
        );
        BaselineResult {
            name: format!("Mobile SoC ({precision})"),
            dsp: self.mac_units,
            bram: 0,
            fps,
            efficiency: eff,
            layers,
        }
    }

    fn working_set_bytes(&self, stage: &ConvStage, bytes: u64) -> u64 {
        (stage.params + stage.input_elements() as u64 + stage.output_elements() as u64) * bytes
    }

    fn is_memory_bound(&self, stage: &ConvStage, bytes: u64) -> bool {
        self.working_set_bytes(stage, bytes) > self.cache_bytes
    }

    fn layer_seconds(&self, stage: &ConvStage, precision: Precision) -> f64 {
        let bytes = precision.bytes() as u64;
        let compute = stage.ops as f64 / self.peak_ops_per_sec(precision);
        let traffic = if self.is_memory_bound(stage, bytes) {
            stage.params * bytes
                + (self.reread_factor
                    * ((stage.input_elements() + stage.output_elements()) as u64 * bytes) as f64)
                    as u64
        } else {
            stage.params * bytes
        };
        let memory = traffic as f64 / self.dram_bytes_per_sec;
        compute.max(memory)
    }
}

impl Default for MobileSoc {
    fn default() -> Self {
        Self::snapdragon865()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcad_nnir::models::{targeted_decoder, vgg16};

    #[test]
    fn decoder_is_memory_bound_and_slow() {
        let soc = MobileSoc::snapdragon865();
        let result = soc.evaluate(&targeted_decoder(), Precision::Int8);
        // Paper: 35.8 FPS, 16.9% efficiency. Shape check: well below the VR
        // requirement and far below compute-bound efficiency.
        assert!(result.fps < 60.0, "fps {}", result.fps);
        assert!(result.fps > 10.0, "fps {}", result.fps);
        assert!(result.efficiency < 0.35, "efficiency {}", result.efficiency);
        assert!(
            result.layers.iter().any(|l| l.at_parallelism_cap),
            "the HD layers must spill the cache"
        );
    }

    #[test]
    fn small_feature_map_networks_fare_better() {
        let soc = MobileSoc::snapdragon865();
        let decoder = soc.evaluate(&targeted_decoder(), Precision::Int8);
        let vgg = soc.evaluate(&vgg16(), Precision::Int8);
        // VGG16 has >2x the decoder's compute but much smaller feature maps,
        // so its efficiency on the SoC is higher.
        assert!(vgg.efficiency > decoder.efficiency);
    }

    #[test]
    fn peak_rate_follows_precision_packing() {
        let soc = MobileSoc::snapdragon865();
        assert!(soc.peak_ops_per_sec(Precision::Int8) > soc.peak_ops_per_sec(Precision::Int16));
    }

    #[test]
    fn more_cache_reduces_memory_boundness() {
        let mut big_cache = MobileSoc::snapdragon865();
        big_cache.cache_bytes = 512 * 1024 * 1024;
        let small = MobileSoc::snapdragon865().evaluate(&targeted_decoder(), Precision::Int8);
        let big = big_cache.evaluate(&targeted_decoder(), Precision::Int8);
        assert!(big.fps > small.fps);
        assert!(!big.layers.iter().any(|l| l.at_parallelism_cap));
    }
}
