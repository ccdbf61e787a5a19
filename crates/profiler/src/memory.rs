//! Memory-footprint estimation.

use crate::profile::NetworkProfile;
use fcad_nnir::Precision;

/// Memory demand of a network at a given precision.
///
/// The decoder's weights (7.2 M parameters) and HD intermediate feature maps
/// (up to 16×1024×1024 elements) are what break cache-limited SoCs and
/// BRAM-limited FPGA baselines in Sec. III, so the footprint is split into
/// the two components the accelerator has to place somewhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryFootprint {
    /// Precision the footprint was computed at.
    pub precision: Precision,
    /// Bytes of weights (shared layers counted once).
    pub weight_bytes: u64,
    /// Bytes of the largest single intermediate feature map.
    pub peak_feature_bytes: u64,
    /// Bytes of all feature maps produced during one inference, summed over
    /// every branch (an upper bound on streaming traffic when nothing is
    /// kept on chip).
    pub total_feature_bytes: u64,
}

impl MemoryFootprint {
    /// Computes the footprint of a profiled network.
    pub fn of(profile: &NetworkProfile, precision: Precision) -> Self {
        let weight_bytes = profile.total_params() * precision.bytes() as u64;
        let peak_feature_bytes =
            profile.max_intermediate_elements() as u64 * precision.bytes() as u64;
        let total_feature_bytes = profile
            .branches()
            .iter()
            .flat_map(|b| b.layers.iter())
            .map(|l| l.output.elements() as u64 * precision.bytes() as u64)
            .sum();
        Self {
            precision,
            weight_bytes,
            peak_feature_bytes,
            total_feature_bytes,
        }
    }

    /// Total working-set bytes (weights plus peak feature map).
    pub fn working_set_bytes(&self) -> u64 {
        self.weight_bytes + self.peak_feature_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcad_nnir::models::targeted_decoder;

    #[test]
    fn footprint_scales_with_precision() {
        let profile = NetworkProfile::of(&targeted_decoder());
        let int8 = MemoryFootprint::of(&profile, Precision::Int8);
        let int16 = MemoryFootprint::of(&profile, Precision::Int16);
        assert_eq!(int16.weight_bytes, 2 * int8.weight_bytes);
        assert_eq!(int16.peak_feature_bytes, 2 * int8.peak_feature_bytes);
    }

    #[test]
    fn decoder_overflows_a_mobile_soc_cache() {
        // The Snapdragon-class SoC in the paper is starved by its limited
        // cache: the 8-bit decoder weights (~7 MB) plus a 16 MB HD feature
        // map cannot fit in a few MB of shared cache.
        let profile = NetworkProfile::of(&targeted_decoder());
        let fp = MemoryFootprint::of(&profile, Precision::Int8);
        let soc_cache = 4 * 1024 * 1024;
        assert!(fp.weight_bytes > soc_cache);
        assert!(fp.peak_feature_bytes >= 16 * 1024 * 1024);
    }

    #[test]
    fn working_set_combines_weights_and_peak_feature() {
        let profile = NetworkProfile::of(&targeted_decoder());
        let fp = MemoryFootprint::of(&profile, Precision::Int8);
        assert_eq!(
            fp.working_set_bytes(),
            fp.weight_bytes + fp.peak_feature_bytes
        );
        assert!(fp.total_feature_bytes > fp.peak_feature_bytes);
    }
}
