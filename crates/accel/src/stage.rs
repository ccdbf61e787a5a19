//! Pipeline stages: fused Conv-like layers.
//!
//! The Construction step of F-CAD fuses lightweight layers (activations,
//! reshapes) into their neighbouring major layer and attaches up-sampling to
//! the preceding convolution, so one pipeline stage corresponds to one
//! Conv-like (or Dense) layer plus its fused epilogue. [`ConvStage`] is that
//! fused unit, carrying exactly the geometry the latency / resource models
//! need.

use fcad_profiler::{BranchProfile, LayerProfile};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One pipeline stage: a convolution (or dense layer treated as a 1×1
/// convolution on a 1×1 map) together with its fused activation and
/// up-sampling epilogue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvStage {
    /// Stage name (taken from the compute layer it wraps).
    pub name: String,
    /// Input channels of the convolution.
    pub in_channels: usize,
    /// Output channels of the convolution.
    pub out_channels: usize,
    /// Input feature-map height (before the convolution).
    pub in_height: usize,
    /// Input feature-map width.
    pub in_width: usize,
    /// Output feature-map height of the convolution (before up-sampling).
    pub out_height: usize,
    /// Output feature-map width of the convolution (before up-sampling).
    pub out_width: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Fused nearest-neighbour up-sampling factor applied after the
    /// convolution (1 when none).
    pub upsample: usize,
    /// Multiply-accumulates per inference.
    pub macs: u64,
    /// Total operations per inference (including fused epilogue work).
    pub ops: u64,
    /// Learnable parameters (weights plus bias).
    pub params: u64,
}

impl ConvStage {
    /// Builds a synthetic stage from raw dimensions — handy in tests and for
    /// layers that do not come from an IR network.
    pub fn synthetic(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        out_height: usize,
        out_width: usize,
        kernel: usize,
        upsample: usize,
    ) -> Self {
        let macs =
            (out_channels * in_channels * kernel * kernel) as u64 * (out_height * out_width) as u64;
        let params = (out_channels * in_channels * kernel * kernel + out_channels) as u64;
        Self {
            name: name.into(),
            in_channels,
            out_channels,
            in_height: out_height,
            in_width: out_width,
            out_height,
            out_width,
            kernel,
            upsample: upsample.max(1),
            macs,
            ops: 2 * macs + (out_channels * out_height * out_width) as u64,
            params,
        }
    }

    /// Builds the fused stage list of a profiled branch: every compute layer
    /// becomes a stage; trailing activation / up-sampling / reshape layers
    /// are folded into the preceding stage (their ops are charged to it and
    /// up-sampling scales its effective output).
    ///
    /// Non-compute layers appearing before the first compute layer (e.g. the
    /// decoder's input reshape) are ignored: they carry no work.
    pub fn stages_of_branch(branch: &BranchProfile) -> Vec<ConvStage> {
        Self::stages_of_branch_from(branch, 0)
    }

    /// Builds the fused stage list for the suffix of a branch starting at
    /// layer index `from` (used after branch reorganization, where shared
    /// prefixes belong to another branch).
    pub fn stages_of_branch_from(branch: &BranchProfile, from: usize) -> Vec<ConvStage> {
        let mut stages: Vec<ConvStage> = Vec::new();
        for layer in branch.layers.iter().skip(from) {
            if layer.is_compute {
                stages.push(ConvStage::from_compute_layer(layer));
            } else if let Some(stage) = stages.last_mut() {
                stage.fuse_epilogue(layer);
            }
        }
        stages
    }

    fn from_compute_layer(layer: &LayerProfile) -> Self {
        Self {
            name: layer.name.clone(),
            in_channels: layer.input.channels,
            out_channels: layer.output.channels,
            in_height: layer.input.height,
            in_width: layer.input.width,
            out_height: layer.output.height,
            out_width: layer.output.width,
            kernel: layer.kernel,
            upsample: 1,
            macs: layer.macs,
            ops: layer.ops,
            params: layer.params,
        }
    }

    fn fuse_epilogue(&mut self, layer: &LayerProfile) {
        // Fused lightweight layers contribute their op count to the stage;
        // an up-sampling layer additionally scales the stage's effective
        // output feature map (which downstream stages see as their input).
        self.ops += layer.ops;
        if layer.output.height > layer.input.height && layer.input.height > 0 {
            let factor = layer.output.height / layer.input.height;
            self.upsample *= factor.max(1);
        }
    }

    /// Output height after the fused up-sampling.
    pub fn upsampled_height(&self) -> usize {
        self.out_height * self.upsample
    }

    /// Output width after the fused up-sampling.
    pub fn upsampled_width(&self) -> usize {
        self.out_width * self.upsample
    }

    /// Output elements written by the stage (after up-sampling).
    pub fn output_elements(&self) -> usize {
        self.out_channels * self.upsampled_height() * self.upsampled_width()
    }

    /// Input elements read by the stage.
    pub fn input_elements(&self) -> usize {
        self.in_channels * self.in_height * self.in_width
    }

    /// The maximum two-level (channel-only) parallel factor `InCh × OutCh` —
    /// the ceiling that limits DNNBuilder-style accelerators (Sec. III).
    pub fn channel_parallelism_limit(&self) -> usize {
        self.in_channels * self.out_channels
    }
}

impl fmt::Display for ConvStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}x{}x{} -> {}x{}x{} (k{}, up{})",
            self.name,
            self.in_channels,
            self.in_height,
            self.in_width,
            self.out_channels,
            self.upsampled_height(),
            self.upsampled_width(),
            self.kernel,
            self.upsample
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcad_nnir::models::{targeted_decoder, vgg16};
    use fcad_profiler::NetworkProfile;

    #[test]
    fn decoder_branches_fuse_to_expected_stage_counts() {
        let profile = NetworkProfile::of(&targeted_decoder());
        let stages: Vec<Vec<ConvStage>> = profile
            .branches()
            .iter()
            .map(ConvStage::stages_of_branch)
            .collect();
        // Branch 1: 6 convs, branch 2: 8 convs, branch 3: 6 convs.
        assert_eq!(stages[0].len(), 6);
        assert_eq!(stages[1].len(), 8);
        assert_eq!(stages[2].len(), 6);
    }

    #[test]
    fn cau_blocks_fuse_upsampling_into_the_conv_stage() {
        let profile = NetworkProfile::of(&targeted_decoder());
        let br1 = &profile.branches()[0];
        let stages = ConvStage::stages_of_branch(br1);
        // Every CAU conv stage carries a x2 up-sample; the final conv does not.
        for stage in &stages[..stages.len() - 1] {
            assert_eq!(stage.upsample, 2, "{}", stage.name);
        }
        assert_eq!(stages.last().unwrap().upsample, 1);
        // The chain of shapes is preserved: stage i+1 input = stage i
        // upsampled output.
        for pair in stages.windows(2) {
            assert_eq!(pair[1].in_height, pair[0].upsampled_height());
            assert_eq!(pair[1].in_channels, pair[0].out_channels);
        }
    }

    #[test]
    fn stage_ops_cover_all_branch_ops() {
        let profile = NetworkProfile::of(&targeted_decoder());
        for branch in profile.branches() {
            let stages = ConvStage::stages_of_branch(branch);
            let stage_ops: u64 = stages.iter().map(|s| s.ops).sum();
            // The input reshape carries no ops, so fused stages account for
            // every operation of the branch.
            assert_eq!(stage_ops, branch.ops());
        }
    }

    #[test]
    fn stages_from_offset_skip_the_shared_prefix() {
        let net = targeted_decoder();
        let profile = NetworkProfile::of(&net);
        let warp = &profile.branches()[2];
        let own = ConvStage::stages_of_branch_from(warp, warp.shared_prefix_len);
        assert_eq!(own.len(), 1, "warp branch owns a single output conv");
        assert_eq!(own[0].out_channels, 2);
    }

    #[test]
    fn dense_layers_become_1x1_stages() {
        let profile = NetworkProfile::of(&vgg16());
        let stages = ConvStage::stages_of_branch(&profile.branches()[0]);
        let fc = stages.last().unwrap();
        assert_eq!(fc.out_height, 1);
        assert_eq!(fc.out_width, 1);
        assert_eq!(fc.kernel, 1);
        assert_eq!(fc.out_channels, 1000);
    }

    #[test]
    fn channel_parallelism_limit_matches_section_iii() {
        let conv7 = ConvStage::synthetic("conv7", 16, 16, 512, 512, 3, 1);
        assert_eq!(conv7.channel_parallelism_limit(), 256);
    }
}
