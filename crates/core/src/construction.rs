//! The Construction step: layer fusion, branch reorganization and elastic
//! architecture instantiation (Sec. IV, "Construction").

use fcad_accel::{BranchPipeline, ConvStage, ElasticAccelerator, Platform};
use fcad_nnir::Network;
use fcad_profiler::NetworkProfile;

/// How one branch was mapped onto the elastic architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchConstruction {
    /// Branch name.
    pub name: String,
    /// Layers of the branch in the IR (including any shared prefix).
    pub ir_layers: usize,
    /// Leading layers handed to another (more compute-demanding) branch
    /// during reorganization.
    pub reassigned_prefix_layers: usize,
    /// Pipeline stages instantiated for this branch after layer fusion.
    pub stages: usize,
    /// Whether this branch is the critical flow that received shared layers.
    pub owns_shared_prefix: bool,
}

/// Result of the Construction step: the per-branch mapping plus the fused
/// stage lists that become the accelerator's branch pipelines.
#[derive(Debug, Clone, PartialEq)]
pub struct Construction {
    branches: Vec<BranchConstruction>,
    pipelines: Vec<(String, Vec<ConvStage>)>,
}

impl Construction {
    /// Performs layer fusion and branch reorganization on a profiled
    /// network.
    ///
    /// Lightweight layers (activations, reshapes) are fused into their
    /// neighbouring major layer and up-sampling is attached to the preceding
    /// convolution, so every stage is Conv-like. Shared branch prefixes are
    /// assigned to the sharing branch with the highest compute demand — the
    /// *critical flow* — so no hardware is duplicated and the heaviest flow
    /// gets the attention of the Optimization step.
    pub fn of(network: &Network, profile: &NetworkProfile) -> Self {
        // Decide, for every branch, how many of its leading layers belong to
        // a more compute-demanding branch.
        let branch_ops: Vec<u64> = profile.branches().iter().map(|b| b.ops()).collect();
        let mut drop_prefix: Vec<usize> = vec![0; profile.branches().len()];
        let mut owns_shared: Vec<bool> = vec![false; profile.branches().len()];

        for (index, branch) in network.branches().map(|(_, b)| b).enumerate() {
            let Some((parent, shared_len)) = branch.fork_of() else {
                continue;
            };
            let parent_index = parent.index();
            let parent_ops = branch_ops.get(parent_index).copied().unwrap_or(0);
            let own_ops = branch_ops[index];
            if own_ops > parent_ops {
                // This branch is the critical flow: it keeps the shared
                // prefix and the parent drops it.
                drop_prefix[parent_index] = drop_prefix[parent_index].max(shared_len);
                owns_shared[index] = true;
            } else {
                // The parent is (at least as) critical: this branch hands its
                // shared prefix over.
                drop_prefix[index] = drop_prefix[index].max(shared_len);
                owns_shared[parent_index] = true;
            }
        }

        let mut branches = Vec::with_capacity(profile.branches().len());
        let mut pipelines = Vec::with_capacity(profile.branches().len());
        for (index, branch_profile) in profile.branches().iter().enumerate() {
            let stages = ConvStage::stages_of_branch_from(branch_profile, drop_prefix[index]);
            branches.push(BranchConstruction {
                name: branch_profile.name.clone(),
                ir_layers: branch_profile.layer_count(),
                reassigned_prefix_layers: drop_prefix[index],
                stages: stages.len(),
                owns_shared_prefix: owns_shared[index],
            });
            pipelines.push((branch_profile.name.clone(), stages));
        }
        Self {
            branches,
            pipelines,
        }
    }

    /// Per-branch construction summaries.
    pub fn branches(&self) -> &[BranchConstruction] {
        &self.branches
    }

    /// Instantiates the elastic architecture for a platform: one branch
    /// pipeline per (reorganized) branch, expanded along the X axis by its
    /// stage count and along the Y axis by the branch count.
    pub fn instantiate(&self, name: impl Into<String>, platform: &Platform) -> ElasticAccelerator {
        let pipelines = self
            .pipelines
            .iter()
            .map(|(branch_name, stages)| BranchPipeline::new(branch_name.clone(), stages.clone()))
            .collect();
        ElasticAccelerator::for_platform(name, pipelines, platform)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcad_nnir::models::{targeted_decoder, vgg16};

    fn construct(net: &Network) -> Construction {
        let profile = NetworkProfile::of(net);
        Construction::of(net, &profile)
    }

    #[test]
    fn decoder_shared_prefix_goes_to_the_texture_branch() {
        let net = targeted_decoder();
        let construction = construct(&net);
        let by_name = |n: &str| {
            construction
                .branches()
                .iter()
                .find(|b| b.name == n)
                .unwrap()
                .clone()
        };
        let texture = by_name("texture");
        let warp = by_name("warp");
        let geometry = by_name("geometry");
        assert!(texture.owns_shared_prefix);
        assert!(!warp.owns_shared_prefix);
        assert_eq!(texture.reassigned_prefix_layers, 0);
        assert_eq!(warp.reassigned_prefix_layers, 1 + 5 * 3);
        assert_eq!(geometry.reassigned_prefix_layers, 0);
        // Stage counts after reorganization: 6 + 8 + 1.
        assert_eq!(geometry.stages, 6);
        assert_eq!(texture.stages, 8);
        assert_eq!(warp.stages, 1);
    }

    #[test]
    fn no_hardware_is_duplicated_for_shared_layers() {
        let net = targeted_decoder();
        let construction = construct(&net);
        // Total stages equals the number of distinct compute layers.
        let distinct_compute = net.layers().filter(|(_, l)| l.kind().is_compute()).count();
        let stages: usize = construction.branches().iter().map(|b| b.stages).sum();
        assert_eq!(stages, distinct_compute);
    }

    #[test]
    fn single_branch_networks_are_unchanged() {
        let net = vgg16();
        let construction = construct(&net);
        assert_eq!(construction.branches().len(), 1);
        assert_eq!(construction.branches()[0].reassigned_prefix_layers, 0);
        assert!(!construction.branches()[0].owns_shared_prefix);
    }

    #[test]
    fn instantiation_builds_one_pipeline_per_branch() {
        let net = targeted_decoder();
        let construction = construct(&net);
        let accelerator = construction.instantiate("decoder-accel", &Platform::zu9cg());
        assert_eq!(accelerator.branch_count(), 3);
        let stage_counts: Vec<usize> = accelerator
            .branches()
            .iter()
            .map(|b| b.stage_count())
            .collect();
        assert_eq!(stage_counts, vec![6, 8, 1]);
        assert_eq!(accelerator.frequency_hz(), 200e6);
    }
}
