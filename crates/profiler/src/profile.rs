//! Layer-, branch- and network-level demand statistics.

use fcad_nnir::{BranchId, LayerId, Network, Precision, TensorShape};

/// Compute and memory demand of a single layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Id of the layer inside the profiled network.
    pub layer_id: LayerId,
    /// Layer name.
    pub name: String,
    /// Whether the layer performs multiply-accumulate work (Conv / Dense).
    pub is_compute: bool,
    /// Whether the layer is "major" (Conv-like or up-sampling) and therefore
    /// occupies its own pipeline stage after layer fusion.
    pub is_major: bool,
    /// Input feature-map shape.
    pub input: TensorShape,
    /// Output feature-map shape.
    pub output: TensorShape,
    /// Kernel size (1 for non-convolution layers).
    pub kernel: usize,
    /// Multiply-accumulates per inference.
    pub macs: u64,
    /// Total operations per inference (2 ops per MAC plus auxiliary work).
    pub ops: u64,
    /// Learnable parameters.
    pub params: u64,
}

impl LayerProfile {
    fn of(net: &Network, id: LayerId) -> Self {
        let layer = net.layer(id).expect("layer id comes from this network");
        Self {
            layer_id: id,
            name: layer.name().to_owned(),
            is_compute: layer.kind().is_compute(),
            is_major: layer.kind().is_major(),
            input: layer.input_shape(),
            output: layer.output_shape(),
            kernel: layer.kernel(),
            macs: layer.macs(),
            ops: layer.ops(),
            params: layer.params(),
        }
    }

    /// Weight traffic in bytes at the given precision.
    pub fn weight_bytes(&self, precision: Precision) -> u64 {
        self.params * precision.bytes() as u64
    }
}

/// Demand statistics of one branch (including its shared prefix).
#[derive(Debug, Clone, PartialEq)]
pub struct BranchProfile {
    /// Id of the branch inside the profiled network.
    pub branch_id: BranchId,
    /// Branch name.
    pub name: String,
    /// Per-layer statistics in execution order (including the shared prefix).
    pub layers: Vec<LayerProfile>,
    /// Number of leading layers shared with a parent branch.
    pub shared_prefix_len: usize,
    /// Input shape of the branch.
    pub input: TensorShape,
    /// Output shape of the branch.
    pub output: TensorShape,
}

impl BranchProfile {
    /// Total operations of the branch.
    pub fn ops(&self) -> u64 {
        self.layers.iter().map(|l| l.ops).sum()
    }

    /// Total MACs of the branch.
    pub fn macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Total parameters of the branch.
    pub fn params(&self) -> u64 {
        self.layers.iter().map(|l| l.params).sum()
    }

    /// Number of layers in the branch.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The compute layers of the branch only (the units the accelerator
    /// instantiates pipeline stages for).
    pub fn compute_layers(&self) -> impl Iterator<Item = &LayerProfile> {
        self.layers.iter().filter(|l| l.is_compute)
    }
}

/// Full profile of a multi-branch network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    network_name: String,
    branches: Vec<BranchProfile>,
    total_ops: u64,
    total_macs: u64,
    total_params: u64,
    max_intermediate_elements: usize,
}

impl NetworkProfile {
    /// Profiles a network.
    pub fn of(net: &Network) -> Self {
        let branches = net
            .branches()
            .map(|(id, branch)| BranchProfile {
                branch_id: id,
                name: branch.name().to_owned(),
                layers: branch
                    .layer_ids()
                    .iter()
                    .map(|lid| LayerProfile::of(net, *lid))
                    .collect(),
                shared_prefix_len: branch.shared_prefix_len(),
                input: branch.input_shape(),
                output: net.branch_output_shape(id).unwrap_or_default(),
            })
            .collect();
        Self {
            network_name: net.name().to_owned(),
            branches,
            total_ops: net.total_ops(),
            total_macs: net.total_macs(),
            total_params: net.total_params(),
            max_intermediate_elements: net.max_intermediate_elements(),
        }
    }

    /// Name of the profiled network.
    pub fn network_name(&self) -> &str {
        &self.network_name
    }

    /// Per-branch profiles in declaration order.
    pub fn branches(&self) -> &[BranchProfile] {
        &self.branches
    }

    /// Profile of a single branch.
    pub fn branch(&self, id: BranchId) -> Option<&BranchProfile> {
        self.branches.iter().find(|b| b.branch_id == id)
    }

    /// Total operations per inference with shared layers counted once.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Total MACs per inference with shared layers counted once.
    pub fn total_macs(&self) -> u64 {
        self.total_macs
    }

    /// Total parameters with shared layers counted once.
    pub fn total_params(&self) -> u64 {
        self.total_params
    }

    /// Total operations per inference counting shared layers once per branch
    /// (the basis the paper uses for its per-branch percentages).
    pub fn double_counted_ops(&self) -> u64 {
        self.branches.iter().map(BranchProfile::ops).sum()
    }

    /// Total parameters counting shared layers once per branch.
    pub fn double_counted_params(&self) -> u64 {
        self.branches.iter().map(BranchProfile::params).sum()
    }

    /// Share of (double-counted) operations contributed by each branch.
    pub fn ops_shares(&self) -> Vec<f64> {
        let total = self.double_counted_ops().max(1) as f64;
        self.branches
            .iter()
            .map(|b| b.ops() as f64 / total)
            .collect()
    }

    /// Share of (double-counted) parameters contributed by each branch.
    pub fn param_shares(&self) -> Vec<f64> {
        let total = self.double_counted_params().max(1) as f64;
        self.branches
            .iter()
            .map(|b| b.params() as f64 / total)
            .collect()
    }

    /// Largest intermediate feature map anywhere in the network, in elements.
    pub fn max_intermediate_elements(&self) -> usize {
        self.max_intermediate_elements
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcad_nnir::models::{targeted_decoder, vgg16};

    #[test]
    fn decoder_profile_matches_network_totals() {
        let net = targeted_decoder();
        let profile = NetworkProfile::of(&net);
        assert_eq!(profile.total_ops(), net.total_ops());
        assert_eq!(profile.total_params(), net.total_params());
        assert_eq!(profile.branches().len(), 3);
    }

    #[test]
    fn double_counted_ops_exceed_deduplicated_ops_for_shared_branches() {
        let profile = NetworkProfile::of(&targeted_decoder());
        assert!(profile.double_counted_ops() > profile.total_ops());
        // For a single-branch network they are equal.
        let vgg = NetworkProfile::of(&vgg16());
        assert_eq!(vgg.double_counted_ops(), vgg.total_ops());
    }

    #[test]
    fn ops_shares_match_table1_percentages() {
        let profile = NetworkProfile::of(&targeted_decoder());
        let shares = profile.ops_shares();
        // Paper: 10.5% / 62.4% / 27.1%.
        assert!((shares[0] - 0.105).abs() < 0.03, "br1 share {}", shares[0]);
        assert!((shares[1] - 0.624).abs() < 0.04, "br2 share {}", shares[1]);
        assert!((shares[2] - 0.271).abs() < 0.04, "br3 share {}", shares[2]);
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn compute_layer_counts_follow_structure() {
        let net = targeted_decoder();
        let profile = NetworkProfile::of(&net);
        // Branch 1: 5 CAU convs + output conv = 6 compute layers.
        assert_eq!(profile.branches()[0].compute_layers().count(), 6);
        // Branch 2: 5 shared + 2 own CAU convs + output conv = 8.
        assert_eq!(profile.branches()[1].compute_layers().count(), 8);
        // Branch 3: 5 shared convs + output conv = 6.
        assert_eq!(profile.branches()[2].compute_layers().count(), 6);
    }
}
