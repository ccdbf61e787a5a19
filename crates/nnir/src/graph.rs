//! Branch-structured network graph.
//!
//! A [`Network`] is a set of [`Branch`]es, each an ordered chain of layers.
//! Branches may share a common front part (branches 2 and 3 of the targeted
//! decoder share their first layers); shared layers are stored once and
//! referenced by both branches, so network-wide totals never double-count
//! them — matching the paper's "without repeatedly counting the shared part"
//! convention for Table I.

use crate::error::{Error, Result};
use crate::layer::Layer;
use crate::tensor::{Precision, TensorShape};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Identifier of a layer within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LayerId(pub(crate) usize);

impl LayerId {
    /// Index of the layer in [`Network::layers`].
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Identifier of a branch within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BranchId(pub(crate) usize);

impl BranchId {
    /// Index of the branch in [`Network::branches`].
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for BranchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Br.{}", self.0 + 1)
    }
}

/// One branch of a multi-branch network: an ordered chain of layers from the
/// branch input to the branch output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Branch {
    pub(crate) name: String,
    pub(crate) input: TensorShape,
    pub(crate) layers: Vec<LayerId>,
    /// When this branch was forked from another branch, `(parent, n)` means
    /// the first `n` layers of this branch are the same layer instances as
    /// the parent's first `n` layers.
    pub(crate) fork_of: Option<(BranchId, usize)>,
}

impl Branch {
    /// Branch name (unique within the network).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shape of the branch input.
    pub fn input_shape(&self) -> TensorShape {
        self.input
    }

    /// Ordered layer ids of this branch, including any shared prefix.
    pub fn layer_ids(&self) -> &[LayerId] {
        &self.layers
    }

    /// Number of layers in this branch (including the shared prefix).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the branch has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The parent branch and prefix length this branch shares, if any.
    pub fn fork_of(&self) -> Option<(BranchId, usize)> {
        self.fork_of
    }

    /// Number of leading layers shared with a parent branch (0 when the
    /// branch is independent).
    pub fn shared_prefix_len(&self) -> usize {
        self.fork_of.map(|(_, n)| n).unwrap_or(0)
    }
}

/// A validated multi-branch network.
///
/// Construct one through [`crate::NetworkBuilder`] or pick a ready-made model
/// from [`crate::models`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Network {
    pub(crate) name: String,
    pub(crate) layers: Vec<Layer>,
    pub(crate) branches: Vec<Branch>,
}

impl Network {
    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of branches.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Number of distinct layers (shared layers counted once).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// All branches in declaration order.
    pub fn branches(&self) -> impl Iterator<Item = (BranchId, &Branch)> {
        self.branches
            .iter()
            .enumerate()
            .map(|(i, b)| (BranchId(i), b))
    }

    /// All branch ids in declaration order.
    pub fn branch_ids(&self) -> impl Iterator<Item = BranchId> {
        (0..self.branches.len()).map(BranchId)
    }

    /// All distinct layers.
    pub fn layers(&self) -> impl Iterator<Item = (LayerId, &Layer)> {
        self.layers.iter().enumerate().map(|(i, l)| (LayerId(i), l))
    }

    /// Looks up a branch by id.
    pub fn branch(&self, id: BranchId) -> Option<&Branch> {
        self.branches.get(id.0)
    }

    /// Looks up a branch by name.
    pub fn branch_by_name(&self, name: &str) -> Option<(BranchId, &Branch)> {
        self.branches().find(|(_, branch)| branch.name() == name)
    }

    /// Looks up a layer by id.
    pub fn layer(&self, id: LayerId) -> Option<&Layer> {
        self.layers.get(id.0)
    }

    /// Ordered layers of one branch (including its shared prefix).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn branch_layers(&self, id: BranchId) -> Vec<&Layer> {
        self.branches[id.0]
            .layers
            .iter()
            .map(|lid| &self.layers[lid.0])
            .collect()
    }

    /// Output shape of a branch (output of its last layer), or the branch
    /// input when the branch is empty.
    pub fn branch_output_shape(&self, id: BranchId) -> Option<TensorShape> {
        let branch = self.branch(id)?;
        Some(match branch.layers.last() {
            Some(last) => self.layers[last.0].output_shape(),
            None => branch.input,
        })
    }

    /// Total multiply-accumulates per inference, shared layers counted once.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }

    /// Total operations per inference (2 ops/MAC plus auxiliary work),
    /// shared layers counted once.
    pub fn total_ops(&self) -> u64 {
        self.layers.iter().map(Layer::ops).sum()
    }

    /// Total learnable parameters, shared layers counted once.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(Layer::params).sum()
    }

    /// Total weight bytes at `precision`, shared layers counted once.
    pub fn total_weight_bytes(&self, precision: Precision) -> u64 {
        self.layers.iter().map(|l| l.weight_bytes(precision)).sum()
    }

    /// Operations of one branch, including its shared prefix.
    pub fn branch_ops(&self, id: BranchId) -> u64 {
        self.branch_layers(id).iter().map(|l| l.ops()).sum()
    }

    /// Parameters of one branch, including its shared prefix.
    pub fn branch_params(&self, id: BranchId) -> u64 {
        self.branch_layers(id).iter().map(|l| l.params()).sum()
    }

    /// Largest intermediate feature map (in elements) produced anywhere in
    /// the network — the paper highlights intermediate maps as large as
    /// 16×1024×1024 for the decoder.
    pub fn max_intermediate_elements(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.output_shape().elements())
            .max()
            .unwrap_or(0)
    }

    /// Layer ids that belong to more than one branch (the shared front part).
    pub fn shared_layer_ids(&self) -> Vec<LayerId> {
        let mut seen: HashSet<LayerId> = HashSet::new();
        let mut shared: HashSet<LayerId> = HashSet::new();
        for branch in &self.branches {
            for lid in &branch.layers {
                if !seen.insert(*lid) {
                    shared.insert(*lid);
                }
            }
        }
        let mut out: Vec<LayerId> = shared.into_iter().collect();
        out.sort();
        out
    }

    /// Checks structural invariants: unique names, consistent shape chains
    /// within every branch, and fork prefixes that really match their parent.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidNetwork`] describing the first violation found.
    pub fn validate(&self) -> Result<()> {
        if self.branches.is_empty() {
            return Err(Error::InvalidNetwork {
                reason: "network has no branches".to_owned(),
            });
        }
        let mut names = HashSet::new();
        for layer in &self.layers {
            if !names.insert(layer.name().to_owned()) {
                return Err(Error::InvalidNetwork {
                    reason: format!("duplicate layer name `{}`", layer.name()),
                });
            }
        }
        let mut branch_names = HashSet::new();
        for (id, branch) in self.branches() {
            if !branch_names.insert(branch.name().to_owned()) {
                return Err(Error::InvalidNetwork {
                    reason: format!("duplicate branch name `{}`", branch.name()),
                });
            }
            if branch.is_empty() {
                return Err(Error::InvalidNetwork {
                    reason: format!("branch `{}` has no layers", branch.name()),
                });
            }
            let mut current = branch.input;
            for lid in &branch.layers {
                let layer = self.layer(*lid).ok_or_else(|| Error::InvalidNetwork {
                    reason: format!("branch `{}` references missing {lid}", branch.name()),
                })?;
                if layer.input_shape() != current {
                    return Err(Error::InvalidNetwork {
                        reason: format!(
                            "branch `{}`: layer `{}` expects input {} but receives {}",
                            branch.name(),
                            layer.name(),
                            layer.input_shape(),
                            current
                        ),
                    });
                }
                current = layer.output_shape();
            }
            if let Some((parent, n)) = branch.fork_of {
                let parent_branch = self.branch(parent).ok_or_else(|| Error::InvalidNetwork {
                    reason: format!("branch `{}` forks from missing {parent}", branch.name()),
                })?;
                if parent_branch.layers.len() < n || branch.layers.len() < n {
                    return Err(Error::InvalidNetwork {
                        reason: format!(
                            "branch `{}` claims a {n}-layer shared prefix longer than the branches",
                            branch.name()
                        ),
                    });
                }
                if parent_branch.layers[..n] != branch.layers[..n] {
                    return Err(Error::InvalidNetwork {
                        reason: format!(
                            "branch `{}` shared prefix does not match its parent `{}`",
                            branch.name(),
                            parent_branch.name()
                        ),
                    });
                }
                if id == parent {
                    return Err(Error::InvalidNetwork {
                        reason: format!("branch `{}` forks from itself", branch.name()),
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} branches, {} layers, {:.2} GOP, {:.2} M params",
            self.name,
            self.branch_count(),
            self.layer_count(),
            self.total_ops() as f64 / 1e9,
            self.total_params() as f64 / 1e6
        )?;
        for (id, branch) in self.branches() {
            let out = self.branch_output_shape(id).unwrap_or_default();
            writeln!(
                f,
                "  {id} `{}`: {} -> {} ({} layers, {:.2} GOP)",
                branch.name(),
                branch.input_shape(),
                out,
                branch.len(),
                self.branch_ops(id) as f64 / 1e9
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::layer::{ActivationKind, BiasKind};

    fn two_branch_net() -> Network {
        let mut b = NetworkBuilder::new("test");
        let br1 = b.add_branch("a", TensorShape::chw(4, 8, 8));
        b.conv(br1, 8, 3, BiasKind::PerChannel).unwrap();
        b.activation(br1, ActivationKind::LeakyRelu).unwrap();
        b.upsample(br1, 2).unwrap();
        let br2 = b.fork_branch("b", br1).unwrap();
        b.conv(br1, 3, 3, BiasKind::Untied).unwrap();
        b.conv(br2, 2, 3, BiasKind::Untied).unwrap();
        b.build().expect("valid network")
    }

    #[test]
    fn shared_layers_counted_once() {
        let net = two_branch_net();
        assert_eq!(net.branch_count(), 2);
        // 3 shared layers + 1 own layer per branch.
        assert_eq!(net.layer_count(), 5);
        assert_eq!(net.shared_layer_ids().len(), 3);
        let (id_a, _) = net.branch_by_name("a").unwrap();
        let (id_b, _) = net.branch_by_name("b").unwrap();
        let total = net.total_ops();
        let sum_branches = net.branch_ops(id_a) + net.branch_ops(id_b);
        assert!(sum_branches > total, "branch sums double-count the prefix");
    }

    #[test]
    fn branch_output_shapes() {
        let net = two_branch_net();
        let (id_a, _) = net.branch_by_name("a").unwrap();
        let (id_b, _) = net.branch_by_name("b").unwrap();
        assert_eq!(
            net.branch_output_shape(id_a),
            Some(TensorShape::chw(3, 16, 16))
        );
        assert_eq!(
            net.branch_output_shape(id_b),
            Some(TensorShape::chw(2, 16, 16))
        );
    }

    #[test]
    fn validation_passes_for_builder_output() {
        let net = two_branch_net();
        assert!(net.validate().is_ok());
    }

    #[test]
    fn validation_rejects_broken_prefix() {
        let mut net = two_branch_net();
        // Corrupt the fork metadata: claim a longer shared prefix than real.
        net.branches[1].fork_of = Some((BranchId(0), 4));
        assert!(net.validate().is_err());
    }

    #[test]
    fn max_intermediate_tracks_largest_map() {
        let net = two_branch_net();
        // The upsampled 8x16x16 map is the largest intermediate (2048 elems).
        assert_eq!(net.max_intermediate_elements(), 8 * 16 * 16);
    }

    #[test]
    fn display_mentions_branches() {
        let net = two_branch_net();
        let text = net.to_string();
        assert!(text.contains("Br.1"));
        assert!(text.contains("`a`"));
    }
}
