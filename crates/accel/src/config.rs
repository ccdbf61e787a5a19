//! Hardware configuration types — the coordinates of the multi-branch
//! dynamic design space (Table III).

use crate::parallelism::Parallelism;
use fcad_nnir::Precision;
use std::fmt;

/// Configuration of one pipeline stage: the 3D-parallelism factors of its
/// basic architecture unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageConfig {
    /// Parallelism of the stage's basic architecture unit.
    pub parallelism: Parallelism,
}

impl StageConfig {
    /// Creates a stage configuration.
    pub fn new(parallelism: Parallelism) -> Self {
        Self { parallelism }
    }

    /// The minimal (1, 1, 1) configuration.
    pub fn minimal() -> Self {
        Self::new(Parallelism::unit())
    }
}

/// Configuration of one branch pipeline (`config_j` in Table III): a batch
/// size (pipeline replication factor) plus one [`StageConfig`] per stage.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchConfig {
    /// Number of pipeline copies instantiated for the branch (the paper's
    /// per-branch `batchsize`); each copy processes a different frame.
    pub batch_size: usize,
    /// One configuration per pipeline stage, in execution order.
    pub stages: Vec<StageConfig>,
}

impl BranchConfig {
    /// Creates a branch configuration.
    pub fn new(batch_size: usize, stages: Vec<StageConfig>) -> Self {
        Self {
            batch_size: batch_size.max(1),
            stages,
        }
    }

    /// A minimal configuration (batch 1, unit parallelism) for `stage_count`
    /// stages.
    pub fn minimal(stage_count: usize) -> Self {
        Self::new(1, vec![StageConfig::minimal(); stage_count])
    }

    /// Number of stages configured.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }
}

/// A complete accelerator configuration: one [`BranchConfig`] per branch
/// plus the quantization (`Q` in Table III).
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Per-branch configurations, in branch order.
    pub branches: Vec<BranchConfig>,
    /// Numeric precision of weights and activations.
    pub precision: Precision,
}

impl AcceleratorConfig {
    /// Creates an accelerator configuration.
    pub fn new(branches: Vec<BranchConfig>, precision: Precision) -> Self {
        Self {
            branches,
            precision,
        }
    }

    /// Number of configured branches.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }
}

impl fmt::Display for AcceleratorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "accelerator config ({} precision)", self.precision)?;
        for (i, branch) in self.branches.iter().enumerate() {
            write!(f, "  Br.{}: batch {}, stages [", i + 1, branch.batch_size)?;
            for (j, stage) in branch.stages.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", stage.parallelism)?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_config_has_unit_parallelism() {
        let cfg = BranchConfig::minimal(4);
        assert_eq!(cfg.batch_size, 1);
        assert_eq!(cfg.stage_count(), 4);
    }

    #[test]
    fn batch_size_is_at_least_one() {
        let cfg = BranchConfig::new(0, vec![]);
        assert_eq!(cfg.batch_size, 1);
    }

    #[test]
    fn display_lists_every_branch() {
        let cfg = AcceleratorConfig::new(
            vec![BranchConfig::minimal(2), BranchConfig::minimal(3)],
            Precision::Int8,
        );
        let text = cfg.to_string();
        assert!(text.contains("Br.1"));
        assert!(text.contains("Br.2"));
        assert!(text.contains("8-bit"));
        assert_eq!(cfg.branch_count(), 2);
    }
}
