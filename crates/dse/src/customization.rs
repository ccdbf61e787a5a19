//! User customization of the exploration (the `U` inputs of Algorithm 1).

use fcad_nnir::Precision;

/// Application-specific customization: quantization `Q`, per-branch target
/// batch sizes and per-branch priorities (Table III, "Customization" row).
///
/// For the codec avatar decoder the paper uses batch sizes `{1, 2, 2}` —
/// the texture and warp-field branches render one output per eye while the
/// facial geometry is shared by both eyes — and uniform priorities.
#[derive(Debug, Clone, PartialEq)]
pub struct Customization {
    /// Numeric precision (`Q`).
    pub precision: Precision,
    /// Target batch size per branch (`BatchSize_1..B`).
    pub batch_sizes: Vec<usize>,
    /// Priority weight per branch (`P_1..B`); higher means more important.
    pub priorities: Vec<f64>,
}

impl Customization {
    /// Uniform customization: batch 1 and priority 1 for `branches` branches.
    pub fn uniform(branches: usize, precision: Precision) -> Self {
        Self {
            precision,
            batch_sizes: vec![1; branches],
            priorities: vec![1.0; branches],
        }
    }

    /// The paper's codec-avatar customization for a three-branch decoder:
    /// batch sizes `{1, 2, 2}` and uniform priorities.
    pub fn codec_avatar(precision: Precision) -> Self {
        Self {
            precision,
            batch_sizes: vec![1, 2, 2],
            priorities: vec![1.0, 1.0, 1.0],
        }
    }

    /// Replaces the per-branch priorities.
    pub fn with_priorities(mut self, priorities: Vec<f64>) -> Self {
        self.priorities = priorities;
        self
    }

    /// Replaces the per-branch batch sizes.
    pub fn with_batch_sizes(mut self, batch_sizes: Vec<usize>) -> Self {
        self.batch_sizes = batch_sizes;
        self
    }

    /// Number of branches this customization describes.
    pub fn branch_count(&self) -> usize {
        self.batch_sizes.len()
    }

    /// Batch size for branch `index` (1 when unspecified).
    pub fn batch_size(&self, index: usize) -> usize {
        self.batch_sizes.get(index).copied().unwrap_or(1).max(1)
    }

    /// Priority for branch `index` (1.0 when unspecified).
    pub fn priority(&self, index: usize) -> f64 {
        self.priorities.get(index).copied().unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_avatar_matches_the_paper() {
        let c = Customization::codec_avatar(Precision::Int8);
        assert_eq!(c.batch_sizes, vec![1, 2, 2]);
        assert_eq!(c.branch_count(), 3);
        assert_eq!(c.batch_size(1), 2);
        assert_eq!(c.priority(2), 1.0);
    }

    #[test]
    fn out_of_range_lookups_fall_back_to_defaults() {
        let c = Customization::uniform(2, Precision::Int16);
        assert_eq!(c.batch_size(7), 1);
        assert_eq!(c.priority(7), 1.0);
    }

    #[test]
    fn builders_replace_fields() {
        let c = Customization::uniform(2, Precision::Int8)
            .with_priorities(vec![2.0, 1.0])
            .with_batch_sizes(vec![4, 1]);
        assert_eq!(c.priority(0), 2.0);
        assert_eq!(c.batch_size(0), 4);
    }
}
