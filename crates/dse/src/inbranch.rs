//! In-branch greedy optimization (Algorithm 2 of the paper).

use fcad_accel::{
    BranchConfig, BranchPipeline, CostModel, LaneTable, Parallelism, ResourceBudget, StageConfig,
    UnitCost,
};
use fcad_nnir::Precision;
use std::cmp::Reverse;

/// Greedy search for the best configuration of a single branch under a
/// given resource distribution.
///
/// Following Algorithm 2, the optimizer
///
/// 1. derives *optimistic* per-stage parallelism targets by assuming the
///    branch runs at the frame rate its allocated bandwidth could sustain
///    (weights are streamed once per frame), distributing lanes
///    proportionally to each stage's compute so the pipeline stays
///    load-balanced;
/// 2. repeatedly halves all targets while the configuration cannot support
///    the requested batch size within the allocated DSPs / BRAMs /
///    bandwidth;
/// 3. greedily grows the slowest stage again while the batch-size constraint
///    keeps holding, stopping when no stage can grow — "once the parallelism
///    fails to grow".
///
/// Each target becomes a parallelism through `GetPF`
/// ([`LaneTable::for_target`]), which scores one entry per channel-lane
/// count `cpf × kpf` and stops its scan as soon as no smaller entry can
/// come closer to the target, with the same result as a scan of every
/// `(cpf, kpf)` pair.
///
/// [`new`](Self::new) builds one [`LaneTable`] per stage and fixes the
/// order in which the halving rounds read the stages, so callers that
/// search one branch under many budgets should build the optimizer once and
/// reuse it.
///
/// [`optimize`](Self::optimize) costs a stage (GetPF, then its
/// [`UnitCost`]) only when a round reads it, and keeps that cost until the
/// stage's target moves. A halving round reads the stages in descending
/// MACs and fails as soon as the DSPs or BRAMs of the stages read so far
/// leave fewer than the requested copies; only a round that no such prefix
/// fails reads every stage and goes through the full batch check,
/// bandwidth included. The early answer is exact: floor division does not
/// increase as its divisor grows and no stage's DSP or BRAM count is
/// negative, so a prefix that leaves too few copies leaves the whole branch
/// too few as well, and the batch check takes the least of its three copy
/// counts. Costing is pure and every stage read is costed at the target an
/// eager search would use, so the result is the one that costing every
/// stage in every round would give.
#[derive(Debug, Clone)]
pub struct InBranchOptimizer<'a> {
    pipeline: &'a BranchPipeline,
    precision: Precision,
    frequency_hz: f64,
    cost: CostModel,
    tables: Vec<LaneTable>,
    /// Stage indices in descending MACs (stage order among equals): the
    /// order in which a halving round reads the stages.
    order: Vec<usize>,
}

/// One stage's lane target and, once a round has read it, the parallelism
/// and cost that target maps to.
#[derive(Debug, Clone, Copy)]
struct StagePoint {
    target: usize,
    costed: Option<(Parallelism, UnitCost)>,
}

impl StagePoint {
    /// A stage at `target` lanes that no round has read yet.
    fn at(target: usize) -> Self {
        Self {
            target,
            costed: None,
        }
    }

    /// The parallelism and cost of a stage a round has read.
    ///
    /// # Panics
    ///
    /// When no round has read the stage; the halving loop costs every
    /// stage before the growth loop starts.
    fn costed(&self) -> (Parallelism, UnitCost) {
        self.costed
            .expect("the halving loop costs every stage before the growth loop reads it")
    }
}

impl<'a> InBranchOptimizer<'a> {
    /// Creates an optimizer for one branch pipeline.
    pub fn new(pipeline: &'a BranchPipeline, precision: Precision, frequency_hz: f64) -> Self {
        let stages = pipeline.stages();
        let mut order: Vec<usize> = (0..stages.len()).collect();
        order.sort_by_key(|&index| Reverse(stages[index].macs));
        Self {
            pipeline,
            precision,
            frequency_hz,
            cost: CostModel::default(),
            tables: stages.iter().map(LaneTable::of).collect(),
            order,
        }
    }

    /// Replaces the cost model used for utilization estimates.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Finds the largest-parallelism configuration of the branch that
    /// supports `target_batch` pipeline copies within `budget`.
    ///
    /// When even the minimal configuration does not fit, the minimal
    /// configuration is returned; the caller detects infeasibility by
    /// re-evaluating the returned configuration against its budget.
    pub fn optimize(&self, budget: &ResourceBudget, target_batch: usize) -> BranchConfig {
        self.optimize_counted(budget, target_batch).0
    }

    /// [`optimize`](Self::optimize)'s configuration and the number of
    /// stage costings (GetPF, then the unit model) the search ran.
    pub(crate) fn optimize_counted(
        &self,
        budget: &ResourceBudget,
        target_batch: usize,
    ) -> (BranchConfig, usize) {
        let stages = self.pipeline.stages();
        if stages.is_empty() {
            return (BranchConfig::new(target_batch, Vec::new()), 0);
        }
        let mut costings = 0usize;

        // Lines 4–12: optimistic, load-balanced parallelism targets derived
        // from the bandwidth-limited frame rate.
        let weight_bytes: u64 = self.pipeline.weight_bytes_per_frame(self.precision).max(1);
        let bandwidth_fps =
            budget.bandwidth_bytes_per_sec * self.cost.dram_efficiency / weight_bytes as f64;
        let mut points: Vec<StagePoint> = stages
            .iter()
            .map(|stage| {
                let lanes = (stage.macs as f64 * bandwidth_fps / self.frequency_hz).ceil();
                StagePoint::at((lanes as usize).max(1))
            })
            .collect();

        // Lines 13–24: halve until the requested batch size fits.
        let target_batch = target_batch.max(1);
        while !self.fits(&mut points, budget, target_batch, &mut costings) {
            if points.iter().all(|p| p.target <= 1) {
                // The growth loop reads every stage.
                for (index, point) in points.iter_mut().enumerate() {
                    self.read(index, point, &mut costings);
                }
                break;
            }
            for point in &mut points {
                if point.target > 1 {
                    *point = StagePoint::at(point.target / 2);
                }
            }
        }

        // Greedy growth: push the slowest stage further while the batch-size
        // constraint keeps holding.
        let mut growable = vec![true; points.len()];
        let mut guard = 0usize;
        while growable.iter().any(|&g| g) && guard < 512 {
            guard += 1;
            let Some(slowest) = Self::slowest_growable_stage(&points, &growable) else {
                break;
            };
            let max_lanes = Parallelism::max_for(&stages[slowest]).total();
            let current = points[slowest];
            if current.target >= max_lanes {
                growable[slowest] = false;
                continue;
            }
            points[slowest] =
                self.point(slowest, (current.target * 2).min(max_lanes), &mut costings);
            if self.supported_batch(&points, budget) < target_batch {
                points[slowest] = current;
                growable[slowest] = false;
            }
        }

        let configs = points
            .iter()
            .map(|p| StageConfig::new(p.costed().0))
            .collect();
        (BranchConfig::new(target_batch, configs), costings)
    }

    /// Stage `index` at `target` lanes (Algorithm 2's `GetPF`, then the
    /// unit model), counted in `costings`.
    fn point(&self, index: usize, target: usize, costings: &mut usize) -> StagePoint {
        *costings += 1;
        let parallelism = self.tables[index].for_target(target);
        let cost = UnitCost::of(
            &self.pipeline.stages()[index],
            parallelism,
            self.precision,
            &self.cost,
        );
        StagePoint {
            target,
            costed: Some((parallelism, cost)),
        }
    }

    /// The cost of stage `index` at `point`'s target, costing the stage
    /// first if no round has read it since its target last moved.
    fn read(&self, index: usize, point: &mut StagePoint, costings: &mut usize) -> UnitCost {
        if point.costed.is_none() {
            *point = self.point(index, point.target, costings);
        }
        point.costed().1
    }

    /// Whether the stages at their targets support `target_batch` copies
    /// (`target_batch ≥ 1`). Reads the stages in descending MACs and
    /// answers no as soon as the DSPs or BRAMs read so far leave fewer
    /// copies, which the whole branch then leaves too (see the type's
    /// docs); otherwise asks [`supported_batch`](Self::supported_batch).
    fn fits(
        &self,
        points: &mut [StagePoint],
        budget: &ResourceBudget,
        target_batch: usize,
        costings: &mut usize,
    ) -> bool {
        let (mut dsp, mut bram) = (0usize, 0usize);
        for &index in &self.order {
            let cost = self.read(index, &mut points[index], costings);
            dsp += cost.dsp;
            bram += cost.bram;
            if budget.dsp / dsp.max(1) < target_batch || budget.bram / bram.max(1) < target_batch {
                return false;
            }
        }
        self.supported_batch(points, budget) >= target_batch
    }

    /// How many pipeline copies of the stages at `points`, every one of
    /// them read, fit in the budget (Algorithm 2, line 18).
    fn supported_batch(&self, points: &[StagePoint], budget: &ResourceBudget) -> usize {
        let mut dsp = 0usize;
        let mut bram = 0usize;
        let mut max_latency = 1u64;
        let mut weight_bytes = 0u64;
        for point in points {
            let (_, cost) = point.costed();
            dsp += cost.dsp;
            bram += cost.bram;
            max_latency = max_latency.max(cost.latency_cycles);
            weight_bytes += cost.weight_bytes_per_frame;
        }
        let copies_by_dsp = budget.dsp / dsp.max(1);
        let copies_by_bram = budget.bram / bram.max(1);
        let fps_single = self.frequency_hz / max_latency as f64;
        let bw_per_copy = weight_bytes as f64 * fps_single / self.cost.dram_efficiency.max(1e-6);
        let copies_by_bw = if bw_per_copy <= 0.0 {
            usize::MAX
        } else {
            (budget.bandwidth_bytes_per_sec / bw_per_copy).floor() as usize
        };
        copies_by_dsp.min(copies_by_bram).min(copies_by_bw)
    }

    /// Index of the stage with the highest latency (Eq. 4, as its
    /// [`UnitCost`] holds it) among those still allowed to grow.
    fn slowest_growable_stage(points: &[StagePoint], growable: &[bool]) -> Option<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(i, _)| growable[*i])
            .max_by_key(|(_, point)| point.costed().1.latency_cycles)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcad_accel::{AcceleratorConfig, ConvStage, ElasticAccelerator};

    fn pipeline() -> BranchPipeline {
        BranchPipeline::new(
            "texture-tail",
            vec![
                ConvStage::synthetic("conv6", 72, 32, 256, 256, 3, 2),
                ConvStage::synthetic("conv7", 32, 16, 512, 512, 3, 2),
                ConvStage::synthetic("conv8", 16, 3, 1024, 1024, 3, 1),
            ],
        )
    }

    fn evaluate(pipe: &BranchPipeline, cfg: &BranchConfig) -> fcad_accel::BranchReport {
        pipe.evaluate(cfg, Precision::Int8, 200e6, &CostModel::default())
            .expect("config matches pipeline")
    }

    #[test]
    fn result_fits_the_budget() {
        let pipe = pipeline();
        let budget = ResourceBudget::new(800, 700, 8.0);
        let optimizer = InBranchOptimizer::new(&pipe, Precision::Int8, 200e6);
        let cfg = optimizer.optimize(&budget, 1);
        let report = evaluate(&pipe, &cfg);
        assert!(report.usage.dsp <= budget.dsp, "dsp {}", report.usage.dsp);
        assert!(
            report.usage.bram <= budget.bram,
            "bram {}",
            report.usage.bram
        );
        assert!(report.usage.bandwidth_bytes_per_sec <= budget.bandwidth_bytes_per_sec);
    }

    #[test]
    fn larger_budgets_yield_no_slower_designs() {
        let pipe = pipeline();
        let optimizer = InBranchOptimizer::new(&pipe, Precision::Int8, 200e6);
        let small = evaluate(
            &pipe,
            &optimizer.optimize(&ResourceBudget::new(200, 300, 4.0), 1),
        );
        let large = evaluate(
            &pipe,
            &optimizer.optimize(&ResourceBudget::new(1600, 1200, 12.8), 1),
        );
        assert!(large.fps >= small.fps);
        assert!(
            large.fps > 1.5 * small.fps,
            "large budget should clearly help"
        );
    }

    #[test]
    fn batch_two_halves_per_copy_resources_but_is_honored() {
        let pipe = pipeline();
        let budget = ResourceBudget::new(1000, 900, 12.8);
        let optimizer = InBranchOptimizer::new(&pipe, Precision::Int8, 200e6);
        let cfg = optimizer.optimize(&budget, 2);
        assert_eq!(cfg.batch_size, 2);
        let report = evaluate(&pipe, &cfg);
        assert!(report.usage.dsp <= budget.dsp);
        assert_eq!(report.batch_size, 2);
    }

    #[test]
    fn pipeline_is_roughly_load_balanced() {
        let pipe = pipeline();
        let budget = ResourceBudget::new(1200, 1000, 12.8);
        let optimizer = InBranchOptimizer::new(&pipe, Precision::Int8, 200e6);
        let report = evaluate(&pipe, &optimizer.optimize(&budget, 1));
        let latencies: Vec<u64> = report.stages.iter().map(|s| s.latency_cycles).collect();
        let max = *latencies.iter().max().unwrap() as f64;
        let min = *latencies.iter().min().unwrap() as f64;
        assert!(
            max / min < 8.0,
            "stage latencies too imbalanced: {latencies:?}"
        );
        // Efficiency of a balanced pipeline should be healthy.
        assert!(report.efficiency > 0.5, "efficiency {}", report.efficiency);
    }

    #[test]
    fn uses_h_partition_beyond_the_channel_limit() {
        // With a generous budget, the few-channel HD stage (16->3 at 1024²)
        // must exceed its 48-lane channel limit via H-partitioning —
        // the capability DNNBuilder lacks.
        let pipe = pipeline();
        let budget = ResourceBudget::new(2400, 1800, 12.8);
        let optimizer = InBranchOptimizer::new(&pipe, Precision::Int8, 200e6);
        let cfg = optimizer.optimize(&budget, 1);
        let last = cfg.stages.last().unwrap().parallelism;
        assert!(
            last.h > 1,
            "expected H-partitioning on the HD output stage, got {last}"
        );
        assert!(last.total() > 48);
    }

    #[test]
    fn infeasible_budget_degrades_to_minimal_parallelism() {
        let pipe = pipeline();
        let tiny = ResourceBudget::new(3, 3, 0.001);
        let optimizer = InBranchOptimizer::new(&pipe, Precision::Int8, 200e6);
        let cfg = optimizer.optimize(&tiny, 1);
        assert!(cfg.stages.iter().all(|s| s.parallelism.total() <= 2));
    }

    #[test]
    fn infinite_bandwidth_saturates_the_optimistic_targets() {
        // Infinite bandwidth saturates the optimistic targets at
        // `usize::MAX`; the search must accept them.
        let pipe = pipeline();
        let budget = ResourceBudget {
            dsp: 800,
            bram: 700,
            bandwidth_bytes_per_sec: f64::INFINITY,
        };
        let optimizer = InBranchOptimizer::new(&pipe, Precision::Int8, 200e6);
        let report = evaluate(&pipe, &optimizer.optimize(&budget, 1));
        assert!(report.usage.dsp <= budget.dsp, "dsp {}", report.usage.dsp);
        assert!(
            report.usage.bram <= budget.bram,
            "bram {}",
            report.usage.bram
        );
    }

    /// The stage costings (GetPF, then the unit model) the search runs over
    /// a fixed grid: the decoder's three profiled branches under each Table
    /// IV case's budget, at shares 1/8, 1/4, 1/2 and 1 of it, for batch 1
    /// and 2. A count, so it repeats on every host.
    #[test]
    fn stage_costings_are_pinned_on_the_decoder_branches() {
        use fcad_accel::Platform;
        use fcad_nnir::models::targeted_decoder;
        use fcad_profiler::NetworkProfile;

        let profile = NetworkProfile::of(&targeted_decoder());
        let pipelines: Vec<BranchPipeline> = profile
            .branches()
            .iter()
            .map(|branch| BranchPipeline::new(&branch.name, ConvStage::stages_of_branch(branch)))
            .collect();
        let cases = [
            (Platform::z7045(), Precision::Int8),
            (Platform::zu17eg(), Precision::Int8),
            (Platform::zu17eg(), Precision::Int16),
            (Platform::zu9cg(), Precision::Int8),
            (Platform::zu9cg(), Precision::Int16),
        ];
        let (mut calls, mut costings) = (0usize, 0usize);
        for pipeline in &pipelines {
            for (platform, precision) in &cases {
                let optimizer =
                    InBranchOptimizer::new(pipeline, *precision, platform.frequency_hz());
                for share in [0.125, 0.25, 0.5, 1.0] {
                    let budget = platform.budget().scaled(share);
                    for batch in [1, 2] {
                        calls += 1;
                        costings += optimizer.optimize_counted(&budget, batch).1;
                    }
                }
            }
        }
        // Costing every stage in every halving round runs 6,899 costings
        // on this grid.
        assert_eq!((calls, costings), (120, 3_925));
    }

    #[test]
    fn end_to_end_with_elastic_accelerator() {
        let pipe = pipeline();
        let budget = ResourceBudget::new(900, 800, 12.8);
        let optimizer = InBranchOptimizer::new(&pipe, Precision::Int8, 200e6);
        let cfg = optimizer.optimize(&budget, 1);
        let acc = ElasticAccelerator::new("one-branch", vec![pipe.clone()], 200e6);
        let report = acc
            .evaluate(&AcceleratorConfig::new(vec![cfg], Precision::Int8))
            .unwrap();
        assert!(report.min_fps > 0.0);
    }
}
