//! In-branch greedy optimization (Algorithm 2 of the paper).

use fcad_accel::{
    BranchConfig, BranchPipeline, CostModel, LaneTable, Parallelism, ResourceBudget, StageConfig,
    UnitCost,
};
use fcad_nnir::Precision;
use std::cell::Cell;
use std::cmp::Reverse;
use std::fmt;

/// GetPF memo slots per stage: slot `target % MEMO_SLOTS` holds the last
/// target of that residue that GetPF answered.
const MEMO_SLOTS: usize = 256;

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
///
/// GetPF answers are memoized across calls. Each stage keeps a
/// direct-mapped memo of 256 slots of 16 bytes (4 KiB; about 60 KiB on the
/// decoder's 15 stages): slot `target % 256` holds the last
/// `(target, cpf, kpf, h)` of that residue that a scan answered, and a zero
/// target marks it empty, since targets are at least 1. A costing scans
/// the stage's [`LaneTable`] only when its target misses the memo, and
/// recomputes the [`UnitCost`], which is cheap, either way. The memo is
/// exact because GetPF is a pure function of the table and the target; a
/// target or factor that does not fit in a `u32` (the `usize::MAX` targets
/// of infinite bandwidth, say) bypasses it. It pays because a PSO asks for
/// far fewer distinct targets than it runs costings: its particles
/// converge, and the halving maps many optimistic targets onto the same
/// `t0 >> k`. The memo sits in [`Cell`]s, so the optimizer is `Send` but
/// not `Sync`; a parallel search clones one optimizer per worker.
#[derive(Clone)]
pub struct InBranchOptimizer<'a> {
    pipeline: &'a BranchPipeline,
    precision: Precision,
    frequency_hz: f64,
    cost: CostModel,
    tables: Vec<LaneTable>,
    /// Stage indices in descending MACs (stage order among equals): the
    /// order in which a halving round reads the stages.
    order: Vec<usize>,
    /// Stage `s`'s GetPF memo at `s * MEMO_SLOTS..(s + 1) * MEMO_SLOTS`,
    /// each slot `[target, cpf, kpf, h]`.
    memo: Box<[Cell<[u32; 4]>]>,
}

/// The work of one search: the stage costings (GetPF, then the unit
/// model) it ran, and the GetPF scans the memo left of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Work {
    pub(crate) costings: usize,
    pub(crate) scans: usize,
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
            memo: vec![Cell::new([0; 4]); stages.len() * MEMO_SLOTS].into_boxed_slice(),
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

    /// [`optimize`](Self::optimize)'s configuration and the work the
    /// search ran.
    pub(crate) fn optimize_counted(
        &self,
        budget: &ResourceBudget,
        target_batch: usize,
    ) -> (BranchConfig, Work) {
        let mut work = Work::default();
        let stages = self.pipeline.stages();
        if stages.is_empty() {
            return (BranchConfig::new(target_batch, Vec::new()), work);
        }

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
        while !self.fits(&mut points, budget, target_batch, &mut work) {
            if points.iter().all(|p| p.target <= 1) {
                // The growth loop reads every stage.
                for (index, point) in points.iter_mut().enumerate() {
                    self.read(index, point, &mut work);
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
            points[slowest] = self.point(slowest, (current.target * 2).min(max_lanes), &mut work);
            if self.supported_batch(&points, budget) < target_batch {
                points[slowest] = current;
                growable[slowest] = false;
            }
        }

        let configs = points
            .iter()
            .map(|p| StageConfig::new(p.costed().0))
            .collect();
        (BranchConfig::new(target_batch, configs), work)
    }

    /// Stage `index` at `target` lanes (Algorithm 2's `GetPF`, then the
    /// unit model), counted in `work`.
    fn point(&self, index: usize, target: usize, work: &mut Work) -> StagePoint {
        work.costings += 1;
        let parallelism = self.get_pf(index, target, work);
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

    /// GetPF of stage `index` at `target`: the memo's answer, or a scan of
    /// the stage's table, counted in `work`, whose answer the memo keeps.
    fn get_pf(&self, index: usize, target: usize, work: &mut Work) -> Parallelism {
        let key = u32::try_from(target).ok().filter(|&key| key != 0);
        let slot = &self.memo[index * MEMO_SLOTS + target % MEMO_SLOTS];
        if let Some(key) = key {
            let [memo_target, cpf, kpf, h] = slot.get();
            if memo_target == key {
                return Parallelism::new(cpf as usize, kpf as usize, h as usize);
            }
        }
        work.scans += 1;
        let parallelism = self.tables[index].for_target(target);
        let factors = [parallelism.cpf, parallelism.kpf, parallelism.h].map(u32::try_from);
        if let (Some(key), [Ok(cpf), Ok(kpf), Ok(h)]) = (key, factors) {
            slot.set([key, cpf, kpf, h]);
        }
        parallelism
    }

    /// The cost of stage `index` at `point`'s target, costing the stage
    /// first if no round has read it since its target last moved.
    fn read(&self, index: usize, point: &mut StagePoint, work: &mut Work) -> UnitCost {
        if point.costed.is_none() {
            *point = self.point(index, point.target, work);
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
        work: &mut Work,
    ) -> bool {
        let (mut dsp, mut bram) = (0usize, 0usize);
        for &index in &self.order {
            let cost = self.read(index, &mut points[index], work);
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

impl fmt::Debug for InBranchOptimizer<'_> {
    /// Every field but the memo, which shows as its count of filled slots.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let filled = self.memo.iter().filter(|slot| slot.get()[0] != 0).count();
        f.debug_struct("InBranchOptimizer")
            .field("pipeline", self.pipeline)
            .field("precision", &self.precision)
            .field("frequency_hz", &self.frequency_hz)
            .field("cost", &self.cost)
            .field("tables", &self.tables)
            .field("order", &self.order)
            .field(
                "memo",
                &format_args!("{filled} of {} slots filled", self.memo.len()),
            )
            .finish()
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

        let pipelines = decoder_pipelines();
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
                        costings += optimizer.optimize_counted(&budget, batch).1.costings;
                    }
                }
            }
        }
        // Costing every stage in every halving round runs 6,899 costings
        // on this grid.
        assert_eq!((calls, costings), (120, 3_925));
    }

    /// The decoder's three profiled branches, as the flow builds them.
    fn decoder_pipelines() -> Vec<BranchPipeline> {
        use fcad_nnir::models::targeted_decoder;
        use fcad_profiler::NetworkProfile;

        NetworkProfile::of(&targeted_decoder())
            .branches()
            .iter()
            .map(|branch| BranchPipeline::new(&branch.name, ConvStage::stages_of_branch(branch)))
            .collect()
    }

    /// Runs one optimizer per decoder branch over `iterations` rounds of
    /// 200 seeded resource splits, the paper's PSO population, under Table
    /// IV cases 2 and 5, and checks every call against a fresh optimizer
    /// (an empty memo). Returns the reused optimizers' work.
    fn reuse_sequence(iterations: usize) -> Work {
        use crate::ResourceDistribution;
        use fcad_accel::Platform;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let pipelines = decoder_pipelines();
        let mut rng = StdRng::seed_from_u64(0x6e7f);
        let mut total = Work::default();
        for (platform, precision) in [
            (Platform::zu17eg(), Precision::Int8),
            (Platform::zu9cg(), Precision::Int16),
        ] {
            let frequency_hz = platform.frequency_hz();
            let reused: Vec<InBranchOptimizer> = pipelines
                .iter()
                .map(|pipeline| InBranchOptimizer::new(pipeline, precision, frequency_hz))
                .collect();
            for _ in 0..200 * iterations {
                let split = ResourceDistribution::random(pipelines.len(), &mut rng);
                for (index, optimizer) in reused.iter().enumerate() {
                    let budget = split.branch_budget(index, platform.budget());
                    let (config, work) = optimizer.optimize_counted(&budget, 1);
                    let fresh = InBranchOptimizer::new(&pipelines[index], precision, frequency_hz);
                    assert_eq!(config, fresh.optimize(&budget, 1), "{budget:?}");
                    total.costings += work.costings;
                    total.scans += work.scans;
                }
            }
        }
        total
    }

    /// The costings of [`reuse_sequence`] and the GetPF scans the memo
    /// leaves of them: counts, so they repeat on every host.
    #[test]
    fn a_reused_optimizer_matches_fresh_ones_over_seeded_splits() {
        assert_eq!(
            reuse_sequence(2),
            Work {
                costings: 73_728,
                scans: 28_391
            }
        );
    }

    #[test]
    #[ignore = "PSO scale, slow in debug; run in release with --include-ignored"]
    fn a_reused_optimizer_matches_fresh_ones_at_pso_scale() {
        assert_eq!(
            reuse_sequence(20),
            Work {
                costings: 738_987,
                scans: 245_023
            }
        );
    }

    /// Targets that share a slot (`t` and `t + 256`) evict each other, and
    /// targets beyond `u32::MAX` (`t + 2^32` shares `t`'s slot too) bypass
    /// the memo without reading or overwriting it.
    #[test]
    fn the_memo_survives_slot_collisions_and_skips_wide_targets() {
        let pipe = pipeline();
        let optimizer = InBranchOptimizer::new(&pipe, Precision::Int8, 200e6);
        let wide = usize::try_from(u64::from(u32::MAX) + 1).expect("a 64-bit host");
        let mut work = Work::default();
        for (index, table) in optimizer.tables.iter().enumerate() {
            for target in [3, 3 + 256, 3, wide + 3, 3, usize::MAX, 3 + 256] {
                assert_eq!(
                    optimizer.get_pf(index, target, &mut work),
                    table.for_target(target),
                    "stage {index} at {target} lanes"
                );
            }
        }
        // Of each stage's seven lookups only the second `3` hits: the wide
        // targets scan and store nothing, and `3` and `3 + 256` evict
        // each other, leaving one filled slot per stage.
        assert_eq!(work.scans, 3 * 6);
        let debug = format!("{optimizer:?}");
        assert!(debug.ends_with("memo: 3 of 768 slots filled }"), "{debug}");
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
