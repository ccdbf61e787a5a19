//! An independent oracle for Algorithm 2's in-branch search
//! (`InBranchOptimizer::optimize`).
//!
//! The oracle is the eager search: every halving round costs every stage
//! (GetPF, then the unit model) at its target and asks the full batch
//! check, DSPs, BRAMs and bandwidth together, before the greedy growth.
//! The optimizer under test costs a stage only when a round reads it and
//! fails a round as soon as a prefix of its stages, in descending MACs,
//! leaves too few copies, so it must return the same configuration on
//! every pipeline, budget and batch size. The oracle calls only public
//! items; `tests/getpf_oracle.rs` checks GetPF itself.
//!
//! The pipelines are the shipped decoder and classic branches on a budget
//! grid, and seeded random ones of 1 to 6 stages with prime, unit and
//! highly composite channel counts and HD feature maps, under budgets from
//! nothing through the Table IV platforms to unbounded, with infinite and
//! NaN bandwidth. The default run is sized for debug builds; the
//! `#[ignore]`d sweep runs in release with `--include-ignored`.

use fcad::Construction;
use fcad_accel::{
    BranchConfig, BranchPipeline, ConvStage, CostModel, LaneTable, Parallelism, Platform,
    ResourceBudget, StageConfig, UnitCost,
};
use fcad_dse::InBranchOptimizer;
use fcad_nnir::{models, Precision};
use fcad_profiler::NetworkProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One stage at a lane target: GetPF's parallelism and its unit cost.
#[derive(Clone, Copy)]
struct Point {
    target: usize,
    parallelism: Parallelism,
    cost: UnitCost,
}

/// The eager search on one branch.
struct Eager<'a> {
    pipeline: &'a BranchPipeline,
    precision: Precision,
    frequency_hz: f64,
    cost: CostModel,
    tables: Vec<LaneTable>,
}

impl Eager<'_> {
    fn point(&self, index: usize, target: usize) -> Point {
        let stage = &self.pipeline.stages()[index];
        let parallelism = self.tables[index].for_target(target);
        let cost = UnitCost::of(stage, parallelism, self.precision, &self.cost);
        Point {
            target,
            parallelism,
            cost,
        }
    }

    fn supported_batch(&self, points: &[Point], budget: &ResourceBudget) -> usize {
        let dsp: usize = points.iter().map(|p| p.cost.dsp).sum();
        let bram: usize = points.iter().map(|p| p.cost.bram).sum();
        let latency = points
            .iter()
            .map(|p| p.cost.latency_cycles)
            .fold(1, u64::max);
        let weight_bytes: u64 = points.iter().map(|p| p.cost.weight_bytes_per_frame).sum();
        let bw_per_copy = weight_bytes as f64 * (self.frequency_hz / latency as f64)
            / self.cost.dram_efficiency.max(1e-6);
        let by_bw = if bw_per_copy <= 0.0 {
            usize::MAX
        } else {
            (budget.bandwidth_bytes_per_sec / bw_per_copy).floor() as usize
        };
        (budget.dsp / dsp.max(1))
            .min(budget.bram / bram.max(1))
            .min(by_bw)
    }

    fn optimize(&self, budget: &ResourceBudget, target_batch: usize) -> BranchConfig {
        let stages = self.pipeline.stages();
        if stages.is_empty() {
            return BranchConfig::new(target_batch, Vec::new());
        }
        let weight_bytes = self.pipeline.weight_bytes_per_frame(self.precision).max(1);
        let fps = budget.bandwidth_bytes_per_sec * self.cost.dram_efficiency / weight_bytes as f64;
        let mut points: Vec<Point> = (0..stages.len())
            .map(|i| {
                let lanes = (stages[i].macs as f64 * fps / self.frequency_hz).ceil();
                self.point(i, (lanes as usize).max(1))
            })
            .collect();
        let target_batch = target_batch.max(1);
        while self.supported_batch(&points, budget) < target_batch
            && points.iter().any(|p| p.target > 1)
        {
            for (i, point) in points.iter_mut().enumerate() {
                if point.target > 1 {
                    *point = self.point(i, point.target / 2);
                }
            }
        }
        let mut growable = vec![true; points.len()];
        for _ in 0..512 {
            let Some(slowest) = (0..points.len())
                .filter(|&i| growable[i])
                .max_by_key(|&i| points[i].cost.latency_cycles)
            else {
                break;
            };
            let max_lanes = Parallelism::max_for(&stages[slowest]).total();
            let current = points[slowest];
            if current.target >= max_lanes {
                growable[slowest] = false;
                continue;
            }
            points[slowest] = self.point(slowest, (current.target * 2).min(max_lanes));
            if self.supported_batch(&points, budget) < target_batch {
                points[slowest] = current;
                growable[slowest] = false;
            }
        }
        let configs = points.iter().map(|p| StageConfig::new(p.parallelism));
        BranchConfig::new(target_batch, configs.collect())
    }
}

/// Compares the optimizer with the eager search on `pipeline` for every
/// budget and batch size 0 to 4; returns the number of calls compared.
fn compare(
    pipeline: &BranchPipeline,
    precision: Precision,
    frequency_hz: f64,
    cost: CostModel,
    budgets: &[ResourceBudget],
) -> usize {
    let optimizer = InBranchOptimizer::new(pipeline, precision, frequency_hz).with_cost_model(cost);
    let eager = Eager {
        pipeline,
        precision,
        frequency_hz,
        cost,
        tables: pipeline.stages().iter().map(LaneTable::of).collect(),
    };
    let mut calls = 0;
    for budget in budgets {
        for batch in 0..=4 {
            assert_eq!(
                optimizer.optimize(budget, batch),
                eager.optimize(budget, batch),
                "{} at {precision}, {frequency_hz} Hz, {cost:?}: {budget:?}, batch {batch}",
                pipeline.name()
            );
            calls += 1;
        }
    }
    calls
}

/// The Table IV platforms' budgets and the KU115's.
fn platform_budgets() -> Vec<ResourceBudget> {
    [
        Platform::z7045(),
        Platform::zu17eg(),
        Platform::zu9cg(),
        Platform::ku115(),
    ]
    .iter()
    .map(|platform| *platform.budget())
    .collect()
}

/// Budgets no flow carves out: nothing at all, plenty of DSPs and BRAMs
/// with infinite or NaN bandwidth, and everything unbounded.
fn edge_budgets() -> Vec<ResourceBudget> {
    let budget = |dsp, bram, bandwidth_bytes_per_sec| ResourceBudget {
        dsp,
        bram,
        bandwidth_bytes_per_sec,
    };
    vec![
        budget(0, 0, 0.0),
        budget(2520, 1824, f64::INFINITY),
        budget(2520, 1824, f64::NAN),
        budget(usize::MAX, usize::MAX, f64::INFINITY),
    ]
}

/// Channel counts: one, primes, powers of two and highly composite
/// numbers.
fn channels(rng: &mut StdRng) -> usize {
    const POOL: [usize; 16] = [
        1, 2, 3, 5, 7, 13, 31, 61, 127, 16, 64, 256, 12, 96, 360, 720,
    ];
    POOL[rng.gen_range(0..POOL.len())]
}

/// A random pipeline of 1 to 6 stages with feature maps up to 1,024 on a
/// side (the decoder's HD outputs).
fn random_pipeline(rng: &mut StdRng) -> BranchPipeline {
    let stages = (0..rng.gen_range(1..=6usize))
        .map(|_| {
            let side = [1, 7, 32, 64, 256, 512, 1024][rng.gen_range(0..7usize)];
            ConvStage::synthetic(
                "oracle",
                channels(rng),
                channels(rng),
                side,
                rng.gen_range(1..=side),
                [1, 3, 5][rng.gen_range(0..3usize)],
                rng.gen_range(1..=2usize),
            )
        })
        .collect();
    BranchPipeline::new("random", stages)
}

/// Checks `pipelines` random pipelines, each under the fixed budgets and
/// `random` random ones, and returns the number of calls compared.
fn check(seed: u64, pipelines: usize, random: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut calls = 0;
    for _ in 0..pipelines {
        let pipeline = random_pipeline(&mut rng);
        let precision =
            [Precision::Int8, Precision::Int16, Precision::Fp32][rng.gen_range(0..3usize)];
        let cost = [CostModel::fpga(), CostModel::asic()][rng.gen_range(0..2usize)];
        let mut budgets = platform_budgets();
        budgets.extend(edge_budgets());
        budgets.extend((0..random).map(|_| {
            ResourceBudget::new(
                rng.gen_range(0..=4000usize),
                rng.gen_range(0..=4000usize),
                rng.gen_range(0.0..25.6),
            )
        }));
        let frequency_hz = [100e6, 200e6, 300e6][rng.gen_range(0..3usize)];
        calls += compare(&pipeline, precision, frequency_hz, cost, &budgets);
    }
    calls
}

#[test]
fn lazy_halving_agrees_with_the_eager_search_on_random_pipelines() {
    assert_eq!(check(0x1b0a, 150, 4), 150 * 12 * 5);
}

#[test]
#[ignore = "a wide sweep, slow in debug; run in release with --include-ignored"]
fn lazy_halving_agrees_with_the_eager_search_on_a_wide_sweep() {
    assert_eq!(check(0x1b0b, 4_000, 24), 4_000 * 32 * 5);
}

/// Every branch of the decoder and of the four classic networks, as the
/// flow builds them, at both precisions under each platform's budget and
/// shares 1/16 to 1/2 of it.
#[test]
fn lazy_halving_agrees_with_the_eager_search_on_the_shipped_branches() {
    let mut budgets = Vec::new();
    for budget in platform_budgets() {
        budgets.extend([1.0, 0.5, 0.25, 0.125, 0.0625].map(|share| budget.scaled(share)));
    }
    let mut networks = vec![models::targeted_decoder()];
    networks.extend(models::classic_benchmarks());
    let mut calls = 0;
    for network in &networks {
        let profile = NetworkProfile::of(network);
        let accelerator =
            Construction::of(network, &profile).instantiate("oracle", &Platform::zu9cg());
        for pipeline in accelerator.branches() {
            for precision in [Precision::Int8, Precision::Int16] {
                calls += compare(
                    pipeline,
                    precision,
                    accelerator.frequency_hz(),
                    *accelerator.cost_model(),
                    &budgets,
                );
            }
        }
    }
    assert_eq!(calls, 7 * 2 * 20 * 5);
}
