//! Cross-branch stochastic optimization (Algorithm 1 of the paper).

use crate::customization::Customization;
use crate::error::{Error, Result};
use crate::fitness::{fitness_score, FitnessParams};
use crate::inbranch::InBranchOptimizer;
use crate::result::DseResult;
use crate::timer::ElapsedTimer;
use fcad_accel::{
    AcceleratorConfig, AcceleratorReport, ElasticAccelerator, Parallelism, Platform,
    ResourceBudget, UnitCost,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How one candidate splits the platform's resources across branches: a
/// share in `[0, 1]` per branch and per resource dimension (compute, on-chip
/// memory, bandwidth). Shares are kept normalized so each dimension sums to
/// one.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceDistribution {
    /// `shares[b] = [dsp_share, bram_share, bandwidth_share]` for branch `b`.
    pub shares: Vec<[f64; 3]>,
}

impl ResourceDistribution {
    /// Minimum share any branch keeps in any dimension, so no branch is ever
    /// starved to exactly zero resources.
    const MIN_SHARE: f64 = 0.02;

    /// A uniform split across `branches` branches.
    pub fn uniform(branches: usize) -> Self {
        let share = 1.0 / branches.max(1) as f64;
        Self {
            shares: vec![[share; 3]; branches],
        }
    }

    /// A split proportional to the given per-branch weights (e.g. branch MAC
    /// counts) in every dimension.
    pub fn proportional(weights: &[f64]) -> Self {
        let total: f64 = weights.iter().sum::<f64>().max(1e-12);
        Self {
            shares: weights
                .iter()
                .map(|w| {
                    let s = (w / total).max(Self::MIN_SHARE);
                    [s; 3]
                })
                .collect(),
        }
        .normalized()
    }

    /// A random split (used to initialize the particle population).
    pub fn random(branches: usize, rng: &mut impl Rng) -> Self {
        let shares = (0..branches)
            .map(|_| {
                [
                    rng.gen_range(0.05..1.0),
                    rng.gen_range(0.05..1.0),
                    rng.gen_range(0.05..1.0),
                ]
            })
            .collect();
        Self { shares }.normalized()
    }

    /// Number of branches covered.
    pub fn branch_count(&self) -> usize {
        self.shares.len()
    }

    /// The resource budget branch `index` receives out of `total`.
    pub fn branch_budget(&self, index: usize, total: &ResourceBudget) -> ResourceBudget {
        let share = self.shares.get(index).copied().unwrap_or([0.0; 3]);
        ResourceBudget {
            dsp: (total.dsp as f64 * share[0]).floor() as usize,
            bram: (total.bram as f64 * share[1]).floor() as usize,
            bandwidth_bytes_per_sec: total.bandwidth_bytes_per_sec * share[2],
        }
    }

    /// Renormalizes every dimension to sum to one (with the minimum share
    /// floor applied first).
    pub fn normalized(mut self) -> Self {
        for dim in 0..3 {
            for share in &mut self.shares {
                share[dim] = share[dim].max(Self::MIN_SHARE);
            }
            let sum: f64 = self.shares.iter().map(|s| s[dim]).sum();
            if sum > 0.0 {
                for share in &mut self.shares {
                    share[dim] /= sum;
                }
            }
        }
        self
    }

    /// Particle-swarm evolution step (Algorithm 1, line 16): move towards the
    /// particle's local best and the global best by random fractions, with a
    /// small exploration jitter, then renormalize.
    fn evolved(
        &self,
        local_best: &ResourceDistribution,
        global_best: &ResourceDistribution,
        params: &DseParams,
        rng: &mut impl Rng,
    ) -> Self {
        let mut next = self.clone();
        for (b, share) in next.shares.iter_mut().enumerate() {
            for (dim, s) in share.iter_mut().enumerate() {
                let toward_local =
                    params.local_pull * rng.gen_range(0.0..1.0) * (local_best.shares[b][dim] - *s);
                let toward_global = params.global_pull
                    * rng.gen_range(0.0..1.0)
                    * (global_best.shares[b][dim] - *s);
                let jitter = params.jitter * rng.gen_range(-1.0..1.0);
                *s += toward_local + toward_global + jitter;
            }
        }
        next.normalized()
    }
}

/// Hyper-parameters of the cross-branch stochastic search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DseParams {
    /// Population size `P` (the paper uses 200).
    pub population: usize,
    /// Iteration count `N` (the paper uses 20).
    pub iterations: usize,
    /// Fitness parameters (variance-penalty weight `α`).
    pub fitness: FitnessParams,
    /// Pull towards a particle's own best position.
    pub local_pull: f64,
    /// Pull towards the global best position.
    pub global_pull: f64,
    /// Random exploration jitter added to every share.
    pub jitter: f64,
    /// RNG seed (explorations are deterministic for a given seed).
    pub seed: u64,
}

impl DseParams {
    /// The configuration used in the paper's evaluation: `P = 200`,
    /// `N = 20`.
    pub fn paper() -> Self {
        Self {
            population: 200,
            iterations: 20,
            fitness: FitnessParams::default(),
            local_pull: 0.6,
            global_pull: 0.8,
            jitter: 0.03,
            seed: 0xF_CAD,
        }
    }

    /// A small configuration for fast unit tests.
    pub fn fast() -> Self {
        Self {
            population: 12,
            iterations: 6,
            ..Self::paper()
        }
    }

    /// Returns a copy with a different seed (for independent runs).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for DseParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// The DSE engine: cross-branch stochastic search driving the in-branch
/// greedy optimizer.
#[derive(Debug, Clone, Default)]
pub struct DseEngine {
    params: DseParams,
    timer: ElapsedTimer,
}

impl DseEngine {
    /// Creates an engine with the given hyper-parameters. Elapsed-time
    /// measurement is off, so results depend only on the seed.
    pub fn new(params: DseParams) -> Self {
        Self {
            params,
            timer: ElapsedTimer::Off,
        }
    }

    /// Returns a copy that measures real wall-clock time into
    /// [`DseResult::elapsed_seconds`] — for interactive runs only; the
    /// default engine reports 0.0 so fixed-seed output stays byte-stable.
    pub fn with_timer(mut self, timer: ElapsedTimer) -> Self {
        self.timer = timer;
        self
    }

    /// The engine's hyper-parameters.
    pub fn params(&self) -> &DseParams {
        &self.params
    }

    /// Explores the design space of `accelerator` on `platform` under
    /// `customization` and returns the best design found.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MismatchedCustomization`] when the customization's
    /// branch count differs from the accelerator's, and
    /// [`Error::NoFeasibleDesign`] when not a single candidate fits the
    /// platform budget.
    pub fn explore(
        &self,
        accelerator: &ElasticAccelerator,
        platform: &Platform,
        customization: &Customization,
    ) -> Result<DseResult> {
        let started = self.timer.start();
        let branch_count = accelerator.branch_count();
        if customization.branch_count() != branch_count {
            return Err(Error::MismatchedCustomization {
                reason: format!(
                    "accelerator has {branch_count} branches, customization describes {}",
                    customization.branch_count()
                ),
            });
        }
        if branch_count == 0 {
            return Err(Error::NoFeasibleDesign {
                reason: "accelerator has no branches".to_owned(),
            });
        }

        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let budget = *platform.budget();

        // Algorithm 1, line 4: initialize the population. A few particles
        // are seeded with informed splits — compute-proportional shares for
        // DSPs and bandwidth, and buffer-footprint-proportional shares for
        // the on-chip memory (a branch with HD feature maps needs its BRAM
        // regardless of how much compute it gets) — the rest are random.
        let compute_weights: Vec<f64> = accelerator
            .branches()
            .iter()
            .enumerate()
            .map(|(i, b)| b.macs_per_frame() as f64 * customization.batch_size(i) as f64 + 1.0)
            .collect();
        let bram_weights: Vec<f64> = accelerator
            .branches()
            .iter()
            .enumerate()
            .map(|(i, pipeline)| {
                let per_copy: usize = pipeline
                    .stages()
                    .iter()
                    .map(|stage| {
                        UnitCost::of(
                            stage,
                            Parallelism::unit(),
                            customization.precision,
                            accelerator.cost_model(),
                        )
                        .bram
                    })
                    .sum();
                (per_copy * customization.batch_size(i)) as f64 + 1.0
            })
            .collect();
        let compute_seed = ResourceDistribution::proportional(&compute_weights);
        let bram_seed = ResourceDistribution::proportional(&bram_weights);
        let mut mixed_seed = compute_seed.clone();
        for (share, bram) in mixed_seed.shares.iter_mut().zip(&bram_seed.shares) {
            share[1] = bram[1];
        }
        let mut particles: Vec<ResourceDistribution> = Vec::with_capacity(self.params.population);
        particles.push(mixed_seed.normalized());
        particles.push(compute_seed);
        particles.push(ResourceDistribution::uniform(branch_count));
        particles.truncate(self.params.population.max(1));
        while particles.len() < self.params.population.max(1) {
            particles.push(ResourceDistribution::random(branch_count, &mut rng));
        }

        let optimizers: Vec<InBranchOptimizer> = accelerator
            .branches()
            .iter()
            .map(|pipeline| {
                InBranchOptimizer::new(
                    pipeline,
                    customization.precision,
                    accelerator.frequency_hz(),
                )
                .with_cost_model(*accelerator.cost_model())
            })
            .collect();
        let mut local_best: Vec<(f64, ResourceDistribution)> = particles
            .iter()
            .map(|p| (f64::NEG_INFINITY, p.clone()))
            .collect();
        let mut global_best: Option<(
            f64,
            ResourceDistribution,
            AcceleratorConfig,
            AcceleratorReport,
        )> = None;
        let mut convergence_iteration = 0usize;
        let mut history = Vec::with_capacity(self.params.iterations);

        for iteration in 0..self.params.iterations.max(1) {
            for (index, particle) in particles.iter().enumerate() {
                let Some((config, report)) = Self::evaluate_candidate(
                    accelerator,
                    &optimizers,
                    particle,
                    &budget,
                    customization,
                ) else {
                    continue;
                };
                if !report.fits(&budget) {
                    continue;
                }
                let fitness = fitness_score(&report, customization, &self.params.fitness);
                if fitness > local_best[index].0 {
                    local_best[index] = (fitness, particle.clone());
                }
                let improved = global_best
                    .as_ref()
                    .map(|(best, _, _, _)| fitness > *best)
                    .unwrap_or(true);
                if improved {
                    global_best = Some((fitness, particle.clone(), config, report));
                    convergence_iteration = iteration + 1;
                }
            }
            history.push(
                global_best
                    .as_ref()
                    .map(|(f, _, _, _)| *f)
                    .unwrap_or(f64::NEG_INFINITY),
            );

            // Evolve the population towards the local and global bests.
            if let Some((_, ref global_rd, _, _)) = global_best {
                particles = particles
                    .iter()
                    .zip(&local_best)
                    .map(|(particle, (_, local_rd))| {
                        particle.evolved(local_rd, global_rd, &self.params, &mut rng)
                    })
                    .collect();
            } else {
                // Nothing feasible yet: re-randomize.
                particles = (0..particles.len())
                    .map(|_| ResourceDistribution::random(branch_count, &mut rng))
                    .collect();
            }
        }

        let (best_fitness, _, best_config, best_report) =
            global_best.ok_or_else(|| Error::NoFeasibleDesign {
                reason: format!(
                    "no candidate fits {} DSPs / {} BRAMs / {:.1} GB/s",
                    budget.dsp,
                    budget.bram,
                    budget.bandwidth_bytes_per_sec / 1e9
                ),
            })?;

        Ok(DseResult {
            best_config,
            best_report,
            best_fitness,
            iterations_run: self.params.iterations.max(1),
            convergence_iteration,
            elapsed_seconds: started.elapsed_seconds(),
            fitness_history: history,
        })
    }

    /// Builds and evaluates the configuration implied by one resource
    /// distribution (Algorithm 1, lines 7–11), with one optimizer per
    /// branch of `accelerator`.
    fn evaluate_candidate(
        accelerator: &ElasticAccelerator,
        optimizers: &[InBranchOptimizer],
        distribution: &ResourceDistribution,
        budget: &ResourceBudget,
        customization: &Customization,
    ) -> Option<(AcceleratorConfig, AcceleratorReport)> {
        let branch_configs = optimizers
            .iter()
            .enumerate()
            .map(|(index, optimizer)| {
                optimizer.optimize(
                    &distribution.branch_budget(index, budget),
                    customization.batch_size(index),
                )
            })
            .collect();
        let config = AcceleratorConfig::new(branch_configs, customization.precision);
        let report = accelerator.evaluate(&config).ok()?;
        Some((config, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcad_accel::{BranchPipeline, ConvStage};
    use fcad_nnir::Precision;

    fn two_branch_accelerator() -> ElasticAccelerator {
        let heavy = BranchPipeline::new(
            "heavy",
            vec![
                ConvStage::synthetic("h1", 64, 64, 128, 128, 3, 1),
                ConvStage::synthetic("h2", 64, 32, 256, 256, 3, 1),
            ],
        );
        let light = BranchPipeline::new(
            "light",
            vec![ConvStage::synthetic("l1", 16, 8, 64, 64, 3, 1)],
        );
        ElasticAccelerator::new("two-branch", vec![heavy, light], 200e6)
    }

    #[test]
    fn exploration_finds_a_feasible_design() {
        let acc = two_branch_accelerator();
        let platform = Platform::zu17eg();
        let custom = Customization::uniform(2, Precision::Int8);
        let result = DseEngine::new(DseParams::fast())
            .explore(&acc, &platform, &custom)
            .expect("feasible design exists");
        assert!(result.best_report.fits(platform.budget()));
        assert!(result.min_fps() > 0.0);
        assert!(result.convergence_iteration >= 1);
        assert_eq!(result.fitness_history.len(), DseParams::fast().iterations);
    }

    #[test]
    fn exploration_is_deterministic_for_a_seed() {
        let acc = two_branch_accelerator();
        let platform = Platform::z7045();
        let custom = Customization::uniform(2, Precision::Int8);
        let engine = DseEngine::new(DseParams::fast());
        let a = engine.explore(&acc, &platform, &custom).unwrap();
        let b = engine.explore(&acc, &platform, &custom).unwrap();
        assert_eq!(a.best_config, b.best_config);
        assert!((a.best_fitness - b.best_fitness).abs() < 1e-12);
    }

    #[test]
    fn dse_output_is_byte_stable_run_over_run() {
        // Regression for the wall-clock leak fcad-lint found on day one:
        // `Instant::now()` used to feed `elapsed_seconds`, so two runs of
        // the same seed were never fully equal. With the timer off (the
        // default), the ENTIRE result — elapsed_seconds included — must
        // compare equal across independent runs.
        let acc = two_branch_accelerator();
        let platform = Platform::z7045();
        let custom = Customization::uniform(2, Precision::Int8);
        let engine = DseEngine::new(DseParams::fast());
        let a = engine.explore(&acc, &platform, &custom).unwrap();
        let b = engine.explore(&acc, &platform, &custom).unwrap();
        assert_eq!(a, b, "fixed seed must give a byte-stable DseResult");
        assert_eq!(a.elapsed_seconds, 0.0, "off-timer reports exactly zero");
    }

    #[test]
    fn wall_clock_timer_is_opt_in_and_only_touches_elapsed() {
        let acc = two_branch_accelerator();
        let platform = Platform::z7045();
        let custom = Customization::uniform(2, Precision::Int8);
        let plain = DseEngine::new(DseParams::fast());
        let timed = DseEngine::new(DseParams::fast()).with_timer(ElapsedTimer::WallClock);
        let a = plain.explore(&acc, &platform, &custom).unwrap();
        let mut b = timed.explore(&acc, &platform, &custom).unwrap();
        assert!(b.elapsed_seconds > 0.0, "wall-clock timer measures time");
        b.elapsed_seconds = 0.0;
        assert_eq!(a, b, "the timer must not influence the search itself");
    }

    #[test]
    fn bigger_platforms_do_not_hurt_throughput() {
        let acc = two_branch_accelerator();
        let custom = Customization::uniform(2, Precision::Int8);
        let engine = DseEngine::new(DseParams::fast());
        let small = engine
            .explore(&acc, &Platform::z7045(), &custom)
            .unwrap()
            .min_fps();
        let large = engine
            .explore(&acc, &Platform::zu9cg(), &custom)
            .unwrap()
            .min_fps();
        assert!(large >= small * 0.95, "large {large} vs small {small}");
    }

    #[test]
    fn mismatched_customization_is_rejected() {
        let acc = two_branch_accelerator();
        let custom = Customization::uniform(3, Precision::Int8);
        let err = DseEngine::new(DseParams::fast())
            .explore(&acc, &Platform::z7045(), &custom)
            .unwrap_err();
        assert!(matches!(err, Error::MismatchedCustomization { .. }));
    }

    #[test]
    fn impossible_budget_reports_no_feasible_design() {
        let acc = two_branch_accelerator();
        let custom = Customization::uniform(2, Precision::Int8);
        let tiny = Platform::new(
            "tiny",
            fcad_accel::PlatformKind::Fpga,
            ResourceBudget::new(2, 2, 0.0001),
            200.0,
        );
        let err = DseEngine::new(DseParams::fast())
            .explore(&acc, &tiny, &custom)
            .unwrap_err();
        assert!(matches!(err, Error::NoFeasibleDesign { .. }));
    }

    #[test]
    fn priorities_steer_resources_towards_the_preferred_branch() {
        let acc = two_branch_accelerator();
        let engine = DseEngine::new(DseParams::fast());
        let favor_light =
            Customization::uniform(2, Precision::Int8).with_priorities(vec![0.1, 10.0]);
        let favor_heavy =
            Customization::uniform(2, Precision::Int8).with_priorities(vec![10.0, 0.1]);
        let light_first = engine
            .explore(&acc, &Platform::z7045(), &favor_light)
            .unwrap();
        let heavy_first = engine
            .explore(&acc, &Platform::z7045(), &favor_heavy)
            .unwrap();
        let light_fps_when_favored = light_first.best_report.branches[1].fps;
        let light_fps_when_not = heavy_first.best_report.branches[1].fps;
        assert!(
            light_fps_when_favored >= light_fps_when_not,
            "favored branch must not get slower ({light_fps_when_favored} vs {light_fps_when_not})"
        );
    }

    #[test]
    fn resource_distribution_normalization_and_budgets() {
        let rd = ResourceDistribution {
            shares: vec![[10.0, 1.0, 1.0], [30.0, 3.0, 1.0]],
        }
        .normalized();
        for dim in 0..3 {
            let sum: f64 = rd.shares.iter().map(|s| s[dim]).sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        let total = ResourceBudget::new(1000, 100, 10.0);
        let b0 = rd.branch_budget(0, &total);
        let b1 = rd.branch_budget(1, &total);
        assert!(b1.dsp > b0.dsp);
        assert!(b0.dsp + b1.dsp <= total.dsp);
    }
}
