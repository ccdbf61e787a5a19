//! An independent oracle for GetPF, Algorithm 2's per-stage parallelism
//! choice (`LaneTable::for_target`).
//!
//! The oracle is the plain scan: every `(cpf, kpf)` pair of divisors of
//! the channel counts, no deduplication, visited in ascending `cpf × kpf`
//! (stable in `(cpf, kpf)` order) up to the 2× cut-off, and scored by
//! `(distance, usize::MAX − cpf × kpf)`. The table under test keeps one
//! entry per `cpf × kpf` and stops its downward scan at a bound, so it
//! must agree with this scan on every stage and target.
//!
//! `tests/dse_golden.rs` pins the shipped stages over targets up to 4,096;
//! the in-branch search asks for far more lanes than that, and stages can
//! have prime or highly composite channel counts. The stages here are
//! seeded random ones with such counts, and the targets run from 0 to
//! `usize::MAX`. The default run is a sample sized for debug builds; the
//! `#[ignore]`d sweep runs in release with `--include-ignored`.

use fcad_accel::{ConvStage, LaneTable, Parallelism};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The divisors of `n` in ascending order (`n ≥ 1`).
fn divisors(n: usize) -> Vec<usize> {
    (1..=n).filter(|&d| n.is_multiple_of(d)).collect()
}

/// Every `(cpf, kpf)` pair of divisors of `stage`'s channel counts,
/// stably sorted by `cpf × kpf`.
fn channel_pairs(stage: &ConvStage) -> Vec<(usize, usize)> {
    let max = Parallelism::max_for(stage);
    let kpfs = divisors(max.kpf);
    let mut pairs: Vec<(usize, usize)> = divisors(max.cpf)
        .into_iter()
        .flat_map(|cpf| kpfs.iter().map(move |&kpf| (cpf, kpf)))
        .collect();
    pairs.sort_by_key(|&(cpf, kpf)| cpf * kpf);
    pairs
}

/// GetPF by the full scan over `pairs`, the stage's [`channel_pairs`].
fn full_scan(stage: &ConvStage, pairs: &[(usize, usize)], target_lanes: usize) -> Parallelism {
    let max = Parallelism::max_for(stage);
    let ideal_cycles = stage.macs.max(1) as f64;
    let cycles_per_quantum = ideal_cycles / (max.cpf * max.kpf * max.h) as f64;
    let target = target_lanes.max(1) as f64;
    let mut best = Parallelism::unit();
    let mut best_score = (f64::INFINITY, 0usize);
    for &(cpf, kpf) in pairs {
        let lanes = cpf * kpf;
        if lanes as f64 > target * 2.0 && lanes > 1 {
            break;
        }
        let quanta = max.cpf.div_ceil(cpf) * max.kpf.div_ceil(kpf);
        let h_ideal = (target / lanes as f64).round() as usize;
        for h in [
            h_ideal,
            h_ideal.saturating_add(1),
            h_ideal.saturating_sub(1),
        ] {
            let h = h.clamp(1, max.h);
            let cycles = (quanta * max.h.div_ceil(h)) as f64 * cycles_per_quantum;
            let effective_lanes = ideal_cycles / cycles.max(1.0);
            let score = ((effective_lanes - target).abs(), usize::MAX - lanes);
            if score.0 < best_score.0 || (score.0 == best_score.0 && score.1 < best_score.1) {
                best_score = score;
                best = Parallelism::new(cpf, kpf, h);
            }
        }
    }
    best
}

/// Channel counts: one, primes, powers of two and highly composite
/// numbers, or (one draw in four) any count up to 2,048.
fn channels(rng: &mut StdRng) -> usize {
    const POOL: [usize; 22] = [
        1, 2, 3, 5, 7, 13, 31, 61, 127, 251, 509, 1021, 16, 64, 256, 1024, 12, 96, 360, 720, 896,
        25_088,
    ];
    if rng.gen_range(0..4u32) == 0 {
        rng.gen_range(1..=2048usize)
    } else {
        POOL[rng.gen_range(0..POOL.len())]
    }
}

/// A random stage: heights up to 1,100, and (one stage in four) a `macs`
/// that does not follow from the shape, zero included.
fn random_stage(rng: &mut StdRng) -> ConvStage {
    let (in_channels, out_channels) = (channels(rng), channels(rng));
    let height = rng.gen_range(1..=1100usize);
    let width = rng.gen_range(1..=64usize);
    let kernel = [1, 3, 5][rng.gen_range(0..3usize)];
    let mut stage = ConvStage::synthetic(
        "oracle",
        in_channels,
        out_channels,
        height,
        width,
        kernel,
        1,
    );
    match rng.gen_range(0..8u32) {
        0 => stage.macs = 0,
        1 => stage.macs = rng.gen_range(1..=1_000_000u64),
        _ => {}
    }
    stage
}

/// The targets asked of `stage`: the edges, the stage maximum with its
/// half and double, and `random` draws up to four times the maximum.
fn targets(rng: &mut StdRng, stage: &ConvStage, random: usize) -> Vec<usize> {
    let max = Parallelism::max_for(stage).total();
    let mut targets = vec![0, 1, 2, max / 2, max, 2 * max, usize::MAX];
    targets.extend((0..random).map(|_| rng.gen_range(0..=4 * max)));
    targets
}

/// Checks `stages` random stages, `random` random targets each, and
/// returns the number of calls compared.
fn check(seed: u64, stages: usize, random: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut calls = 0;
    for _ in 0..stages {
        let stage = random_stage(&mut rng);
        let (table, pairs) = (LaneTable::of(&stage), channel_pairs(&stage));
        for target in targets(&mut rng, &stage, random) {
            let (got, want) = (table.for_target(target), full_scan(&stage, &pairs, target));
            assert_eq!(
                got, want,
                "InCh {} OutCh {} rows {} macs {} target {target}",
                stage.in_channels, stage.out_channels, stage.out_height, stage.macs
            );
            calls += 1;
        }
    }
    calls
}

#[test]
fn lane_table_agrees_with_the_full_scan_on_random_stages() {
    assert_eq!(check(0x6e7f, 1_000, 12), 1_000 * 19);
}

#[test]
#[ignore = "a wide sweep, slow in debug; run in release with --include-ignored"]
fn lane_table_agrees_with_the_full_scan_on_a_wide_sweep() {
    assert_eq!(check(0x6e80, 40_000, 24), 40_000 * 31);
}
