//! Convergence behaviour of the DSE engine (the Sec. VII search-speed study).

use fcad::{Customization, DseParams, ElapsedTimer, Fcad};
use fcad_accel::Platform;
use fcad_dse::ConvergenceStats;
use fcad_nnir::models::targeted_decoder;
use fcad_nnir::Precision;

fn params() -> DseParams {
    DseParams {
        population: 24,
        iterations: 10,
        ..DseParams::paper()
    }
}

#[test]
fn repeated_searches_converge_within_the_iteration_budget() {
    let mut results = Vec::new();
    for seed in 0..5u64 {
        let result = Fcad::new(targeted_decoder(), Platform::zu17eg())
            .with_customization(Customization::codec_avatar(Precision::Int8))
            .with_dse_params(params().with_seed(seed * 31 + 1))
            .with_timer(ElapsedTimer::WallClock)
            .run()
            .expect("flow succeeds");
        results.push(result.dse);
    }
    let stats = ConvergenceStats::of(&results).expect("non-empty run set");
    assert_eq!(stats.runs, 5);
    // Every run converges within the iteration budget and in a fraction of a
    // minute (the paper reports convergence "in minutes" on a laptop CPU for
    // P=200, N=20; our test uses a smaller population). The wall-clock
    // timer is on, so the time bound measures something.
    assert!(stats.max_iterations <= 10.0);
    assert!(stats.mean_iterations >= 1.0);
    assert!(stats.mean_seconds > 0.0, "timer measured nothing");
    assert!(stats.mean_seconds < 60.0);
}

#[test]
fn fitness_history_is_monotonically_non_decreasing() {
    let result = Fcad::new(targeted_decoder(), Platform::zu9cg())
        .with_customization(Customization::codec_avatar(Precision::Int8))
        .with_dse_params(params())
        .run()
        .expect("flow succeeds");
    let history = &result.dse.fitness_history;
    assert_eq!(history.len(), 10);
    for pair in history.windows(2) {
        assert!(pair[1] >= pair[0], "global best regressed: {history:?}");
    }
    assert!(result.dse.convergence_iteration <= result.dse.iterations_run);
}

#[test]
fn different_seeds_land_on_designs_of_similar_quality() {
    let run = |seed: u64| {
        Fcad::new(targeted_decoder(), Platform::zu9cg())
            .with_customization(Customization::codec_avatar(Precision::Int8))
            .with_dse_params(params().with_seed(seed))
            .run()
            .expect("flow succeeds")
            .min_fps()
    };
    let a = run(11);
    let b = run(97);
    let ratio = a.max(b) / a.min(b).max(1e-9);
    assert!(
        ratio < 1.6,
        "independent searches disagree too much: {a:.1} vs {b:.1} FPS"
    );
}
