//! Property-based tests on the core data structures and model invariants.

use fcad_accel::{
    BranchConfig, BranchPipeline, ConvStage, CostModel, Parallelism, StageConfig, UnitCost,
};
use fcad_cyclesim::Simulator;
use fcad_nnir::{BiasKind, ConvSpec, Layer, LayerKind, Precision, TensorShape};
use proptest::prelude::*;

fn precision_strategy() -> impl Strategy<Value = Precision> {
    prop_oneof![Just(Precision::Int8), Just(Precision::Int16)]
}

fn stage_strategy() -> impl Strategy<Value = ConvStage> {
    (
        1usize..64,
        1usize..64,
        1usize..128,
        1usize..128,
        1usize..=5,
        1usize..=2,
    )
        .prop_map(|(in_ch, out_ch, h, w, k, up)| {
            ConvStage::synthetic("stage", in_ch, out_ch, h, w, 2 * k - 1, up)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The layer cost model is internally consistent: ops ≥ 2·MACs, and a
    /// conv layer's MACs equal the textbook formula.
    #[test]
    fn conv_layer_costs_are_consistent(
        in_ch in 1usize..64,
        out_ch in 1usize..64,
        size in 1usize..96,
        k in 1usize..=3,
    ) {
        let kernel = 2 * k - 1;
        let layer = Layer::new(
            "conv",
            LayerKind::Conv(ConvSpec::same(out_ch, kernel, BiasKind::PerChannel)),
            TensorShape::chw(in_ch, size, size),
        ).unwrap();
        let expected_macs =
            (out_ch * in_ch * kernel * kernel) as u64 * (size * size) as u64;
        prop_assert_eq!(layer.macs(), expected_macs);
        prop_assert!(layer.ops() >= 2 * layer.macs());
        prop_assert!(layer.params() >= (out_ch * in_ch * kernel * kernel) as u64);
    }

    /// Untied bias never changes the op count, only the parameter count.
    #[test]
    fn untied_bias_only_adds_parameters(
        in_ch in 1usize..32,
        out_ch in 1usize..32,
        size in 1usize..64,
    ) {
        let mk = |bias| Layer::new(
            "conv",
            LayerKind::Conv(ConvSpec::same(out_ch, 3, bias)),
            TensorShape::chw(in_ch, size, size),
        ).unwrap();
        let tied = mk(BiasKind::PerChannel);
        let untied = mk(BiasKind::Untied);
        prop_assert_eq!(tied.ops(), untied.ops());
        prop_assert!(untied.params() >= tied.params());
    }

    /// Eq. 4 monotonicity in the raw parallelism factors: scaling every
    /// factor up never increases a unit's latency and never decreases its
    /// DSP usage.
    #[test]
    fn unit_latency_and_dsp_are_monotone_in_parallelism(
        stage in stage_strategy(),
        precision in precision_strategy(),
        cpf in 1usize..16,
        kpf in 1usize..16,
        h in 1usize..16,
    ) {
        let small = Parallelism::new(cpf, kpf, h).clamped_to(&stage);
        let large = Parallelism::new(cpf * 2, kpf * 2, h * 2).clamped_to(&stage);
        let cost = CostModel::default();
        let unit_small = UnitCost::of(&stage, small, precision, &cost);
        let unit_large = UnitCost::of(&stage, large, precision, &cost);
        prop_assert!(unit_large.latency_cycles <= unit_small.latency_cycles);
        prop_assert!(unit_large.dsp >= unit_small.dsp);
    }

    /// `Parallelism::for_target` delivers close-to-target throughput: the
    /// resulting latency never beats the ideal work bound for the requested
    /// lanes, and never falls more than ~3x behind it (no pathological
    /// quantization).
    #[test]
    fn for_target_delivers_near_target_throughput(
        stage in stage_strategy(),
        target in 1usize..2048,
        precision in precision_strategy(),
    ) {
        let max_lanes = Parallelism::max_for(&stage).total();
        let reachable = target.min(max_lanes);
        let p = Parallelism::for_target(&stage, target);
        let unit = UnitCost::of(&stage, p, precision, &CostModel::default());
        let ideal = (stage.macs as f64 / reachable as f64).ceil() as u64;
        prop_assert!(unit.latency_cycles >= (stage.macs as f64 / max_lanes as f64).floor() as u64);
        prop_assert!(
            unit.latency_cycles <= ideal.saturating_mul(3).max(3),
            "latency {} vs ideal {} for target {}",
            unit.latency_cycles, ideal, target
        );
    }

    /// The latency of a unit is never below the ideal MACs / lanes bound.
    #[test]
    fn unit_latency_respects_the_work_lower_bound(
        stage in stage_strategy(),
        lanes in 1usize..512,
    ) {
        let p = Parallelism::for_target(&stage, lanes);
        let unit = UnitCost::of(&stage, p, Precision::Int8, &CostModel::default());
        let ideal = (stage.macs as f64 / p.total() as f64).ceil() as u64;
        prop_assert!(unit.latency_cycles >= ideal);
    }

    /// `Parallelism::for_target` always produces a configuration that is
    /// valid for its stage.
    #[test]
    fn parallelism_targets_are_always_valid(
        stage in stage_strategy(),
        target in 1usize..100_000,
    ) {
        let p = Parallelism::for_target(&stage, target);
        prop_assert!(p.validate_for(&stage).is_ok());
        prop_assert!(p.total() >= 1);
    }

    /// The cycle-level simulator never reports a higher frame rate than the
    /// ideal analytical model for the same configuration.
    #[test]
    fn simulation_never_beats_the_analytical_model(
        stage in stage_strategy(),
        lanes in 1usize..256,
        precision in precision_strategy(),
    ) {
        let stages = vec![stage.clone()];
        let config = BranchConfig::new(
            1,
            vec![StageConfig::new(Parallelism::for_target(&stage, lanes))],
        );
        let pipeline = BranchPipeline::new("b", stages.clone());
        let analytical = pipeline
            .evaluate(&config, precision, 200e6, &CostModel::default())
            .unwrap();
        let simulated = Simulator::new(200e6, 12.8e9)
            .simulate_branch(&stages, &config, precision);
        prop_assert!(simulated.fps <= analytical.fps * 1.000_001);
        prop_assert!(simulated.fps > 0.0);
    }

    /// Doubling the batch size exactly doubles throughput and compute
    /// resources in the analytical model.
    #[test]
    fn batch_scaling_is_linear(
        stage in stage_strategy(),
        lanes in 1usize..128,
        batch in 1usize..4,
    ) {
        let pipeline = BranchPipeline::new("b", vec![stage.clone()]);
        let cfg = |n: usize| BranchConfig::new(
            n,
            vec![StageConfig::new(Parallelism::for_target(&stage, lanes))],
        );
        let one = pipeline.evaluate(&cfg(batch), Precision::Int8, 200e6, &CostModel::default()).unwrap();
        let two = pipeline.evaluate(&cfg(2 * batch), Precision::Int8, 200e6, &CostModel::default()).unwrap();
        prop_assert!((two.fps / one.fps - 2.0).abs() < 1e-9);
        prop_assert_eq!(two.usage.dsp, 2 * one.usage.dsp);
    }

    /// Tensor shape arithmetic: upsampling then counting elements matches
    /// the scale factor squared.
    #[test]
    fn upsampled_shapes_scale_quadratically(
        c in 1usize..64,
        h in 1usize..128,
        w in 1usize..128,
        factor in 1usize..4,
    ) {
        let shape = TensorShape::chw(c, h, w);
        let up = shape.upsampled(factor);
        prop_assert_eq!(up.elements(), shape.elements() * factor * factor);
    }
}
