//! Shard-equivalence invariants of the fleet engine: a one-shard fleet is
//! the single-device engine, bit for bit, for every scheduling discipline,
//! balancing policy and scenario — on both a synthetic model and a real
//! DSE-optimized design.

use fcad::{Customization, DseParams, Fcad};
use fcad_serve::{
    reference, serve, simulate, FleetConfig, LoadBalancerKind, Off, Scenario, SchedulerKind,
    ServeSpec,
};

mod common;

use common::{spec_for, three_branch_model as model};

#[test]
fn one_shard_fleet_is_bit_identical_to_the_single_device_engine() {
    // Round-robin is the single-device default, so the whole report —
    // balancer name included — must match the frozen one-shard fleet
    // exactly.
    for scenario in Scenario::suite() {
        for &kind in SchedulerKind::all() {
            let single = simulate(&model(), &scenario, kind);
            let fleet =
                reference::simulate_fleet(&FleetConfig::uniform(model(), 1), &scenario, kind);
            assert_eq!(
                single, fleet,
                "{} / {kind:?}: one-shard fleet diverged from the single device",
                scenario.name,
            );
        }
    }
}

#[test]
fn every_balancer_degenerates_to_the_single_device_on_one_shard() {
    // With one shard every placement policy routes every request to shard
    // 0, so the reports differ only in the balancer name.
    for scenario in Scenario::suite() {
        for &kind in SchedulerKind::all() {
            let single = simulate(&model(), &scenario, kind);
            for &balancer in LoadBalancerKind::all() {
                let config = FleetConfig::uniform(model(), 1).with_balancer(balancer);
                let mut fleet = serve(&config, &scenario, &spec_for(kind), &mut Off);
                assert_eq!(fleet.balancer, balancer.name());
                fleet.balancer = single.balancer.clone();
                assert_eq!(
                    single,
                    fleet,
                    "{} / {kind:?} / {}: balancer must be a no-op on one shard",
                    scenario.name,
                    balancer.name()
                );
            }
        }
    }
}

#[test]
fn one_shard_fleet_matches_the_single_device_on_an_optimized_design() {
    let result = Fcad::new(
        fcad_nnir::models::targeted_decoder(),
        fcad_accel::Platform::zu17eg(),
    )
    .with_customization(Customization::codec_avatar(fcad_nnir::Precision::Int8))
    .with_dse_params(DseParams::fast())
    .run()
    .expect("decoder flow succeeds");
    for scenario in [Scenario::a1(), Scenario::b2()] {
        let kind = SchedulerKind::BatchAggregating;
        let single = simulate(&result.service_model(), &scenario, kind);
        let fleet = reference::simulate_fleet(&result.fleet_config(1), &scenario, kind);
        assert_eq!(
            single, fleet,
            "{}: optimized-design divergence",
            scenario.name
        );
    }
}

#[test]
fn fleet_reports_carry_consistent_shard_metadata() {
    for shards in [2usize, 4] {
        let scenario = Scenario::b2_fleet(shards);
        let config =
            FleetConfig::uniform(model(), shards).with_balancer(LoadBalancerKind::LeastLoaded);
        let report = serve(&config, &scenario, &ServeSpec::default(), &mut Off);
        assert!(report.conserves_requests());
        assert_eq!(report.shard_count(), shards);
        assert!(report.imbalance >= 0.0);
        // Overall utilization is the mean of the per-shard utilizations.
        let mean: f64 = report.shards.iter().map(|s| s.utilization).sum::<f64>() / shards as f64;
        assert!(
            (report.utilization - mean).abs() < 1e-9,
            "utilization {} != mean shard utilization {}",
            report.utilization,
            mean
        );
    }
}
