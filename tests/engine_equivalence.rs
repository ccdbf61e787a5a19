//! The engine-rebuild differential battery: the front door
//! (`fcad_serve::serve`), the windowed engine under explicit plans
//! (`fcad_serve::simulate_windowed{,_traced}`) at every worker count and
//! the windows-disabled driver (`common::serve_sequential`) must
//! reproduce the frozen pre-rebuild loop (`fcad_serve::reference`) **byte
//! for byte** — same `ServeReport` JSON line, same recorded trace stream —
//! for every scheduler × balancer × scenario combination, across shard
//! counts, with QoS admission, autoscaling and failure injection in the
//! mix.
//!
//! This battery is the contract that makes the indexed-calendar /
//! windowed-shard rebuild a pure performance change: any behavioural
//! drift shows up as a byte diff here. Expiry culling has no reference
//! twin, so the coupled grid also pins the windows-disabled driver's
//! reports to digests recorded before the sequential `run()` loop was
//! deleted. The full coupled grid is `#[ignore]`d, with a strided
//! sample of every regime in its place in the default run, and so are the
//! 64- and 256-shard cells; CI runs both in release mode with
//! `--include-ignored`.

mod common;

use common::{serve_sequential, spec_for, three_branch_model};
use fcad_serve::{
    reference, serve, simulate_windowed, simulate_windowed_traced, AdmissionKind, ArrivalPattern,
    Autoscaler, DeadlinePolicy, FailurePlan, FleetConfig, LoadBalancerKind, Off, Recorder,
    Scenario, SchedulerKind, ServeSpec, WindowPlan,
};

const SHARD_COUNTS: [usize; 3] = [1, 3, 8];
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

const ADMISSIONS: [AdmissionKind; 3] = [
    AdmissionKind::AdmitAll,
    AdmissionKind::QueueThreshold,
    AdmissionKind::BudgetAware,
];

fn fleet(shards: usize, balancer: LoadBalancerKind) -> FleetConfig {
    let mut config = FleetConfig::uniform(three_branch_model(), shards);
    config.balancer = balancer;
    config
}

/// Every suite scenario (plus the QoS burst) scaled to `shards`.
fn scenarios(shards: usize) -> Vec<Scenario> {
    let mut scenarios = Scenario::fleet_suite(shards);
    scenarios.push(Scenario::b2_qos().with_sessions(8 * shards));
    scenarios
}

#[test]
fn rebuilt_engine_matches_the_reference_everywhere() {
    for &shards in &SHARD_COUNTS {
        for scenario in scenarios(shards) {
            for &kind in SchedulerKind::all() {
                for &balancer in LoadBalancerKind::all() {
                    let config = fleet(shards, balancer);
                    let spec = spec_for(kind);
                    let frozen = reference::serve(&config, &scenario, &spec, &mut Off);
                    let rebuilt = serve(&config, &scenario, &spec, &mut Off);
                    assert_eq!(
                        frozen.to_json_line(),
                        rebuilt.to_json_line(),
                        "rebuilt engine diverged: {} × {kind:?} × {balancer:?} × {shards} shards",
                        scenario.name
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_engine_matches_the_reference_at_every_worker_count() {
    for &shards in &SHARD_COUNTS {
        for scenario in scenarios(shards) {
            for &kind in SchedulerKind::all() {
                for &balancer in LoadBalancerKind::all() {
                    let config = fleet(shards, balancer);
                    let frozen = reference::serve(&config, &scenario, &spec_for(kind), &mut Off);
                    for &workers in &WORKER_COUNTS {
                        let parallel = simulate_windowed(
                            &config,
                            &scenario,
                            kind,
                            &Autoscaler::none(),
                            &FailurePlan::none(),
                            AdmissionKind::AdmitAll,
                            DeadlinePolicy::Off,
                            &WindowPlan::new(workers),
                        );
                        assert_eq!(
                            frozen.to_json_line(),
                            parallel.to_json_line(),
                            "parallel engine diverged: {} × {kind:?} × {balancer:?} × \
                             {shards} shards × {workers} workers",
                            scenario.name
                        );
                    }
                }
            }
        }
    }
}

/// The frozen reference against `serve` at one worker and the windowed
/// engine at 8 workers on a static fleet under `BatchAggregating`.
fn assert_static_cell_matches_the_reference(config: &FleetConfig, scenario: &Scenario) {
    let kind = SchedulerKind::BatchAggregating;
    let spec = spec_for(kind);
    let frozen = reference::serve(config, scenario, &spec, &mut Off).to_json_line();
    let rebuilt = serve(config, scenario, &spec, &mut Off);
    assert_eq!(frozen, rebuilt.to_json_line(), "serve: {}", scenario.name);
    let parallel = simulate_windowed(
        config,
        scenario,
        kind,
        &Autoscaler::none(),
        &FailurePlan::none(),
        AdmissionKind::AdmitAll,
        DeadlinePolicy::Off,
        &WindowPlan::new(8),
    );
    assert_eq!(
        frozen,
        parallel.to_json_line(),
        "windowed8: {}",
        scenario.name
    );
}

/// Fleet-scale cells on round-robin fleets: the fleet suite and the QoS
/// burst under EDF on 64 shards, where the reference's per-event shard
/// scans dominate, and a 100k-session metropolis on 256 shards, static
/// and coupled (192 → 256 shards under queue pressure, then windows).
#[test]
#[ignore = "64- and 256-shard runs of the frozen reference, slow in debug; run in release with --include-ignored"]
fn fleet_scale_cells_match_the_reference() {
    let config = fleet(64, LoadBalancerKind::RoundRobin);
    for scenario in Scenario::fleet_suite(64) {
        assert_static_cell_matches_the_reference(&config, &scenario);
    }

    // Culling off is the reference's loop; culling on has no reference
    // twin, so it must conserve requests.
    let qos = Scenario::b2_qos();
    let edf = spec_for(SchedulerKind::Deadline);
    let frozen = reference::serve(&config, &qos, &edf, &mut Off);
    let off = serve(&config, &qos, &edf, &mut Off);
    assert_eq!(
        frozen.to_json_line(),
        off.to_json_line(),
        "EDF, culling off"
    );
    let cull = ServeSpec {
        deadline: DeadlinePolicy::CullExpired,
        ..edf
    };
    assert!(serve(&config, &qos, &cull, &mut Off).conserves_requests());

    let metropolis = Scenario::metropolis().with_sessions(100_000);
    assert_static_cell_matches_the_reference(
        &fleet(256, LoadBalancerKind::RoundRobin),
        &metropolis,
    );

    let kind = SchedulerKind::BatchAggregating;
    let policy = Autoscaler::reactive(192, 256)
        .with_cooldown_us(0)
        .with_idle_retire_us(0);
    let config = fleet(192, LoadBalancerKind::RoundRobin);
    let spec = ServeSpec {
        autoscaler: policy.clone(),
        ..spec_for(kind)
    };
    let frozen = reference::serve(&config, &metropolis, &spec, &mut Off).to_json_line();
    let rebuilt = serve(&config, &metropolis, &spec, &mut Off);
    assert_eq!(frozen, rebuilt.to_json_line(), "autoscaled serve");
    let sequential = serve_sequential(&config, &metropolis, &spec, &mut Off);
    assert_eq!(frozen, sequential.to_json_line(), "autoscaled driver");
    let windowed = simulate_windowed(
        &config,
        &metropolis,
        kind,
        &policy,
        &FailurePlan::none(),
        AdmissionKind::AdmitAll,
        DeadlinePolicy::Off,
        &WindowPlan::new(8).with_window_us(400_000),
    );
    assert_eq!(frozen, windowed.to_json_line(), "autoscaled windowed8");
}

#[test]
fn qos_admission_grid_is_bit_identical_across_engines() {
    let scenario = Scenario::b2_qos().with_sessions(24);
    for &balancer in LoadBalancerKind::all() {
        let config = fleet(3, balancer);
        for &kind in SchedulerKind::all() {
            for admission in ADMISSIONS {
                let spec = ServeSpec {
                    admission,
                    ..spec_for(kind)
                };
                let frozen = reference::serve(&config, &scenario, &spec, &mut Off);
                let rebuilt = serve(&config, &scenario, &spec, &mut Off);
                assert_eq!(
                    frozen.to_json_line(),
                    rebuilt.to_json_line(),
                    "QoS rebuild diverged: {kind:?} × {balancer:?} × {admission:?}"
                );
                let parallel = simulate_windowed(
                    &config,
                    &scenario,
                    kind,
                    &Autoscaler::none(),
                    &FailurePlan::none(),
                    admission,
                    DeadlinePolicy::Off,
                    &WindowPlan::new(4),
                );
                assert_eq!(
                    frozen.to_json_line(),
                    parallel.to_json_line(),
                    "QoS parallel diverged: {kind:?} × {balancer:?} × {admission:?}"
                );
            }
        }
    }
}

#[test]
fn autoscaled_runs_are_bit_identical_to_the_reference() {
    let scenario = Scenario::diurnal_fleet(2);
    let policy = Autoscaler::reactive(1, 5);
    for &kind in SchedulerKind::all() {
        for &balancer in LoadBalancerKind::all() {
            let config = fleet(2, balancer);
            for admission in ADMISSIONS {
                let spec = ServeSpec {
                    admission,
                    autoscaler: policy.clone(),
                    ..spec_for(kind)
                };
                let frozen = reference::serve(&config, &scenario, &spec, &mut Off);
                let rebuilt = serve(&config, &scenario, &spec, &mut Off);
                assert_eq!(
                    frozen.to_json_line(),
                    rebuilt.to_json_line(),
                    "autoscaled rebuild diverged: {kind:?} × {balancer:?} × {admission:?}"
                );
            }
        }
    }
}

#[test]
fn failure_injection_runs_are_bit_identical_to_the_reference() {
    let scenario = Scenario::b2_failover(3);
    let scheduled = FailurePlan::scheduled(&[(600_000, 0), (1_400_000, 2)]);
    let seeded = FailurePlan::seeded(0xF00D, 2, 2_500_000);
    for failures in [&scheduled, &seeded] {
        for &kind in SchedulerKind::all() {
            for &balancer in LoadBalancerKind::all() {
                let config = fleet(3, balancer);
                let spec = ServeSpec {
                    autoscaler: Autoscaler::reactive(2, 4),
                    failures: failures.clone(),
                    ..spec_for(kind)
                };
                let frozen = reference::serve(&config, &scenario, &spec, &mut Off);
                let rebuilt = serve(&config, &scenario, &spec, &mut Off);
                assert_eq!(
                    frozen.to_json_line(),
                    rebuilt.to_json_line(),
                    "failure-injection rebuild diverged: {kind:?} × {balancer:?}"
                );
            }
        }
    }
}

#[test]
fn trace_streams_are_identical_event_for_event() {
    // The full dynamic stack: autoscaler + failures + admission, traced.
    let scenario = Scenario::b2_failover(2);
    let policy = Autoscaler::reactive(1, 4);
    let failures = FailurePlan::scheduled(&[(900_000, 1)]);
    for &kind in SchedulerKind::all() {
        for &balancer in LoadBalancerKind::all() {
            let config = fleet(2, balancer);
            let spec = ServeSpec {
                admission: AdmissionKind::QueueThreshold,
                autoscaler: policy.clone(),
                failures: failures.clone(),
                ..spec_for(kind)
            };
            let mut frozen_rec = Recorder::new();
            let frozen = reference::serve(&config, &scenario, &spec, &mut frozen_rec);
            let mut rebuilt_rec = Recorder::new();
            let rebuilt = serve(&config, &scenario, &spec, &mut rebuilt_rec);
            assert_eq!(frozen.to_json_line(), rebuilt.to_json_line());
            assert_eq!(
                frozen_rec.events(),
                rebuilt_rec.events(),
                "trace stream diverged: {kind:?} × {balancer:?}"
            );
        }
    }
}

/// A deliberately aggressive plan: 50 ms windows, so even the small test
/// scenarios cut their quiescent spans into many parallel windows.
fn stress_plan(workers: usize) -> WindowPlan {
    WindowPlan::new(workers).with_window_us(50_000)
}

/// A coupled regime: (name, scenario, fleet size, autoscaler, failure
/// plan, deadline policy).
type Regime = (
    &'static str,
    Scenario,
    usize,
    Autoscaler,
    FailurePlan,
    DeadlinePolicy,
);

/// The coupled regimes the windowed engine must replay bit-identically:
/// each is a (scenario, fleet size, autoscaler, failure plan, deadline)
/// tuple exercising a different source of cross-shard coupling.
fn coupled_regimes() -> Vec<Regime> {
    vec![
        (
            "static",
            Scenario::b2_qos().with_sessions(32),
            4,
            Autoscaler::none(),
            FailurePlan::none(),
            DeadlinePolicy::Off,
        ),
        (
            // Queue-depth scale-ups with idle retirement off: windows
            // reopen between the cooldown-gated trigger edges.
            "autoscaled",
            Scenario::diurnal_fleet(2),
            2,
            Autoscaler::reactive(2, 6).with_idle_retire_us(0),
            FailurePlan::none(),
            DeadlinePolicy::Off,
        ),
        (
            // Idle retirement on: every window collapses to the
            // sequential span path, which must still be exact.
            "autoscaled-idle",
            Scenario::diurnal_fleet(2),
            2,
            Autoscaler::reactive(1, 5),
            FailurePlan::none(),
            DeadlinePolicy::Off,
        ),
        (
            "failure-injected",
            Scenario::b2_failover(3),
            3,
            Autoscaler::reactive(2, 5).with_idle_retire_us(0),
            FailurePlan::scheduled(&[(600_000, 0), (1_400_000, 2)]),
            DeadlinePolicy::Off,
        ),
        (
            "failure-seeded",
            Scenario::b2_failover(3),
            3,
            Autoscaler::reactive(2, 4).with_idle_retire_us(0),
            FailurePlan::seeded(0xF00D, 2, 2_500_000),
            DeadlinePolicy::Off,
        ),
        (
            "deadline-culled",
            Scenario::a2_fleet(4),
            4,
            Autoscaler::none(),
            FailurePlan::none(),
            DeadlinePolicy::CullExpired,
        ),
        (
            // A fleet that starts at one shard: sequential until the first
            // scale-up, windows across the grown fleet after it.
            "one-shard-scale-up",
            Scenario::b2(),
            1,
            Autoscaler::reactive(1, 3).with_idle_retire_us(0),
            FailurePlan::none(),
            DeadlinePolicy::Off,
        ),
    ]
}

/// FNV-1a digest of every sequential JSON line of each coupled regime, in
/// grid order (scheduler, balancer, admission), each line followed by a
/// newline. Recorded on the sequential `run()` loop before it was deleted;
/// the windows-disabled driver must reproduce them.
const COUPLED_GRID_DIGESTS: [(&str, u64); 7] = [
    ("static", 0x0105_a0de_a30d_c88b),
    ("autoscaled", 0xeaa2_a791_e9ba_174f),
    ("autoscaled-idle", 0xf8db_3844_b59a_fb88),
    ("failure-injected", 0x22ca_e1c9_71c9_a119),
    ("failure-seeded", 0x1f08_cde2_8d26_8b95),
    ("deadline-culled", 0x0202_7a08_2ea2_4df1),
    ("one-shard-scale-up", 0xeb8e_0756_d5c0_bd61),
];

/// The tier-1 sample of the coupled grid: regime `r` checks every
/// `SAMPLE_STRIDE`-th cell starting at cell `r`. The stride is coprime to
/// the grid's 48 cells per regime and equals the regime count, so the
/// seven samples together cover every scheduler × balancer × admission
/// cell exactly once.
const SAMPLE_STRIDE: usize = 7;
const SAMPLE_WORKERS: [usize; 2] = [1, 8];

/// The same digest over each regime's sample only, recorded on the
/// windows-disabled driver at a commit that passes [`COUPLED_GRID_DIGESTS`].
const SAMPLED_GRID_DIGESTS: [(&str, u64); 7] = [
    ("static", 0x1767_4320_e4b5_e6d5),
    ("autoscaled", 0xdb66_e004_d77d_396d),
    ("autoscaled-idle", 0xc25e_c1df_a3c4_a856),
    ("failure-injected", 0x4a52_ba85_2a63_a661),
    ("failure-seeded", 0x8bd6_a297_a744_3b26),
    ("deadline-culled", 0x1028_09ff_d46a_86c2),
    ("one-shard-scale-up", 0x2b43_2cf8_5f8e_ac7b),
];

type GridCell = (SchedulerKind, LoadBalancerKind, AdmissionKind);

/// Every scheduler × balancer × admission cell of a regime, in grid order.
fn grid_cells() -> Vec<GridCell> {
    let mut cells = Vec::new();
    for &kind in SchedulerKind::all() {
        for &balancer in LoadBalancerKind::all() {
            for admission in ADMISSIONS {
                cells.push((kind, balancer, admission));
            }
        }
    }
    cells
}

fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs each of `cells` of `regime` on the windows-disabled driver and on
/// the stress plan at each of `workers`, asserts the windowed reports
/// equal the sequential one, and returns the FNV-1a digest of the
/// sequential JSON lines.
fn regime_digest(regime: &Regime, cells: &[GridCell], workers: &[usize]) -> u64 {
    let (name, scenario, shards, policy, failures, deadline) = regime;
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for &(kind, balancer, admission) in cells {
        let config = fleet(*shards, balancer);
        let spec = ServeSpec {
            scheduler: kind,
            admission,
            deadline: *deadline,
            autoscaler: policy.clone(),
            failures: failures.clone(),
            workers: 1,
        };
        let sequential = serve_sequential(&config, scenario, &spec, &mut Off).to_json_line();
        digest = fnv1a_extend(digest, sequential.as_bytes());
        digest = fnv1a_extend(digest, b"\n");
        for &workers in workers {
            let windowed = simulate_windowed(
                &config,
                scenario,
                kind,
                policy,
                failures,
                admission,
                *deadline,
                &stress_plan(workers),
            );
            assert_eq!(
                sequential,
                windowed.to_json_line(),
                "windowed engine diverged: {name} × {kind:?} × {balancer:?} × \
                 {admission:?} × {workers} workers"
            );
        }
    }
    digest
}

fn assert_digests(digests: &[(&str, u64)], golden: &[(&str, u64)]) {
    let mismatches: Vec<String> = digests
        .iter()
        .zip(golden)
        .filter(|(actual, golden)| actual != golden)
        .map(|((regime, digest), (name, want))| {
            format!("{regime}: {digest:#018x} (golden {name}: {want:#018x})")
        })
        .collect();
    assert_eq!(digests.len(), golden.len(), "regime count");
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The tier-1 sample of the coupled grid: 48 cells, each run sequentially
/// and windowed at 1 and 8 workers (144 `serve` calls).
#[test]
fn windowed_engine_matches_the_sequential_engine_across_the_coupled_grid() {
    let cells = grid_cells();
    let digests: Vec<(&str, u64)> = coupled_regimes()
        .iter()
        .enumerate()
        .map(|(offset, regime)| {
            let sample: Vec<GridCell> = cells
                .iter()
                .copied()
                .skip(offset)
                .step_by(SAMPLE_STRIDE)
                .collect();
            (regime.0, regime_digest(regime, &sample, &SAMPLE_WORKERS))
        })
        .collect();
    assert_digests(&digests, &SAMPLED_GRID_DIGESTS);
}

/// The full coupled grid: 336 cells, each run sequentially and windowed at
/// 1, 2, 4 and 8 workers (1,680 `serve` calls).
#[test]
#[ignore = "1,680 serve calls, slow in debug; run in release with --include-ignored"]
fn windowed_engine_matches_the_sequential_engine_across_the_full_coupled_grid() {
    let cells = grid_cells();
    let digests: Vec<(&str, u64)> = coupled_regimes()
        .iter()
        .map(|regime| (regime.0, regime_digest(regime, &cells, &WORKER_COUNTS)))
        .collect();
    assert_digests(&digests, &COUPLED_GRID_DIGESTS);
}

#[test]
fn windowed_trace_streams_match_the_sequential_recording() {
    // The full dynamic stack, traced: scale-ups, a mid-run kill with
    // orphan re-placement, admission shedding, and a fleet that starts at
    // one shard — the recorded stream must be event-for-event identical
    // at every worker count.
    let runs = [
        (
            Scenario::b2_failover(2),
            2,
            Autoscaler::reactive(1, 4).with_idle_retire_us(0),
            FailurePlan::scheduled(&[(900_000, 1)]),
        ),
        (
            Scenario::b2(),
            1,
            Autoscaler::reactive(1, 3).with_idle_retire_us(0),
            FailurePlan::none(),
        ),
    ];
    for (scenario, shards, policy, failures) in &runs {
        for &kind in SchedulerKind::all() {
            for &balancer in LoadBalancerKind::all() {
                let config = fleet(*shards, balancer);
                let spec = ServeSpec {
                    admission: AdmissionKind::QueueThreshold,
                    autoscaler: policy.clone(),
                    failures: failures.clone(),
                    ..spec_for(kind)
                };
                let mut sequential_rec = Recorder::new();
                let sequential = serve_sequential(&config, scenario, &spec, &mut sequential_rec);
                for &workers in &WORKER_COUNTS {
                    let mut windowed_rec = Recorder::new();
                    let windowed = simulate_windowed_traced(
                        &config,
                        scenario,
                        kind,
                        policy,
                        failures,
                        AdmissionKind::QueueThreshold,
                        DeadlinePolicy::Off,
                        &mut windowed_rec,
                        &stress_plan(workers),
                    );
                    assert_eq!(sequential.to_json_line(), windowed.to_json_line());
                    assert_eq!(
                        sequential_rec.events(),
                        windowed_rec.events(),
                        "windowed trace diverged: {} × {kind:?} × {balancer:?} × {workers} workers",
                        scenario.name
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_trace_streams_match_the_sequential_recording() {
    // Static fleets — windows cut only by the plan's chunk size — across
    // every balancer (load-aware kinds never open a window).
    let scenario = Scenario::b2_qos().with_sessions(16);
    for &kind in SchedulerKind::all() {
        for &balancer in LoadBalancerKind::all() {
            let config = fleet(4, balancer);
            let spec = ServeSpec {
                admission: AdmissionKind::BudgetAware,
                ..spec_for(kind)
            };
            let mut frozen_rec = Recorder::new();
            let frozen = reference::serve(&config, &scenario, &spec, &mut frozen_rec);
            for &workers in &WORKER_COUNTS {
                let mut parallel_rec = Recorder::new();
                let parallel = simulate_windowed_traced(
                    &config,
                    &scenario,
                    kind,
                    &Autoscaler::none(),
                    &FailurePlan::none(),
                    AdmissionKind::BudgetAware,
                    DeadlinePolicy::Off,
                    &mut parallel_rec,
                    &WindowPlan::new(workers),
                );
                assert_eq!(frozen.to_json_line(), parallel.to_json_line());
                assert_eq!(
                    frozen_rec.events(),
                    parallel_rec.events(),
                    "parallel trace diverged: {kind:?} × {balancer:?} × {workers} workers"
                );
            }
        }
    }
}

#[test]
fn arrival_capped_windows_match_the_sequential_recording() {
    // Both scenarios overflow a window's 16,384-arrival buffer. A 400 ms
    // window of the 20k-session metropolis holds about 24k arrivals, so
    // the cap ends every window early; the Poisson sessions all issue
    // their first frame at t = 0, one instant of 18,000 arrivals that a
    // window must take whole.
    let poisson_instant = Scenario {
        name: "poisson_instant".to_owned(),
        sessions: 6_000,
        frame_rate_hz: 5.0,
        duration_sec: 0.3,
        arrival: ArrivalPattern::Poisson,
        queue_capacity: 64,
        ..Scenario::b1()
    };
    let spec = spec_for(SchedulerKind::BatchAggregating);
    for scenario in [
        Scenario::metropolis().with_sessions(20_000),
        poisson_instant,
    ] {
        for balancer in [
            LoadBalancerKind::RoundRobin,
            LoadBalancerKind::BranchSharded,
        ] {
            let config = fleet(8, balancer);
            let mut sequential_rec = Recorder::new();
            let sequential = serve_sequential(&config, &scenario, &spec, &mut sequential_rec);
            for workers in [1, 2] {
                let mut windowed_rec = Recorder::new();
                let windowed = simulate_windowed_traced(
                    &config,
                    &scenario,
                    spec.scheduler,
                    &spec.autoscaler,
                    &spec.failures,
                    spec.admission,
                    spec.deadline,
                    &mut windowed_rec,
                    &WindowPlan::new(workers).with_window_us(400_000),
                );
                assert_eq!(
                    sequential.to_json_line(),
                    windowed.to_json_line(),
                    "capped windows diverged: {} × {balancer:?} × {workers} workers",
                    scenario.name
                );
                assert_eq!(
                    sequential_rec.events(),
                    windowed_rec.events(),
                    "capped-window trace diverged: {} × {balancer:?} × {workers} workers",
                    scenario.name
                );
            }
        }
    }
}
