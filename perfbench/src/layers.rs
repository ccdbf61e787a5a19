//! `--trace 1`: the traced run. The same kinds of operation as the
//! end-to-end run, with a span around each layer's public call, plus
//! seeded samples of the calls that run too often inside the DSE to span
//! one by one. Spans are taken here only; the crates are not
//! instrumented.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fcad::{Construction, FcadResult, ValidationReport};
use fcad_accel::AcceleratorConfig;
use fcad_dse::{DseEngine, DseResult, InBranchOptimizer, ResourceDistribution};
use fcad_profiler::NetworkProfile;
use fcad_serve::{Off, Recorder, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::{check_serve, sim_events};
use crate::procfs::{self, Sample};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::workload::{mix, run_flow, setup, DseCase, FlowOutcome, Ready, ServeSpec, Workload};
use crate::Outcome;

/// Seeded resource distributions per case on which the in-branch
/// optimizer and the accelerator model are timed call by call.
const INBRANCH_SAMPLES: u64 = 48;

/// Serve-call seconds the probe of the DSE workloads accumulates.
const PROBE_MIN_S: f64 = 0.5;

/// Sums gathered while the traced run goes.
#[derive(Debug, Default)]
struct Acc {
    explore: CpuWall,
    serve_call: CpuWall,
    candidates: u64,
    fps_err_max: f64,
    eff_err_max: f64,
    arrivals_bytes: usize,
    events: u64,
    completed_frac: f64,
}

/// Runs `workload` traced for about `seconds` and returns the per-layer
/// metrics.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    // The run's wall clock, apart from the spans.
    let started = Instant::now();
    let mut out = Outcome::default();
    let mut acc = Acc::default();
    let mut tracer = Tracer::new();
    let budget = Duration::from_secs_f64(seconds);
    tracer.span("bench.run", |t| -> Result<(), String> {
        let mut rounds = Rounds::new(budget);
        let ready = t.span("bench.setup", |_| setup(workload, seed))?;
        out.expected = ready.expected();
        let probe = match &ready {
            Ready::Dse(cases) => {
                // The front door once per case: the reference the
                // step-by-step flows must reproduce.
                let references: Vec<Option<FlowOutcome>> =
                    cases.iter().map(|c| front_door(t, c, &mut out)).collect();
                let mut last: Vec<Option<FlowOutcome>> = vec![None; cases.len()];
                while rounds.next() {
                    for ((case, reference), slot) in cases.iter().zip(&references).zip(&mut last) {
                        let reference = reference.as_ref().map(|r| &r.result.dse);
                        *slot = flow_op(t, case, reference, &mut out, &mut acc).or(slot.take());
                    }
                }
                for (i, (case, flow)) in cases.iter().zip(&last).enumerate() {
                    if let Some(flow) = flow {
                        inbranch_sample(t, case, flow, mix(seed, 1000 + i as u64));
                    }
                }
                // The serve layer on the last design found: the policy-mix
                // shape at 16 shards for 10 s.
                let design = last.iter().rev().flatten().next();
                let design = design.ok_or("no flow succeeded")?;
                let probe =
                    ServeSpec::policy_mix(design.result.service_model(), mix(seed, 100), 16, 10);
                // Enough calls for the CPU clock's 10 ms ticks to resolve.
                while acc.serve_call.wall_s < PROBE_MIN_S {
                    serve_round(t, &probe, &mut out, &mut acc);
                }
                probe
            }
            Ready::Serve {
                spec,
                prelude_case,
                prelude,
            } => {
                // The DSE layer on the prelude, checked against the set-up's
                // `Fcad::run`.
                if let Some(flow) = flow_op(t, prelude_case, Some(&prelude.dse), &mut out, &mut acc)
                {
                    inbranch_sample(t, prelude_case, &flow, mix(seed, 1000));
                }
                while rounds.next() {
                    serve_round(t, spec, &mut out, &mut acc);
                }
                spec.recorder_probe()
            }
        };
        recorder_round(t, &probe, &mut out);
        Ok(())
    })?;

    let wall_s = started.elapsed().as_secs_f64();
    let trace_overhead = tracer.spans().len() as f64 * span_cost_s() / wall_s;
    let self_sum_s = tracer.self_times_ns().iter().sum::<u64>() as f64 * 1e-9;
    out.record(self_times_account_for(self_sum_s, wall_s, trace_overhead));

    let med = |name: &str| median(&tracer.secs_of(name)).unwrap_or(f64::NAN);
    let inbranch_mean = mean(&tracer.secs_of("dse.inbranch")).unwrap_or(f64::NAN);
    let engine_s = med("serve.call") - med("serve.generate");
    let events = acc.events as f64;
    out.metrics = vec![
        ("profiler.profile_ms", med("profiler.profile") * 1e3, "ms"),
        ("core.construct_ms", med("core.construct") * 1e3, "ms"),
        ("dse.explore_s", med("dse.explore"), "s"),
        ("dse.candidates", acc.candidates as f64, "count"),
        ("dse.cpu_per_wall", acc.explore.ratio(), "ratio"),
        ("dse.inbranch_us", med("dse.inbranch") * 1e6, "us"),
        (
            "dse.inbranch_share",
            inbranch_mean * acc.candidates as f64 / acc.explore.wall_s,
            "ratio",
        ),
        ("accel.evaluate_us", med("accel.evaluate") * 1e6, "us"),
        ("cyclesim.compare_us", med("cyclesim.compare") * 1e6, "us"),
        ("cyclesim.fps_err_max", acc.fps_err_max, "ratio"),
        ("cyclesim.eff_err_max", acc.eff_err_max, "ratio"),
        ("serve.generate_s", med("serve.generate"), "s"),
        (
            "serve.arrivals_mb",
            acc.arrivals_bytes as f64 / (1024.0 * 1024.0),
            "MB",
        ),
        ("serve.engine_s", engine_s, "s"),
        ("serve.ns_per_event", engine_s * 1e9 / events, "ns"),
        ("serve.events", events, "count"),
        (
            "serve.parallel_speedup",
            med("serve.call_1w") / med("serve.call"),
            "x",
        ),
        ("serve.cpu_per_wall", acc.serve_call.ratio(), "ratio"),
        ("serve.completed_frac", acc.completed_frac, "ratio"),
        (
            "obs.recorder_overhead",
            med("obs.recorder") / med("obs.off") - 1.0,
            "ratio",
        ),
        ("bench.trace_overhead", trace_overhead, "ratio"),
    ];
    Ok(out)
}

/// The rounds of the traced run: the first always runs, and another while
/// the previous round's duration still fits in the budget.
struct Rounds {
    started: Instant,
    budget: Duration,
    round_started: Option<Instant>,
}

impl Rounds {
    fn new(budget: Duration) -> Self {
        Self {
            started: Instant::now(),
            budget,
            round_started: None,
        }
    }

    /// Whether to run another round.
    fn next(&mut self) -> bool {
        let now = Instant::now();
        let go = self
            .round_started
            .is_none_or(|last| now - self.started + (now - last) <= self.budget);
        self.round_started = Some(now);
        go
    }
}

/// CPU and wall seconds accumulated over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
struct CpuWall {
    /// User plus system CPU seconds.
    cpu_s: f64,
    /// Wall seconds.
    wall_s: f64,
}

impl CpuWall {
    /// Runs `body` in span `name`, adding its CPU and wall time.
    fn span<R>(&mut self, tracer: &mut Tracer, name: &'static str, body: impl FnOnce() -> R) -> R {
        tracer.span(name, |_| {
            let before = Sample::now();
            let started = Instant::now();
            let out = body();
            self.wall_s += started.elapsed().as_secs_f64();
            self.cpu_s += Sample::now().cpu_s() - before.cpu_s();
            out
        })
    }

    /// CPU seconds per wall second.
    fn ratio(&self) -> f64 {
        self.cpu_s / self.wall_s
    }
}

/// [`run_flow`] step by step, with a span around each layer's public
/// call. Must produce the same `DseResult` as `Fcad::run`.
fn run_flow_traced(
    tracer: &mut Tracer,
    case: &DseCase,
    explore: &mut CpuWall,
) -> Result<FlowOutcome, String> {
    tracer.span("bench.flow", |t| {
        let label = &case.label;
        case.network
            .validate()
            .map_err(|e| format!("{label}: {e}"))?;
        let profile = t.span("profiler.profile", |_| NetworkProfile::of(&case.network));
        let (construction, accelerator) = t.span("core.construct", |_| {
            let construction = Construction::of(&case.network, &profile);
            let accelerator = construction.instantiate(
                format!("{}-accelerator", case.network.name()),
                &case.platform,
            );
            (construction, accelerator)
        });
        let dse = explore
            .span(t, "dse.explore", || {
                DseEngine::new(case.params).explore(
                    &accelerator,
                    &case.platform,
                    &case.customization,
                )
            })
            .map_err(|e| format!("{label}: {e}"))?;
        let validation = t
            .span("cyclesim.compare", |_| {
                ValidationReport::compare(&accelerator, &dse.best_config, case.bandwidth())
            })
            .map_err(|e| format!("{label}: {e}"))?;
        Ok(FlowOutcome {
            result: FcadResult {
                profile,
                construction,
                accelerator,
                customization: case.customization.clone(),
                dse,
            },
            validation,
        })
    })
}

/// `Fcad::run` plus validation, spanned as a whole: the reference for the
/// step-by-step flow.
fn front_door(t: &mut Tracer, case: &DseCase, out: &mut Outcome) -> Option<FlowOutcome> {
    let flow = t.span("bench.front_door", |_| run_flow(case));
    let checked = flow.and_then(|f| {
        out.expected.check(&case.label, f.check(case)?)?;
        Ok(f)
    });
    out.record(checked)
}

/// One step-by-step flow, checked, and equal to `reference` when given.
fn flow_op(
    t: &mut Tracer,
    case: &DseCase,
    reference: Option<&DseResult>,
    out: &mut Outcome,
    acc: &mut Acc,
) -> Option<FlowOutcome> {
    let flow = run_flow_traced(t, case, &mut acc.explore);
    let checked = flow.and_then(|f| {
        out.expected.check(&case.label, f.check(case)?)?;
        if reference.is_some_and(|r| *r != f.result.dse) {
            return Err(format!(
                "{}: step-by-step DseResult differs from Fcad::run's",
                case.label
            ));
        }
        Ok(f)
    });
    let flow = out.record(checked)?;
    acc.candidates += case.candidates();
    acc.fps_err_max = acc.fps_err_max.max(flow.validation.max_fps_error());
    acc.eff_err_max = acc.eff_err_max.max(flow.validation.max_efficiency_error());
    Some(flow)
}

/// Times the in-branch optimizer (all branches of one candidate per
/// span) and the accelerator model on seeded resource distributions of
/// the flow's accelerator.
fn inbranch_sample(t: &mut Tracer, case: &DseCase, flow: &FlowOutcome, seed: u64) {
    let accelerator = &flow.result.accelerator;
    let customization = &case.customization;
    let budget = *case.platform.budget();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..INBRANCH_SAMPLES {
        let split = ResourceDistribution::random(accelerator.branch_count(), &mut rng);
        let configs = t.span("dse.inbranch", |_| {
            accelerator
                .branches()
                .iter()
                .enumerate()
                .map(|(b, pipeline)| {
                    InBranchOptimizer::new(
                        pipeline,
                        customization.precision,
                        accelerator.frequency_hz(),
                    )
                    .with_cost_model(*accelerator.cost_model())
                    .optimize(
                        &split.branch_budget(b, &budget),
                        customization.batch_size(b),
                    )
                })
                .collect::<Vec<_>>()
        });
        let config = AcceleratorConfig::new(configs, customization.precision);
        black_box(
            t.span("accel.evaluate", |_| accelerator.evaluate(&config))
                .ok(),
        );
    }
}

/// Arrival generation alone, then the serve call at `workers = nproc`
/// and at `workers = 1`; both reports must match the expected digest.
fn serve_round(t: &mut Tracer, spec: &ServeSpec, out: &mut Outcome, acc: &mut Acc) {
    let arrivals = t.span("serve.generate", |_| {
        spec.scenario.generate(spec.config.branch_count())
    });
    acc.arrivals_bytes = arrivals.len() * std::mem::size_of::<Request>();
    drop(arrivals);
    let report = acc
        .serve_call
        .span(t, "serve.call", || spec.serve(procfs::nproc()));
    let single = t.span("serve.call_1w", |_| spec.serve(1));
    let label = &spec.scenario.name;
    for r in [&report, &single] {
        let checked = check_serve(r).and_then(|d| out.expected.check(label, d));
        out.record(checked);
    }
    acc.events = sim_events(&report);
    acc.completed_frac = report.completed as f64 / report.issued.max(1) as f64;
}

/// The serve call with tracing off and with a `Recorder`; the reports
/// must be identical.
fn recorder_round(t: &mut Tracer, spec: &ServeSpec, out: &mut Outcome) {
    let workers = procfs::nproc();
    let off = t.span("obs.off", |_| spec.serve_traced(workers, &mut Off));
    let mut recorder = Recorder::new();
    let recorded = t.span("obs.recorder", |_| {
        spec.serve_traced(workers, &mut recorder)
    });
    black_box(recorder.len());
    let checked = check_serve(&off).and_then(|_| {
        if off == recorded {
            Ok(())
        } else {
            Err("recording the trace changed the report".to_owned())
        }
    });
    out.record(checked);
}

/// Checks that the spans' self times sum to the run's wall time, as read
/// on a clock apart from the spans, within `trace_overhead` of it: work
/// outside every span, or a span left open, breaks it.
fn self_times_account_for(self_sum_s: f64, wall_s: f64, trace_overhead: f64) -> Result<(), String> {
    if (wall_s - self_sum_s).abs() <= trace_overhead * wall_s {
        Ok(())
    } else {
        Err(format!(
            "span self times sum to {self_sum_s} s, run took {wall_s} s \
             (allowed gap {trace_overhead} of it)"
        ))
    }
}

/// Wall cost of opening and closing one span.
fn span_cost_s() -> f64 {
    const SPANS: u32 = 20_000;
    let mut tracer = Tracer::new();
    let started = Instant::now();
    for _ in 0..SPANS {
        tracer.span("calibrate", |_| ());
    }
    started.elapsed().as_secs_f64() / f64::from(SPANS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_must_cover_the_wall_time() {
        // 1 ms of spans over a 10 s run allows a 1 ms gap.
        assert!(self_times_account_for(9.9995, 10.0, 1e-4).is_ok());
        assert!(self_times_account_for(10.0, 10.0, 0.0).is_ok());
        // Work outside every span, or a span counted past the run.
        assert!(self_times_account_for(9.99, 10.0, 1e-4).is_err());
        assert!(self_times_account_for(10.01, 10.0, 1e-4).is_err());
    }

    #[test]
    fn a_traced_run_accounts_for_its_wall_time() {
        let started = Instant::now();
        let mut tracer = Tracer::new();
        tracer.span("root", |t| {
            for _ in 0..100 {
                t.span("leaf", |_| black_box((0..1000).sum::<u64>()));
            }
        });
        let wall_s = started.elapsed().as_secs_f64();
        let self_sum_s = tracer.self_times_ns().iter().sum::<u64>() as f64 * 1e-9;
        let overhead = tracer.spans().len() as f64 * span_cost_s() / wall_s;
        assert!(self_times_account_for(self_sum_s, wall_s, overhead).is_ok());
    }
}
