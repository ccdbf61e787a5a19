//! Prints every table and figure of the F-CAD paper as regenerated by this
//! reproduction.
//!
//! Usage:
//!   reproduce                # all experiments, harness DSE setting
//!   reproduce --full         # all experiments with the paper's P=200/N=20
//!   reproduce --table4       # a single experiment
//!   reproduce --table1 --fig3 ...
//!   reproduce --serve        # the four-scenario serving suite (JSON lines)
//!   reproduce --fleet        # the b2 burst on 1/2/4-shard fleets (JSON lines)
//!   reproduce --autoscale    # b2 failover: static vs autoscaled 6-shard fleet
//!   reproduce --qos          # b2_qos burst under each admission policy
//!   reproduce --deadline     # b2_qos burst under EDF dispatch, with and
//!                            # without queue-time expiry culling
//!   reproduce --windowed     # metropolis-scale autoscaled round-robin
//!                            # fleet (the windowed engine's regime)
//!   reproduce --workers N    # run every serving cell's windows on N
//!                            # workers (default 1: every window on the
//!                            # calling thread); the serving cells print
//!                            # no wall-clock value, so their stdout is
//!                            # byte-identical at every N
//!   reproduce --trace t.json --metrics m.jsonl --trace-worst 8
//!                            # trace the b2_qos × priority × budget-aware
//!                            # cell: Chrome trace_event JSON to t.json
//!                            # (load in Perfetto / chrome://tracing),
//!                            # windowed time-series metrics to m.jsonl,
//!                            # and the 8-worst-latency flight-recorder
//!                            # table to stderr. Each flag is independent.
//!
//! The last line of every invocation is a single-line machine-readable JSON
//! summary (FPS, efficiency, resources, and serving tail latencies). Any
//! other argument, or a flag missing its value, prints the usage list to
//! stderr and exits with status 2.

use fcad_serve::{
    serve, AdmissionKind, Autoscaler, DeadlinePolicy, FailurePlan, LoadBalancerKind, Off, Scenario,
    SchedulerKind, ServeSpec,
};

/// The experiment selectors; with none given, every experiment runs.
const EXPERIMENTS: [&str; 14] = [
    "--table1",
    "--table2",
    "--fig3",
    "--fig6",
    "--fig7",
    "--table4",
    "--table5",
    "--convergence",
    "--serve",
    "--fleet",
    "--autoscale",
    "--qos",
    "--deadline",
    "--windowed",
];

/// Prints `problem` and the usage list to stderr and exits with status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!(
        "reproduce: {problem}\n\n\
         usage: reproduce [--full] [EXPERIMENT ...] [--workers N]\n\
         \x20                [--trace FILE] [--metrics FILE] [--trace-worst K]\n\n\
         \x20 --full           the paper's P=200/N=20 DSE setting\n\
         \x20 EXPERIMENT       any of {} (default: all)\n\
         \x20 --workers N      workers for every serving cell's windows (default 1)\n\
         \x20 --trace FILE     Chrome trace of the b2_qos cell\n\
         \x20 --metrics FILE   windowed metrics of the b2_qos cell\n\
         \x20 --trace-worst K  the K worst-latency requests of the b2_qos cell",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

/// The value following `flag`.
fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

/// The integer following `flag`.
fn count(args: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    value(args, flag)
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} needs a non-negative integer")))
}

fn main() {
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut trace_worst: Option<usize> = None;
    let mut workers = 1usize;
    let mut full = false;
    let mut selected: Vec<&str> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace_path = Some(value(&mut args, "--trace")),
            "--metrics" => metrics_path = Some(value(&mut args, "--metrics")),
            "--trace-worst" => trace_worst = Some(count(&mut args, "--trace-worst")),
            "--workers" => workers = count(&mut args, "--workers"),
            "--full" => full = true,
            other => match EXPERIMENTS.iter().find(|&&name| name == other) {
                Some(&name) => selected.push(name),
                None => usage_error(&format!("unknown argument `{other}`")),
            },
        }
    }
    let tracing = trace_path.is_some() || metrics_path.is_some() || trace_worst.is_some();
    // A trace request narrows the run to the traced cell plus the final
    // summary, keeping trace artefacts fast to regenerate.
    let want = |name: &str| !tracing && (selected.is_empty() || selected.contains(&name));

    println!("F-CAD reproduction — regenerated evaluation artefacts\n");

    if want("--table1") {
        println!("{}", fcad_bench::table1());
    }
    if want("--table2") {
        println!("{}", fcad_bench::table2().1);
    }
    if want("--fig3") {
        println!("{}", fcad_bench::fig3().1);
    }
    if want("--fig6") || want("--fig7") {
        let samples = fcad_bench::estimation_study(full);
        if want("--fig6") {
            println!("{}", fcad_bench::fig6(&samples));
        }
        if want("--fig7") {
            println!("{}", fcad_bench::fig7(&samples));
        }
    }
    if want("--table4") {
        println!("{}", fcad_bench::table4(full));
    }
    if want("--table5") {
        println!("{}", fcad_bench::table5(full));
    }
    if want("--convergence") {
        println!(
            "{}",
            fcad_bench::convergence(if full { 10 } else { 5 }, full)
        );
    }
    // The serving suite and the final summary share one DSE-optimized
    // case (ZU17EG, 8-bit) so the flow never runs twice.
    let platform = fcad_accel::Platform::zu17eg();
    let result = fcad_bench::run_case(&platform, fcad_nnir::Precision::Int8, full);
    // Every serving cell runs at `--workers`; the rest of each cell's spec
    // is the legacy default unless the cell says otherwise.
    let spec = ServeSpec {
        workers,
        ..ServeSpec::default()
    };
    if want("--serve") {
        let config = result.fleet_config(1);
        for scenario in Scenario::suite() {
            println!(
                "{}",
                serve(&config, &scenario, &spec, &mut Off).to_json_line()
            );
        }
    }
    if want("--fleet") {
        // Fixed b2 burst load on growing least-loaded fleets: the per-shard
        // stats in each line show the tail collapsing as shards are added.
        let chaos = Scenario::b2();
        for shards in [1usize, 2, 4] {
            let config = result
                .fleet_config(shards)
                .with_balancer(LoadBalancerKind::LeastLoaded);
            println!("{}", serve(&config, &chaos, &spec, &mut Off).to_json_line());
        }
    }
    if want("--autoscale") {
        // The availability experiment: the stretched b2 burst on a
        // six-shard least-loaded fleet, three shards killed mid-burst —
        // once on the static fleet and once under the reactive autoscaler.
        // The two extended JSON lines carry the pre/post-failure tails,
        // re-placed/lost counts, availability and the scale-event log.
        let scenario = Scenario::b2_failover(1);
        let config = result
            .fleet_config(6)
            .with_balancer(LoadBalancerKind::LeastLoaded);
        let policy = Autoscaler::reactive(6, 8)
            .with_scale_up_queue_depth(4)
            .with_warmup_us(25_000)
            .with_cooldown_us(80_000)
            .with_idle_retire_us(0);
        for autoscaler in [Autoscaler::none(), policy] {
            let cell = ServeSpec {
                autoscaler,
                failures: FailurePlan::scheduled(&[(1_100_000, 1), (1_150_000, 2), (1_200_000, 3)]),
                ..spec.clone()
            };
            println!(
                "{}",
                serve(&config, &scenario, &cell, &mut Off).to_json_line()
            );
        }
    }
    if want("--qos") {
        // The SLO experiment: the mixed-class b2_qos burst under the
        // weighted scheduler, once per admission policy. The three
        // extended JSON lines carry the shed counts, per-class rows and
        // slo_attainment — the fields policies are compared on.
        let scenario = Scenario::b2_qos();
        let config = result.fleet_config(1);
        for &admission in AdmissionKind::all() {
            let cell = ServeSpec {
                scheduler: SchedulerKind::PriorityByBranch,
                admission,
                ..spec.clone()
            };
            println!(
                "{}",
                serve(&config, &scenario, &cell, &mut Off).to_json_line()
            );
        }
    }
    if want("--deadline") {
        // The dead-frame experiment: the mixed-class b2_qos burst under
        // earliest-deadline-first dispatch, once with culling off (the
        // legacy-compatible baseline) and once retiring already-expired
        // queued requests at dispatch time. The two extended JSON lines
        // carry the `expired` outcome, fabric_busy_us and
        // slo_per_busy_sec — deadline policies are compared on SLO
        // attainment per unit of fabric time.
        let scenario = Scenario::b2_qos();
        let config = result.fleet_config(1);
        for deadline in [DeadlinePolicy::Off, DeadlinePolicy::CullExpired] {
            let cell = ServeSpec {
                scheduler: SchedulerKind::Deadline,
                deadline,
                ..spec.clone()
            };
            println!(
                "{}",
                serve(&config, &scenario, &cell, &mut Off).to_json_line()
            );
        }
    }
    if want("--windowed") {
        // The windowed-engine experiment: a metropolis-scale round-robin
        // fleet that scales from 192 toward 256 shards under queue
        // pressure. The scale-up phase replays sequentially and the
        // terminal phase runs in windows — on the calling thread at one
        // worker, fanned out at `--workers N` — and its JSON line is
        // byte-identical at every worker count.
        let scenario = Scenario::metropolis().with_sessions(100_000);
        let config = result.fleet_config(192);
        let cell = ServeSpec {
            autoscaler: Autoscaler::reactive(192, 256)
                .with_cooldown_us(0)
                .with_idle_retire_us(0),
            ..spec.clone()
        };
        println!(
            "{}",
            serve(&config, &scenario, &cell, &mut Off).to_json_line()
        );
    }
    if tracing {
        // The traced cell: the b2_qos burst under the weighted scheduler
        // and budget-aware admission, narrated into a recorder. The report
        // line gains the trace_summary tail; the recorded events feed
        // whichever exporters the flags asked for.
        let scenario = Scenario::b2_qos();
        let cell = ServeSpec {
            scheduler: SchedulerKind::PriorityByBranch,
            admission: AdmissionKind::BudgetAware,
            ..spec.clone()
        };
        let mut recorder = fcad_serve::Recorder::new();
        let report = serve(&result.fleet_config(1), &scenario, &cell, &mut recorder);
        println!(
            "{}",
            report.with_trace_summary(recorder.summary()).to_json_line()
        );
        if let Some(path) = &trace_path {
            let trace = fcad_serve::chrome_trace(recorder.events());
            std::fs::write(path, trace).expect("--trace file must be writable");
        }
        if let Some(path) = &metrics_path {
            let mut windowed = fcad_serve::Windowed::new(50_000);
            recorder.replay(&mut windowed);
            std::fs::write(path, windowed.finish().to_json_lines())
                .expect("--metrics file must be writable");
        }
        if let Some(worst_k) = trace_worst {
            let flight = fcad_serve::FlightRecorder::from_events(recorder.events(), worst_k);
            eprintln!("{}", flight.to_table());
        }
    }
    // Final machine-readable summary, always emitted as the last line.
    println!("{}", fcad_bench::summary_of(&result, &platform));
}
