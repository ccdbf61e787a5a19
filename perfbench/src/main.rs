//! Host-time benchmark agent for the F-CAD reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--setup-only]
//! ```
//!
//! Runs one workload from a single process in a closed loop: the next
//! operation (one F-CAD flow, or one serve call) starts when the previous
//! one returns, until `--seconds` have passed. Every output is checked.
//! Stdout gets one JSON row per operation, then one result line:
//!
//! - `--trace 0`: the end-to-end metrics `setup_s`, `op_s`, `op_s_1w`,
//!   `cpu_s` and `peak_rss_mb`. Operations alternate between all cores
//!   (`workers = nproc`) and the single-core control (`workers = 1`), so
//!   both see the same host conditions. Before each operation the agent
//!   prints a `pin` row and waits for a line on stdin: `run.py` confines
//!   the process to one CPU for the control and releases it after. Fresh
//!   `--setup-only` processes, timed from spawn to exit for `setup_s`,
//!   are spread through the loop the same way.
//! - `--trace 1`: the per-layer metrics, from spans taken around each
//!   layer's public calls.
//!
//! `--setup-only` builds the workload's inputs and exits without output.

mod check;
mod layers;
mod procfs;
mod stats;
mod trace;
mod workload;

use std::io::{self, BufRead, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use check::{check_serve, Expected};
use procfs::Sample;
use workload::{run_flow, setup, Ready, Workload};

/// What one agent process does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The end-to-end loop.
    Timed,
    /// The traced run.
    Traced,
    /// Set-up alone.
    SetupOnly,
}

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let mode = match (trace.unwrap_or(false), setup_only) {
        (_, true) => Mode::SetupOnly,
        (true, false) => Mode::Traced,
        (false, false) => Mode::Timed,
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        mode,
    })
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What one agent run reports.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    expected: Expected,
}

impl Outcome {
    /// Counts one operation, failed when `result` is an error (printed
    /// to stderr).
    fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(why) => {
                self.failed += 1;
                eprintln!("perfbench: failed op: {why}");
                None
            }
        }
    }

    fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) become
/// `null`, and the result line then fails to validate upstream.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
struct OpRow {
    case: usize,
    workers: usize,
    wall_s: f64,
    cpu_s: f64,
}

/// Times `op`, prints its row with the resource sample beside it, and
/// returns the row.
fn timed_op<T>(
    workload: Workload,
    label: &str,
    case: usize,
    workers: usize,
    op: impl FnOnce() -> T,
) -> (T, OpRow) {
    let before = Sample::now();
    let started = Instant::now();
    let out = op();
    let wall_s = started.elapsed().as_secs_f64();
    let after = Sample::now();
    println!(
        "{{\"row\": \"op\", \"workload\": \"{}\", \"case\": \"{label}\", \"workers\": {workers}, \
         \"wall_s\": {}, \"user_s\": {}, \"sys_s\": {}, \"vm_hwm_mb\": {}, \"nproc\": {}}}",
        workload.name(),
        number(wall_s),
        number(after.user_s - before.user_s),
        number(after.sys_s - before.sys_s),
        number(after.vm_hwm_mb),
        procfs::nproc(),
    );
    let row = OpRow {
        case,
        workers,
        wall_s,
        cpu_s: after.cpu_s() - before.cpu_s(),
    };
    (out, row)
}

/// Over the operations run at `workers`: the mean over cases of each
/// case's median wall time, and of each case's mean CPU time; every case
/// carries equal weight however many times it ran. Prints a summary row
/// per case.
fn per_case(rows: &[OpRow], labels: &[String], workers: usize) -> (f64, f64) {
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    for (case, label) in labels.iter().enumerate() {
        let ran = || {
            rows.iter()
                .filter(|r| r.case == case && r.workers == workers)
        };
        let wall: Vec<f64> = ran().map(|r| r.wall_s).collect();
        let cpu: Vec<f64> = ran().map(|r| r.cpu_s).collect();
        let Some(median) = stats::median(&wall) else {
            continue;
        };
        let [q1, _, q3] = stats::quartiles(&wall).unwrap_or([median; 3]);
        println!(
            "{{\"row\": \"case\", \"case\": \"{label}\", \"workers\": {workers}, \"ops\": {}, \
             \"median_s\": {}, \"q1_s\": {}, \"q3_s\": {}}}",
            wall.len(),
            number(median),
            number(q1),
            number(q3)
        );
        walls.push(median);
        cpus.extend(stats::mean(&cpu));
    }
    (
        stats::mean(&walls).unwrap_or(f64::NAN),
        stats::mean(&cpus).unwrap_or(f64::NAN),
    )
}

/// Asks the parent process to confine this process to one CPU
/// (`workers == 1`) or to release it, and waits until it has.
fn request_pin(workers: usize) -> Result<(), String> {
    println!("{{\"row\": \"pin\", \"workers\": {workers}}}");
    io::stdout().flush().map_err(|e| format!("stdout: {e}"))?;
    let mut ack = String::new();
    match io::stdin().lock().read_line(&mut ack) {
        Ok(n) if n > 0 => Ok(()),
        Ok(_) => Err("stdin closed before the pin was acknowledged".to_owned()),
        Err(e) => Err(format!("stdin: {e}")),
    }
}

/// Fresh set-up processes timed per run for `setup_s`.
const SETUP_SPAWNS: usize = 9;

/// Wall seconds of one fresh `--setup-only` process of this binary, from
/// spawn to exit. The child inherits this process's CPU affinity.
fn setup_spawn(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let status = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--setup-only")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("set-up process: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    if status.success() {
        Ok(wall_s)
    } else {
        Err(format!("set-up process {status}"))
    }
}

/// Whether the next of `done` set-up spawns is due, `elapsed` into a loop
/// of `budget`: they are spread evenly over it, the first at its start.
fn setup_due(done: usize, elapsed: Duration, budget: Duration) -> bool {
    done < SETUP_SPAWNS && elapsed >= budget.mul_f64(done as f64 / SETUP_SPAWNS as f64)
}

/// The timed loop's output: one row per operation, and the wall seconds
/// of each set-up spawn.
struct LoopRun {
    rows: Vec<OpRow>,
    setup_walls: Vec<f64>,
}

/// The closed loop: every case at `workers = nproc` and then at
/// `workers = 1`, in rotation, until the next operation would end past
/// `seconds`, once every pair has run. Set-up spawns run between
/// operations while the process may use every core; any the loop had no
/// room for run after it.
fn closed_loop(args: &Args, ready: &Ready, out: &mut Outcome) -> Result<LoopRun, String> {
    let labels = ready.case_labels();
    let configs = [procfs::nproc(), 1];
    let slots = labels.len() * configs.len();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut rows: Vec<OpRow> = Vec::new();
    let mut setup_walls = Vec::new();
    for i in 0.. {
        let (case, workers) = (i % slots / configs.len(), configs[i % configs.len()]);
        if i >= slots {
            // The previous run of the same case and configuration predicts
            // this one.
            let last = rows[i - slots].wall_s;
            if started.elapsed() + Duration::from_secs_f64(last) > budget {
                break;
            }
        }
        request_pin(workers)?;
        if workers == configs[0] && setup_due(setup_walls.len(), started.elapsed(), budget) {
            setup_walls.push(setup_spawn(args)?);
        }
        let label = &labels[case];
        let (digest, row) = match ready {
            Ready::Dse(cases) => {
                let (flow, row) = timed_op(args.workload, label, case, workers, || {
                    run_flow(&cases[case])
                });
                (flow.and_then(|f| f.check(&cases[case])), row)
            }
            Ready::Serve { spec, .. } => {
                let (report, row) =
                    timed_op(args.workload, label, case, workers, || spec.serve(workers));
                (check_serve(&report), row)
            }
        };
        // One expectation per case: the output must not depend on the
        // worker count.
        let checked = digest.and_then(|d| out.expected.check(label, d));
        out.record(checked);
        rows.push(row);
    }
    if setup_walls.len() < SETUP_SPAWNS {
        request_pin(configs[0])?;
        while setup_walls.len() < SETUP_SPAWNS {
            setup_walls.push(setup_spawn(args)?);
        }
    }
    Ok(LoopRun { rows, setup_walls })
}

/// `--trace 0`: set-up, then the timed closed loop.
fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let ready = setup(args.workload, args.seed)?;
    let mut out = Outcome {
        expected: ready.expected(),
        ..Outcome::default()
    };
    let LoopRun { rows, setup_walls } = closed_loop(args, &ready, &mut out)?;
    let labels = ready.case_labels();
    let (op_s, cpu_s) = per_case(&rows, &labels, procfs::nproc());
    let (op_s_1w, _) = per_case(&rows, &labels, 1);
    let setup_s = stats::median(&setup_walls).unwrap_or(f64::NAN);
    out.metrics.extend([
        ("setup_s", setup_s, "s"),
        ("op_s", op_s, "s"),
        ("op_s_1w", op_s_1w, "s"),
        ("cpu_s", cpu_s, "s"),
        ("peak_rss_mb", Sample::now().vm_hwm_mb, "MB"),
    ]);
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.mode {
        Mode::SetupOnly => {
            return match setup(args.workload, args.seed) {
                Ok(_) => ExitCode::SUCCESS,
                Err(why) => {
                    eprintln!("perfbench: {why}");
                    ExitCode::FAILURE
                }
            }
        }
        Mode::Traced => layers::traced(args.workload, args.seed, args.seconds),
        Mode::Timed => end_to_end(&args),
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.render());
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = parse("--workload dse_classic --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::DseClassic);
        assert_eq!((args.seed, args.seconds, args.mode), (7, 2.5, Mode::Traced));
        let timed = parse("--workload dse_classic --seed 1 --seconds 1 --trace 0").unwrap();
        assert_eq!(timed.mode, Mode::Timed);
        let setup_only = parse("--workload dse_classic --seed 1 --seconds 1 --setup-only").unwrap();
        assert_eq!(setup_only.mode, Mode::SetupOnly);
        assert!(parse("--workload dse_classic --seed 1 --seconds 1 --pin-requests").is_err());
        assert!(parse("--workload nope --seed 1 --seconds 1").is_err());
        assert!(parse("--workload dse_classic --seed 1 --seconds 0").is_err());
        assert!(parse("--workload dse_classic --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--seed 1 --seconds 1").is_err());
    }

    #[test]
    fn setup_spawns_spread_over_the_loop() {
        let budget = Duration::from_secs(90);
        let at = Duration::from_secs;
        assert!(setup_due(0, at(0), budget));
        assert!(!setup_due(1, at(9), budget));
        assert!(setup_due(1, at(10), budget));
        assert!(setup_due(4, at(45), budget));
        assert!(!setup_due(5, at(45), budget));
        // Never more than SETUP_SPAWNS, however late.
        assert!(!setup_due(SETUP_SPAWNS, at(1_000), budget));
    }

    #[test]
    fn per_case_weighs_cases_equally() {
        let row = |case, workers, wall_s, cpu_s| OpRow {
            case,
            workers,
            wall_s,
            cpu_s,
        };
        // Case 0 ran three times, case 1 once, each also at another
        // worker count that must not count.
        let rows = [
            row(0, 2, 1.0, 0.5),
            row(0, 2, 3.0, 1.5),
            row(0, 1, 99.0, 99.0),
            row(0, 2, 2.0, 1.0),
            row(1, 2, 10.0, 9.0),
            row(1, 1, 7.0, 7.0),
        ];
        let labels = ["a".to_owned(), "b".to_owned()];
        assert_eq!(per_case(&rows, &labels, 2), (6.0, 5.0));
        assert_eq!(per_case(&rows, &labels, 1), (53.0, 53.0));
    }

    #[test]
    fn result_line_carries_counts_and_units() {
        let mut out = Outcome::default();
        out.record::<()>(Ok(()));
        out.record::<()>(Err("boom".to_owned()));
        out.metrics.push(("op_s", 1.25, "s"));
        let line = out.render();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(line.contains("\"op_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(number(f64::NAN), "null");
    }
}
