//! Experiment library: regenerates every table and figure of the F-CAD paper.
//!
//! Each experiment is a function returning the structured data, a
//! printable table, or both; the `reproduce` binary prints the tables.
//!
//! | Experiment | Function | Paper artefact |
//! |------------|----------|----------------|
//! | Decoder profile | [`table1`] | Table I |
//! | Baseline evaluation | [`table2`] | Table II |
//! | DNNBuilder layer latencies | [`fig3`] | Fig. 3 |
//! | FPS estimation error | [`fig6`] | Fig. 6 |
//! | Efficiency estimation error | [`fig7`] | Fig. 7 |
//! | F-CAD generated accelerators | [`table4`] | Table IV |
//! | Comparison on ZU9CG | [`table5`] | Table V |
//! | DSE convergence | [`convergence`] | Sec. VII text |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fcad::{BranchValidation, Customization, DseParams, Fcad, FcadResult, ValidationReport};
use fcad_accel::Platform;
use fcad_baselines::{BaselineResult, DnnBuilder, HybridDnn, LayerLatency, MobileSoc};
use fcad_dse::{ConvergenceStats, DseResult};
use fcad_nnir::models::{classic_benchmarks, mimic_decoder, targeted_decoder};
use fcad_nnir::Precision;
use fcad_profiler::{NetworkProfile, Table};

/// DSE hyper-parameters used by the harness. The paper uses `P = 200`,
/// `N = 20`; the harness defaults to a lighter setting that converges to the
/// same designs on these workloads while keeping `reproduce` quick. Pass
/// `full = true` to use the paper's setting.
pub fn dse_params(full: bool) -> DseParams {
    if full {
        DseParams::paper()
    } else {
        DseParams {
            population: 48,
            iterations: 12,
            ..DseParams::paper()
        }
    }
}

/// Table I: the decoder's per-branch structure, GOP and parameter counts.
pub fn table1() -> String {
    let profile = NetworkProfile::of(&targeted_decoder());
    let mut text = profile.table();
    text.push_str(&format!(
        "paper reference: Br.1 1.9 GOP / 1.1M, Br.2 11.3 GOP / 6.1M, Br.3 4.9 GOP / 1.9M, \
         total 13.6 GOP / 7.2M\nlargest intermediate feature map: {} elements (paper: 16x1024x1024)\n",
        profile.max_intermediate_elements()
    ));
    text
}

/// One row of the Table II reproduction.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Scheme label ("865 SoC", "DNNBuilder scheme 1", ...).
    pub scheme: String,
    /// Baseline evaluation.
    pub result: BaselineResult,
}

/// Table II: the mobile SoC, DNNBuilder (schemes 1–3) and HybridDNN
/// (schemes 1–3) on the decoder / mimic decoder.
pub fn table2() -> (Vec<Table2Row>, String) {
    let mimic = mimic_decoder();
    let mut rows = Vec::new();
    rows.push(Table2Row {
        scheme: "Snapdragon-865-class SoC (8-bit)".into(),
        result: MobileSoc::snapdragon865().evaluate(&targeted_decoder(), Precision::Int8),
    });
    for (i, platform) in Platform::evaluation_schemes().into_iter().enumerate() {
        rows.push(Table2Row {
            scheme: format!("DNNBuilder scheme {} ({})", i + 1, platform.name()),
            result: DnnBuilder::new(platform, Precision::Int8).evaluate(&mimic),
        });
    }
    for (i, platform) in Platform::evaluation_schemes().into_iter().enumerate() {
        rows.push(Table2Row {
            scheme: format!("HybridDNN scheme {} ({})", i + 1, platform.name()),
            result: HybridDnn::new(platform).evaluate(&mimic),
        });
    }
    let mut table = Table::new(vec![
        "Scheme".into(),
        "DSP".into(),
        "BRAM".into(),
        "FPS".into(),
        "Efficiency".into(),
    ]);
    for row in &rows {
        table.add_row(vec![
            row.scheme.clone(),
            row.result.dsp.to_string(),
            row.result.bram.to_string(),
            format!("{:.1}", row.result.fps),
            format!("{:.1}%", row.result.efficiency * 100.0),
        ]);
    }
    let text = format!(
        "Table II — existing accelerators on the (mimic) decoder\n{}\
         paper reference: SoC 35.8 FPS / 16.9%; DNNBuilder 30.5 FPS with 81.6% -> 50.4% -> 28.8%; \
         HybridDNN 12.1 / 22.0 / 22.0 FPS with 77.5% / 70.4% / 70.4%\n",
        table.render()
    );
    (rows, text)
}

/// Fig. 3: latency of the last five branch-2 Conv layers under DNNBuilder
/// for the three FPGA schemes.
pub fn fig3() -> (Vec<(String, Vec<LayerLatency>)>, String) {
    let mimic = mimic_decoder();
    let mut series = Vec::new();
    for (i, platform) in Platform::evaluation_schemes().into_iter().enumerate() {
        let builder = DnnBuilder::new(platform.clone(), Precision::Int8);
        series.push((
            format!("scheme {} ({})", i + 1, platform.name()),
            builder.branch_tail_latencies(&mimic, "texture", 5),
        ));
    }
    let mut table = Table::new(
        std::iter::once("Layer".to_owned())
            .chain(series.iter().map(|(name, _)| format!("{name} [ms]")))
            .collect(),
    );
    if let Some((_, first)) = series.first() {
        for (idx, layer) in first.iter().enumerate() {
            let mut row = vec![layer.name.clone()];
            for (_, latencies) in &series {
                let cycles = latencies[idx].cycles as f64;
                let capped = if latencies[idx].at_parallelism_cap {
                    "*"
                } else {
                    ""
                };
                row.push(format!("{:.2}{}", cycles / 200e6 * 1e3, capped));
            }
            table.add_row(row);
        }
    }
    let text = format!(
        "Fig. 3 — DNNBuilder latency of the last five Br.2 Conv layers (* = stuck at the \
         InCh x OutCh parallelism cap)\n{}\
         paper reference: the circled few-channel layers stop scaling across schemes, pinning FPS\n",
        table.render()
    );
    (series, text)
}

/// One estimation-accuracy sample (Fig. 6 / Fig. 7).
#[derive(Debug, Clone)]
pub struct EstimationSample {
    /// Benchmark network name.
    pub network: String,
    /// Precision of the run.
    pub precision: Precision,
    /// The network's one branch, estimated and simulated ("measured").
    pub validation: BranchValidation,
}

/// Runs the Fig. 6/7 estimation-accuracy study: the eight benchmarks
/// (AlexNet, ZFNet, VGG16, Tiny-YOLO at 16-bit and 8-bit) on a KU115-class
/// budget, analytical model vs. cycle-level simulation.
pub fn estimation_study(full: bool) -> Vec<EstimationSample> {
    let platform = Platform::ku115();
    let mut samples = Vec::new();
    for precision in [Precision::Int16, Precision::Int8] {
        for network in classic_benchmarks() {
            let name = network.name().to_owned();
            let result = Fcad::new(network, platform.clone())
                .with_customization(Customization::uniform(1, precision))
                .with_dse_params(dse_params(full))
                .run()
                .expect("classic benchmark flow succeeds");
            let mut report = ValidationReport::compare(
                &result.accelerator,
                &result.dse.best_config,
                platform.budget().bandwidth_bytes_per_sec,
            )
            .expect("configuration matches the accelerator");
            samples.push(EstimationSample {
                network: name,
                precision,
                validation: report.branches.swap_remove(0),
            });
        }
    }
    samples
}

/// Renders one estimation figure: per sample, the estimated and the
/// simulated value under `headers` and their relative error, all three
/// read by `row`, then the error summary against the paper's `reference`.
fn estimation_table(
    samples: &[EstimationSample],
    headers: [&str; 2],
    row: fn(&EstimationSample) -> ([String; 2], f64),
    reference: &str,
) -> String {
    let [estimated, simulated] = headers;
    let mut table = Table::new(vec![
        "Benchmark".into(),
        "Precision".into(),
        estimated.into(),
        simulated.into(),
        "Error".into(),
    ]);
    let mut errors = Vec::new();
    for s in samples {
        let ([estimated, simulated], error) = row(s);
        errors.push(error);
        table.add_row(vec![
            s.network.clone(),
            s.precision.to_string(),
            estimated,
            simulated,
            format!("{:.2}%", error * 100.0),
        ]);
    }
    let max = errors.iter().copied().fold(0.0, f64::max);
    let avg = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    format!(
        "{}\nmax error {:.2}%  average error {:.2}%   (paper reference: {reference})\n",
        table.render(),
        max * 100.0,
        avg * 100.0
    )
}

/// Fig. 6: FPS estimation error of the analytical model on the eight
/// benchmarks.
pub fn fig6(samples: &[EstimationSample]) -> String {
    format!(
        "Fig. 6 — FPS estimation error (analytical vs. cycle-level simulation)\n{}",
        estimation_table(
            samples,
            ["Estimated FPS", "Measured (sim) FPS"],
            |s| {
                let v = &s.validation;
                let fps = [v.estimated_fps, v.simulated_fps].map(|fps| format!("{fps:.1}"));
                (fps, v.fps_error())
            },
            "max 2.89%, average 2.02%",
        )
    )
}

/// Fig. 7: efficiency estimation error on the eight benchmarks.
pub fn fig7(samples: &[EstimationSample]) -> String {
    format!(
        "Fig. 7 — efficiency estimation error (analytical vs. cycle-level simulation)\n{}",
        estimation_table(
            samples,
            ["Estimated efficiency", "Measured (sim) efficiency"],
            |s| {
                let v = &s.validation;
                let efficiency = [v.estimated_efficiency, v.simulated_efficiency]
                    .map(|e| format!("{:.2}%", e * 100.0));
                (efficiency, v.efficiency_error())
            },
            "max 3.96%, average 1.91%",
        )
    )
}

/// The five Table IV cases: platform, precision and label.
pub fn table4_cases() -> Vec<(String, Platform, Precision)> {
    vec![
        (
            "Case 1: Z7045 (8-bit)".into(),
            Platform::z7045(),
            Precision::Int8,
        ),
        (
            "Case 2: ZU17EG (8-bit)".into(),
            Platform::zu17eg(),
            Precision::Int8,
        ),
        (
            "Case 3: ZU17EG (16-bit)".into(),
            Platform::zu17eg(),
            Precision::Int16,
        ),
        (
            "Case 4: ZU9CG (8-bit)".into(),
            Platform::zu9cg(),
            Precision::Int8,
        ),
        (
            "Case 5: ZU9CG (16-bit)".into(),
            Platform::zu9cg(),
            Precision::Int16,
        ),
    ]
}

/// Runs one Table IV case: the full F-CAD flow on the targeted decoder with
/// the codec-avatar customization (batch sizes {1, 2, 2}).
pub fn run_case(platform: &Platform, precision: Precision, full: bool) -> FcadResult {
    Fcad::new(targeted_decoder(), platform.clone())
        .with_customization(Customization::codec_avatar(precision))
        .with_dse_params(dse_params(full))
        .run()
        .expect("decoder flow succeeds on all paper platforms")
}

/// Table IV: the five F-CAD-generated accelerators.
pub fn table4(full: bool) -> String {
    let mut text =
        String::from("Table IV — F-CAD generated accelerators for codec avatar decoding\n");
    for (name, platform, precision) in table4_cases() {
        let result = run_case(&platform, precision, full);
        text.push_str(&fcad::render_case_table(
            &format!(
                "{name} — budget {} DSPs, {} BRAMs",
                platform.budget().dsp,
                platform.budget().bram
            ),
            &result,
        ));
        text.push('\n');
    }
    text.push_str(
        "paper reference: up to 122.1 FPS (Case 4) and 96.7% branch efficiency (Case 5); \
         Br.2 receives the bulk of the DSPs in every case\n",
    );
    text
}

/// Table V: DNNBuilder, HybridDNN and F-CAD (8- and 16-bit) on the same
/// ZU9CG budget with uniform batch size 1.
pub fn table5(full: bool) -> String {
    let platform = Platform::zu9cg();
    let mimic = mimic_decoder();
    let dnnbuilder = DnnBuilder::new(platform.clone(), Precision::Int8).evaluate(&mimic);
    let hybrid = HybridDnn::new(platform.clone()).evaluate(&mimic);
    let mut table = Table::new(vec![
        "Design".into(),
        "Precision".into(),
        "DSP".into(),
        "BRAM".into(),
        "FPS".into(),
        "Efficiency".into(),
    ]);
    for (name, r) in [("DNNBuilder", &dnnbuilder), ("HybridDNN", &hybrid)] {
        table.add_row(vec![
            name.into(),
            r.name
                .split('(')
                .nth(1)
                .unwrap_or("")
                .trim_end_matches(')')
                .into(),
            r.dsp.to_string(),
            r.bram.to_string(),
            format!("{:.1}", r.fps),
            format!("{:.1}%", r.efficiency * 100.0),
        ]);
    }
    let mut speedups = String::new();
    for precision in [Precision::Int8, Precision::Int16] {
        let result = Fcad::new(targeted_decoder(), platform.clone())
            .with_customization(Customization::uniform(3, precision))
            .with_dse_params(dse_params(full))
            .run()
            .expect("decoder flow succeeds");
        table.add_row(vec![
            "F-CAD (this work)".into(),
            precision.to_string(),
            result.report().total_usage.dsp.to_string(),
            result.report().total_usage.bram.to_string(),
            format!("{:.1}", result.min_fps()),
            format!("{:.1}%", result.efficiency() * 100.0),
        ]);
        let reference = match precision {
            Precision::Int8 => dnnbuilder.fps,
            _ => hybrid.fps,
        };
        speedups.push_str(&format!(
            "F-CAD {} throughput is {:.1}x the {} baseline\n",
            precision,
            result.min_fps() / reference,
            if precision == Precision::Int8 {
                "DNNBuilder"
            } else {
                "HybridDNN"
            },
        ));
    }
    format!(
        "Table V — comparison on the same ZU9CG FPGA (batch 1)\n{}{}\
         paper reference: F-CAD 122.1 FPS / 91.3% (8-bit) and 61.0 FPS / 91.6% (16-bit): \
         4.0x DNNBuilder and 2.8x HybridDNN\n",
        table.render(),
        speedups
    )
}

/// DSE convergence study: independent searches per Table IV case.
pub fn convergence(runs: usize, full: bool) -> String {
    let mut table = Table::new(vec![
        "Case".into(),
        "Runs".into(),
        "Mean iter.".into(),
        "Min iter.".into(),
        "Max iter.".into(),
        "Mean seconds".into(),
        "At cap".into(),
    ]);
    for (name, platform, precision) in table4_cases() {
        let mut results = Vec::new();
        for seed in 0..runs {
            // The convergence study is the one flow that *reports* wall
            // time ("Mean seconds"), so it opts into the wall-clock timer;
            // every other flow keeps the deterministic default (0.0 s).
            let result = Fcad::new(targeted_decoder(), platform.clone())
                .with_customization(Customization::codec_avatar(precision))
                .with_dse_params(dse_params(full).with_seed(1 + seed as u64 * 7919))
                .with_timer(fcad::ElapsedTimer::WallClock)
                .run()
                .expect("decoder flow succeeds");
            results.push(result.dse);
        }
        table.add_row(convergence_row(name, &results));
    }
    format!(
        "DSE convergence — independent searches per case\n{}\
         paper reference: all searches converge in minutes; average 9.2 iterations (min 6.8, max 13.6); \
         a run at cap last improved at its final iteration, so its convergence iteration is only a \
         lower bound\n",
        table.render()
    )
}

/// One row of the convergence study: the case's statistics over
/// `results`, then how many runs are at the iteration cap — their global
/// best last improved at the final iteration, so the search was still
/// improving when it stopped.
fn convergence_row(name: String, results: &[DseResult]) -> Vec<String> {
    let stats = ConvergenceStats::of(results).expect("at least one run");
    let at_cap = results
        .iter()
        .filter(|r| r.convergence_iteration == r.iterations_run)
        .count();
    vec![
        name,
        stats.runs.to_string(),
        format!("{:.1}", stats.mean_iterations),
        format!("{:.1}", stats.min_iterations),
        format!("{:.1}", stats.max_iterations),
        format!("{:.2}", stats.mean_seconds),
        format!("{at_cap} of {}", stats.runs),
    ]
}

/// Machine-readable run summary of an already-optimized F-CAD case plus
/// the four-scenario serving suite, rendered as a single JSON line — the
/// machine-readable-output idiom of the WIND bench harness (`reproduce`
/// prints this as its final line, for the ZU17EG 8-bit case).
pub fn summary_of(result: &FcadResult, platform: &Platform) -> String {
    use fcad_serve::json::{array, JsonObject};
    use fcad_serve::{Off, Scenario, ServeSpec};

    let report = result.report();
    let config = result.fleet_config(1);
    let scenarios: Vec<String> = Scenario::suite()
        .iter()
        .map(|scenario| {
            let serve = fcad_serve::serve(&config, scenario, &ServeSpec::default(), &mut Off);
            JsonObject::new()
                .str("scenario", &serve.scenario)
                .str("scheduler", &serve.scheduler)
                .u64("issued", serve.issued)
                .f64("throughput_rps", serve.throughput_rps)
                .f64("drop_rate", serve.drop_rate)
                .f64("p50_ms", serve.latency.p50_ms)
                .f64("p99_ms", serve.latency.p99_ms)
                .render()
        })
        .collect();
    JsonObject::new()
        .str("experiment", "fcad_repro_summary")
        .str("platform", platform.name())
        .f64("min_fps", report.min_fps)
        .f64("efficiency", report.overall_efficiency)
        .u64("dsp", report.total_usage.dsp as u64)
        .u64("bram", report.total_usage.bram as u64)
        .u64(
            "dse_convergence_iteration",
            result.dse.convergence_iteration as u64,
        )
        .raw("serve", &array(&scenarios))
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_text_contains_branches_and_totals() {
        let text = table1();
        assert!(text.contains("texture"));
        assert!(text.contains("total"));
    }

    #[test]
    fn table2_has_seven_rows() {
        let (rows, text) = table2();
        assert_eq!(rows.len(), 7);
        assert!(text.contains("DNNBuilder scheme 3"));
    }

    #[test]
    fn fig3_has_three_series_of_five_layers() {
        let (series, text) = fig3();
        assert_eq!(series.len(), 3);
        for (_, layers) in &series {
            assert_eq!(layers.len(), 5);
        }
        assert!(text.contains("Fig. 3"));
    }

    #[test]
    fn fig7_shows_efficiencies_not_fps() {
        let sample = EstimationSample {
            network: "net".into(),
            precision: Precision::Int8,
            validation: BranchValidation {
                name: "net".into(),
                estimated_fps: 123.4,
                simulated_fps: 61.7,
                estimated_efficiency: 0.875,
                simulated_efficiency: 0.7,
            },
        };
        let text = fig7(&[sample]);
        assert!(text.contains("Estimated efficiency"), "{text}");
        assert!(text.contains("87.50%") && text.contains("70.00%"), "{text}");
        // The efficiency error, not the 100% FPS error.
        assert!(
            text.contains("25.00%") && !text.contains("100.00%"),
            "{text}"
        );
        assert!(!text.contains("FPS") && !text.contains("123.4"), "{text}");
        assert!(!text.contains("61.7"), "{text}");
    }

    #[test]
    fn convergence_rows_count_the_runs_censored_at_the_cap() {
        let run = |convergence_iteration, iterations_run| DseResult {
            best_config: fcad_accel::AcceleratorConfig::new(vec![], Precision::Int8),
            best_report: fcad_accel::AcceleratorReport {
                branches: vec![],
                total_usage: fcad_accel::ResourceUsage::default(),
                min_fps: 100.0,
                overall_efficiency: 0.9,
            },
            best_fitness: 1.0,
            iterations_run,
            convergence_iteration,
            elapsed_seconds: 0.5,
            fitness_history: vec![1.0; iterations_run],
        };
        // Two runs improved at their last iteration (12 of 12, 20 of 20);
        // the others stopped improving earlier.
        let results = [run(12, 12), run(7, 12), run(20, 20), run(19, 20)];
        let row = convergence_row("Case".into(), &results);
        assert_eq!(row.len(), 7);
        assert_eq!(row[1], "4");
        assert_eq!(row[2], "14.5");
        assert_eq!(row[6], "2 of 4");
        assert_eq!(convergence_row("Case".into(), &results[1..2])[6], "0 of 1");
    }

    #[test]
    fn table4_cases_cover_the_three_fpgas() {
        let cases = table4_cases();
        assert_eq!(cases.len(), 5);
        assert_eq!(cases[0].1.name(), "Z7045");
        assert_eq!(cases[4].2, Precision::Int16);
    }
}
