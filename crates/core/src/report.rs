//! Table-IV-style rendering of flow results.

use crate::flow::FcadResult;
use fcad_profiler::Table;

/// Renders one F-CAD result as a Table-IV-style case block: per-branch DSP /
/// BRAM usage, FPS and efficiency, followed by totals and the DSE's
/// convergence iteration. The DSE's seconds follow only when the flow ran
/// with [`ElapsedTimer::WallClock`](crate::ElapsedTimer::WallClock); the
/// default timer reports no time at all.
pub fn render_case_table(case_name: &str, result: &FcadResult) -> String {
    let mut table = Table::new(vec![
        "Br.".to_owned(),
        "DSP".to_owned(),
        "BRAM".to_owned(),
        "FPS".to_owned(),
        "Efficiency".to_owned(),
    ]);
    for (i, branch) in result.report().branches.iter().enumerate() {
        table.add_row(vec![
            format!("{} ({})", i + 1, branch.name),
            format!("{}", branch.usage.dsp),
            format!("{}", branch.usage.bram),
            format!("{:.1}", branch.fps),
            format!("{:.1}%", branch.efficiency * 100.0),
        ]);
    }
    let usage = &result.report().total_usage;
    table.add_row(vec![
        "total".to_owned(),
        format!("{}", usage.dsp),
        format!("{}", usage.bram),
        format!("{:.1}", result.min_fps()),
        format!("{:.1}%", result.efficiency() * 100.0),
    ]);
    let seconds = if result.dse.elapsed_seconds > 0.0 {
        format!(", {:.2} s", result.dse.elapsed_seconds)
    } else {
        String::new()
    };
    format!(
        "{case_name}\n{}DSE: converged at iteration {} of {}{seconds}\n",
        table.render(),
        result.dse.convergence_iteration,
        result.dse.iterations_run,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Customization, DseParams, ElapsedTimer, Fcad};
    use fcad_accel::Platform;
    use fcad_nnir::models::targeted_decoder;
    use fcad_nnir::Precision;

    fn z7045_case(timer: ElapsedTimer) -> FcadResult {
        Fcad::new(targeted_decoder(), Platform::z7045())
            .with_customization(Customization::codec_avatar(Precision::Int8))
            .with_dse_params(DseParams::fast())
            .with_timer(timer)
            .run()
            .unwrap()
    }

    #[test]
    fn case_table_lists_branches_totals_and_dse_time() {
        let text = render_case_table("Case 1: Z7045 (8-bit)", &z7045_case(ElapsedTimer::Off));
        assert!(text.contains("Case 1"));
        assert!(text.contains("texture"));
        assert!(text.contains("total"));
        assert!(text.contains("DSE: converged"));
        assert!(text.contains('%'));
    }

    #[test]
    fn dse_seconds_print_only_when_the_timer_ran() {
        let dse_line = |timer| {
            let text = render_case_table("Case 1", &z7045_case(timer));
            let line = text.lines().last().expect("a DSE line").to_owned();
            assert!(line.starts_with("DSE: converged at iteration "), "{line}");
            line
        };
        let off = dse_line(ElapsedTimer::Off);
        assert!(!off.contains(','), "no seconds with the timer off: {off}");
        let wall = dse_line(ElapsedTimer::WallClock);
        assert!(wall.ends_with(" s"), "wall-clock seconds shown: {wall}");
    }
}
