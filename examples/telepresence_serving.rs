//! Telepresence serving: put a DSE-optimized codec-avatar accelerator under
//! multi-session decode traffic and report tail latencies.
//!
//! Runs the four-scenario suite (`a1` baseline single session, `a2` fan-out
//! over five sessions, `b1` Poisson burst, `b2` mixed-priority chaos) with
//! the batch-aggregating scheduler, printing one machine-readable JSON
//! `ServeReport` line per scenario, then replays the `b2` chaos scenario
//! under FIFO and priority-by-branch scheduling to show where branch
//! priorities pay off.
//!
//! Run with: `cargo run --example telepresence_serving`

use fcad::{serve, Customization, DseParams, Fcad, Off, Scenario, SchedulerKind, ServeSpec};
use fcad_accel::Platform;
use fcad_nnir::models::targeted_decoder;
use fcad_nnir::Precision;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Optimize the decoder for the ZU17EG (Table IV, Case 2) — the serving
    // simulation consumes this design's per-branch frame times.
    let result = Fcad::new(targeted_decoder(), Platform::zu17eg())
        .with_customization(Customization::codec_avatar(Precision::Int8))
        .with_dse_params(DseParams::fast())
        .run()?;
    println!(
        "design: {:.1} FPS min-branch, {:.1}% efficiency — serving scenario suite:",
        result.min_fps(),
        result.efficiency() * 100.0
    );

    // One shard of this design, every policy axis at its default.
    let device = result.fleet_config(1);
    for scenario in Scenario::suite() {
        let report = serve(&device, &scenario, &ServeSpec::default(), &mut Off);
        assert!(report.conserves_requests());
        println!("{}", report.to_json_line());
    }

    // Scheduler head-to-head on the mixed-priority chaos scenario: the
    // priority discipline protects the high-priority visual branches at the
    // cost of the low-priority (audio-like) stream.
    let chaos = Scenario::b2();
    println!("\nscheduler head-to-head on {}:", chaos.name);
    let under = |scheduler| {
        let spec = ServeSpec {
            scheduler,
            ..ServeSpec::default()
        };
        serve(&device, &chaos, &spec, &mut Off)
    };
    let fifo = under(SchedulerKind::Fifo);
    let priority = under(SchedulerKind::PriorityByBranch);
    println!("{}", fifo.to_json_line());
    println!("{}", priority.to_json_line());
    println!(
        "high-priority p99: fifo {:.1} ms vs priority {:.1} ms ({})",
        fifo.branches[0].latency.p99_ms,
        priority.branches[0].latency.p99_ms,
        if priority.branches[0].latency.p99_ms < fifo.branches[0].latency.p99_ms {
            "priority wins"
        } else {
            "no benefit under this load"
        }
    );
    Ok(())
}
