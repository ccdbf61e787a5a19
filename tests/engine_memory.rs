//! Bounded-memory serving: 4 M steady sessions (12 M requests) on a
//! 1,536-shard fleet must peak well below the 480 MB a materialized trace
//! alone would take, because the engine draws its arrivals as a stream.
//!
//! This file holds a single test, so the process's peak resident set
//! (`VmHWM` in `/proc/self/status`) is that test's own. Release-only, like
//! `engine_scale`, and Linux-only.
#![cfg(target_os = "linux")]

mod common;

use common::three_branch_model;
use fcad_serve::{serve, FleetConfig, Off, Scenario, ServeSpec};

/// Sessions, each issuing one frame over the window.
const SESSIONS: usize = 4_000_000;

const SHARDS: usize = 1_536;

/// The peak resident set the run must stay under. A trace built in memory
/// needs 12 M requests × 40 B = 480 MB before the engine starts.
const PEAK_RSS_CEILING_KB: u64 = 200 * 1024;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a 12 M-request release-only scale test (debug builds are ~10× slower)"
)]
fn four_million_sessions_serve_in_bounded_memory() {
    let scenario = Scenario {
        name: "metropolis_4m_60s".to_owned(),
        sessions: SESSIONS,
        frame_rate_hz: 1.0 / 60.0,
        duration_sec: 60.0,
        ..Scenario::metropolis()
    };
    let config = FleetConfig::uniform(three_branch_model(), SHARDS);
    let spec = ServeSpec {
        workers: 2,
        ..ServeSpec::default()
    };
    let start = std::time::Instant::now();
    let report = serve(&config, &scenario, &spec, &mut Off);
    let elapsed = start.elapsed();
    let peak_kb = peak_rss_kb();

    assert!(
        report.conserves_requests(),
        "the run must conserve requests"
    );
    // 4 M sessions × 1 frame × 3 branches.
    assert_eq!(report.issued, 12_000_000);
    println!(
        "{SESSIONS} sessions: {} issued / {} completed on {SHARDS} shards in {elapsed:?}, \
         peak RSS {} MB",
        report.issued,
        report.completed,
        peak_kb / 1024
    );
    assert!(
        peak_kb < PEAK_RSS_CEILING_KB,
        "peak RSS {peak_kb} kB is not below {PEAK_RSS_CEILING_KB} kB"
    );
}

/// The process's peak resident set size, kB (`VmHWM`).
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB")
}
