//! Resource sampling from `/proc`: CPU time of this process (all threads,
//! exited ones included) from `/proc/self/stat`, peak resident set
//! (`VmHWM`) from `/proc/self/status`, and the core count.

use std::fs;
use std::sync::OnceLock;

/// Clock ticks per second of the `utime` / `stime` fields. Linux reports
/// them in `USER_HZ`, which is 100 on every architecture it exposes to
/// user space.
pub const TICKS_PER_SEC: f64 = 100.0;

/// One reading of the process's resources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// User-mode CPU seconds since process start.
    pub user_s: f64,
    /// Kernel-mode CPU seconds since process start.
    pub sys_s: f64,
    /// Peak resident set size so far, MiB.
    pub vm_hwm_mb: f64,
}

impl Sample {
    /// Reads `/proc/self/stat` and `/proc/self/status`.
    ///
    /// # Panics
    ///
    /// When either file is missing or malformed: the benchmark's CPU and
    /// memory figures would be meaningless, so it stops.
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
        let status =
            fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
        let (utime, stime) = parse_stat_ticks(&stat).expect("/proc/self/stat has utime/stime");
        let hwm_kb = parse_status_kb(&status, "VmHWM").expect("/proc/self/status has VmHWM");
        Self {
            user_s: utime as f64 / TICKS_PER_SEC,
            sys_s: stime as f64 / TICKS_PER_SEC,
            vm_hwm_mb: hwm_kb as f64 / 1024.0,
        }
    }

    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) is parenthesised and may itself contain
/// spaces or parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<(u64, u64)> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // After the command name come field 3 (state) onward; utime and stime
    // are fields 14 and 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The value in kB of a `Key:   1234 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Cores this process may run on, as of the first call. The timed loop
/// later confines the process to one CPU for its single-core control;
/// `nproc` still names the cores it started with.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perf bench) (x)) R 1 4242 4242 0 -1 4194304 2119 0 0 0 \
                        731 29 0 0 20 0 3 0 123456 300000000 70000 18446744073709551615";

    #[test]
    fn stat_ticks_skip_a_command_name_with_spaces_and_parens() {
        assert_eq!(parse_stat_ticks(STAT), Some((731, 29)));
        assert_eq!(parse_stat_ticks("1 (init) S 0"), None);
        assert_eq!(parse_stat_ticks("no parens at all"), None);
    }

    #[test]
    fn status_lookup_finds_the_exact_key() {
        let status = "Name:\tperfbench\nVmHWMx:\t1 kB\nVmHWM:\t  295012 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(295_012));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kb(status, "VmPeak"), None);
    }

    #[test]
    fn live_sample_is_sane() {
        let sample = Sample::now();
        assert!(sample.vm_hwm_mb > 0.0);
        assert!(sample.cpu_s() >= 0.0);
        assert!(nproc() >= 1);
    }
}
