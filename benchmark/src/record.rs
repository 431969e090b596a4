//! Result records: every number leaves the harness with the host, the
//! toolchain and the commit it was measured on, and with its spread.

use std::process::Command;

use crate::stats::Summary;

/// Where and on what a record was measured.
#[derive(Debug, Clone)]
pub struct Host {
    pub hostname: String,
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    /// Reads the host stamp (spawns `rustc -V` and `git rev-parse`, and
    /// waits for both).
    pub fn read() -> Host {
        Host {
            hostname: std::fs::read_to_string("/proc/sys/kernel/hostname")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: command_line("rustc", &["-V"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number: shortest text that reads back as the same `f64`.
/// JSON has no NaN or infinity; a run that produced one has already
/// booked it as a failure, and the line must still parse.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Which runs a record summarises.
pub struct Runs<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub traced: bool,
    /// The last run's own `samples <n> tail_pct <p>` line: how many
    /// latency samples stand behind `latency_mid_ms` (untraced) or behind
    /// `bench.latency_p50_ms` and `bench.latency_tail_ms`, and which
    /// percentile that tail is (traced).
    pub within_run: &'a str,
}

/// One metric over the repetitions of `runs`, as a JSON line.
pub fn record_json(host: &Host, runs: &Runs, metric: &str, unit: &str, s: &Summary) -> String {
    let quartiles = s.quartiles.map_or("null".to_string(), |(a, b, c)| {
        format!("[{}, {}, {}]", num(a), num(b), num(c))
    });
    format!(
        "{{\"host\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"pass\": \"{}\", \"metric\": \"{metric}\", \"unit\": \"{unit}\", \"within_run\": \"{}\", \"reps\": {}, \"min\": {}, \"median\": {}, \"max\": {}, \"quartiles\": {quartiles}}}",
        host.hostname,
        host.nproc,
        host.rustc,
        host.commit,
        runs.workload,
        runs.seed,
        if runs.traced { "traced" } else { "untraced" },
        runs.within_run,
        s.n,
        num(s.min),
        num(s.median),
        num(s.max),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(num(1.2034), "1.2034");
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(f64::NAN), "0.0");
    }

    #[test]
    fn peak_rss_is_readable_here() {
        assert!(peak_rss_mib() > 0.0);
    }
}
