//! Shared helpers for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `EXPERIMENTS.md` at the repository root for the index), and
//! prints the series as plain text tables so the output can be diffed,
//! plotted, or pasted next to the original.

use std::path::PathBuf;

use simcore::Histogram;
use trace::Tracer;

pub mod files;
pub use trace::json;

/// Tracing options shared by the figure binaries.
///
/// `--trace <path>` writes the run's virtual-time trace as JSONL (one
/// event per line, stable field order — byte-identical across same-seed
/// runs); `--trace-chrome <path>` writes the Chrome `trace_event` form,
/// loadable in Perfetto or `about:tracing`.
#[derive(Debug, Default)]
pub struct TraceOpts {
    /// Destination for the JSONL export, if requested.
    pub jsonl: Option<PathBuf>,
    /// Destination for the Chrome trace_event export, if requested.
    pub chrome: Option<PathBuf>,
}

impl TraceOpts {
    /// Parses `--trace <path>` / `--trace-chrome <path>` out of the
    /// process arguments (other flags are left for the binary to handle).
    pub fn from_args() -> TraceOpts {
        let mut opts = TraceOpts::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--trace" => {
                    let p = args.next().unwrap_or_else(|| {
                        eprintln!("--trace requires a path argument");
                        std::process::exit(2);
                    });
                    opts.jsonl = Some(PathBuf::from(p));
                }
                "--trace-chrome" => {
                    let p = args.next().unwrap_or_else(|| {
                        eprintln!("--trace-chrome requires a path argument");
                        std::process::exit(2);
                    });
                    opts.chrome = Some(PathBuf::from(p));
                }
                _ => {}
            }
        }
        opts
    }

    /// An enabled tracer when any trace output was requested, else the
    /// no-op handle — so untraced runs pay nothing.
    pub fn tracer(&self) -> Tracer {
        if self.jsonl.is_some() || self.chrome.is_some() {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        }
    }

    /// Writes the requested exports and reports where they went.
    pub fn finish(&self, tracer: &Tracer) {
        if let Some(path) = &self.jsonl {
            tracer.write_jsonl(path).unwrap_or_else(|e| {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            });
            eprintln!(
                "trace: {} events -> {}",
                tracer.event_count(),
                path.display()
            );
        }
        if let Some(path) = &self.chrome {
            tracer.write_chrome(path).unwrap_or_else(|e| {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            });
            eprintln!("chrome trace -> {}", path.display());
        }
    }
}

/// Parses the `--ticked` escape hatch shared by the campaign binaries:
/// present → the legacy fixed-interval sweep, absent → event-driven
/// next-event time advance (the default since the event-driven core
/// landed). Scheduled for removal once the ticked loop retires.
pub fn drive_mode_from_args() -> campaign::DriveMode {
    if std::env::args().skip(1).any(|a| a == "--ticked") {
        campaign::DriveMode::Ticked
    } else {
        campaign::DriveMode::EventDriven
    }
}

/// Applies the scheduler-policy flags shared by the campaign binaries:
/// `--policy <name>` selects the queue-ordering/backfill policy (see
/// [`sched::SchedPolicy::parse`] for names), `--workload <spec>` adds a
/// background job stream (a synthetic mix name or `trace:<path>`), and
/// `--legacy-sched` routes FCFS through the retained pre-split monolith
/// (the CI byte-identity oracle). Unknown names abort with the valid
/// set — a typo must not silently run the default policy.
pub fn apply_sched_args(cfg: &mut campaign::CampaignConfig) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(name) = args
        .iter()
        .position(|a| a == "--policy")
        .and_then(|i| args.get(i + 1))
    {
        cfg.sched_policy = sched::SchedPolicy::parse(name).unwrap_or_else(|| {
            let names: Vec<&str> = sched::SchedPolicy::ALL.iter().map(|p| p.name()).collect();
            panic!("unknown --policy {name:?}; expected one of {names:?}")
        });
    }
    if let Some(spec) = args
        .iter()
        .position(|a| a == "--workload")
        .and_then(|i| args.get(i + 1))
    {
        cfg.workload = Some(workload::WorkloadSpec::parse(spec).unwrap_or_else(|| {
            let names: Vec<String> = workload::WorkloadSpec::SYNTHETIC
                .iter()
                .map(|w| w.name())
                .collect();
            panic!("unknown --workload {spec:?}; expected trace:<path> or one of {names:?}")
        }));
    }
    cfg.legacy_sched = args.iter().any(|a| a == "--legacy-sched");
    if let Err(e) = cfg.validate() {
        panic!("invalid scheduler flags: {e}");
    }
}

/// Prints a two-column header followed by rows.
pub fn print_series(title: &str, xlabel: &str, ylabel: &str, rows: &[(f64, f64)]) {
    println!("## {title}");
    println!("{xlabel}\t{ylabel}");
    for (x, y) in rows {
        println!("{x:.6}\t{y:.6}");
    }
    println!();
}

/// Prints a histogram as `(bin_center, count)` rows plus an ASCII sketch.
pub fn print_histogram(title: &str, xlabel: &str, h: &Histogram) {
    println!("## {title}");
    println!("{xlabel}\tcount");
    for (x, c) in h.rows() {
        println!("{x:.4}\t{c}");
    }
    println!("{}", h.ascii(48));
}

/// Formats a big integer with thousands separators.
pub fn group_digits(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_grouping() {
        assert_eq!(group_digits(1), "1");
        assert_eq!(group_digits(1034), "1,034");
        assert_eq!(group_digits(1_034_232_900), "1,034,232,900");
    }
}
