//! Shared helpers for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `EXPERIMENTS.md` at the repository root for the index), and
//! prints the series as plain text tables so the output can be diffed,
//! plotted, or pasted next to the original.

use std::path::PathBuf;

use simcore::Histogram;
use trace::Tracer;

/// The command line of a campaign binary, checked against the flags that
/// binary accepts. These binaries' outputs get `cmp`ed and pasted into
/// tables, so an argument that is not understood must stop the run: a
/// retired or mistyped flag that silently ran the default would make
/// every comparison against it pass vacuously.
#[derive(Debug)]
pub struct Flags {
    given: Vec<(String, Option<String>)>,
    usage: String,
}

impl Flags {
    /// Checks `args` (the process arguments after the program name)
    /// against `switches` (bare flags) and `valued` (flags followed by
    /// one value). `Err` — the complaint plus the accepted set — on any
    /// other argument, or a valued flag at the end of the line.
    pub fn parse(args: &[String], switches: &[&str], valued: &[&str]) -> Result<Flags, String> {
        let usage = format!("accepted: switches {switches:?}, flags taking a value {valued:?}");
        let mut given = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let value = if switches.contains(&a.as_str()) {
                None
            } else if valued.contains(&a.as_str()) {
                match it.next() {
                    Some(v) => Some(v.clone()),
                    None => return Err(format!("{a} requires a value; {usage}")),
                }
            } else {
                return Err(format!("unknown argument {a:?}; {usage}"));
            };
            given.push((a.clone(), value));
        }
        Ok(Flags { given, usage })
    }

    /// [`Flags::parse`] over the process arguments; a rejected command
    /// line prints the complaint and exits 2.
    pub fn from_env(switches: &[&str], valued: &[&str]) -> Flags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        or_exit(Flags::parse(&args, switches, valued))
    }

    /// Whether the bare flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// The value given for `name` (the last one, if repeated).
    pub fn value(&self, name: &str) -> Option<&str> {
        let (_, v) = self.given.iter().rev().find(|(n, _)| n == name)?;
        v.as_deref()
    }

    /// The value given for `name`, run through `parse`; `Err` — naming
    /// the flag, the value and `expected` — when `parse` rejects it.
    pub fn parsed<T>(
        &self,
        name: &str,
        expected: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some(v) = self.value(name) else {
            return Ok(None);
        };
        let bad = || format!("{name} {v:?}: expected {expected}; {}", self.usage);
        parse(v).map(Some).ok_or_else(bad)
    }
}

/// Unwraps a command-line check, or prints the complaint and exits 2.
pub fn or_exit<T>(checked: Result<T, String>) -> T {
    checked.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

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
    /// The valued flags [`TraceOpts::from_flags`] reads.
    pub const FLAGS: [&'static str; 2] = ["--trace", "--trace-chrome"];

    /// Reads `--trace <path>` / `--trace-chrome <path>`.
    pub fn from_flags(flags: &Flags) -> TraceOpts {
        TraceOpts {
            jsonl: flags.value("--trace").map(PathBuf::from),
            chrome: flags.value("--trace-chrome").map(PathBuf::from),
        }
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

/// Applies the scheduler-policy flags shared by the campaign binaries:
/// `--policy <name>` selects the queue-ordering/backfill policy (see
/// [`sched::SchedPolicy::parse`] for names) and `--workload <spec>` adds
/// a background job stream (a synthetic mix name or `trace:<path>`).
/// Unknown names are an `Err` naming the valid set — a typo must not
/// silently run the default policy.
pub fn apply_sched_args(cfg: &mut campaign::CampaignConfig, flags: &Flags) -> Result<(), String> {
    let policies: Vec<&str> = sched::SchedPolicy::ALL.iter().map(|p| p.name()).collect();
    if let Some(p) = flags.parsed(
        "--policy",
        &format!("one of {policies:?}"),
        sched::SchedPolicy::parse,
    )? {
        cfg.sched_policy = p;
    }
    let mixes: Vec<String> = workload::WorkloadSpec::SYNTHETIC
        .iter()
        .map(|w| w.name())
        .collect();
    if let Some(w) = flags.parsed(
        "--workload",
        &format!("trace:<path> or one of {mixes:?}"),
        workload::WorkloadSpec::parse,
    )? {
        cfg.workload = Some(w);
    }
    Ok(())
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

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    const SWITCHES: [&str; 2] = ["--full", "--smoke"];
    const VALUED: [&str; 3] = ["--chaos", "--policy", "--workload"];

    #[test]
    fn accepted_flags_parse() {
        let f = Flags::parse(&args("--smoke --chaos 7"), &SWITCHES, &VALUED).expect("accepted");
        assert!(f.has("--smoke") && !f.has("--full"));
        let seed = f.parsed("--chaos", "a u64 seed", |s| s.parse::<u64>().ok());
        assert_eq!(seed, Ok(Some(7)));
        assert_eq!(f.value("--policy"), None, "not given");
        assert!(Flags::parse(&[], &[], &[]).is_ok(), "no arguments is fine");
    }

    #[test]
    fn retired_and_unknown_arguments_are_rejected_with_the_accepted_set() {
        for line in ["--smoke --serial", "--retired", "--smok", "stray"] {
            let e = Flags::parse(&args(line), &SWITCHES, &VALUED).expect_err(line);
            assert!(e.contains("unknown argument"), "{line}: {e}");
            for name in SWITCHES.iter().chain(&VALUED) {
                assert!(e.contains(name), "{line}: {e} does not list {name}");
            }
        }
        assert!(Flags::parse(&args("--smoke"), &[], &[]).is_err());
    }

    #[test]
    fn missing_and_unparsable_values_are_rejected() {
        let e = Flags::parse(&args("--smoke --policy"), &SWITCHES, &VALUED)
            .expect_err("--policy as the last argument");
        assert!(e.contains("--policy requires a value"), "{e}");

        let f = Flags::parse(&args("--chaos x --policy fifo"), &SWITCHES, &VALUED).expect("shape");
        let e = f
            .parsed("--chaos", "a u64 seed", |s| s.parse::<u64>().ok())
            .expect_err("x is not a seed");
        assert!(
            e.contains("--chaos \"x\": expected a u64 seed; accepted:"),
            "{e}"
        );
        let e = apply_sched_args(&mut campaign::CampaignConfig::default(), &f)
            .expect_err("fifo is not a policy");
        assert!(e.contains("fcfs") && e.contains("backfill-easy"), "{e}");
    }

    #[test]
    fn digit_grouping() {
        assert_eq!(group_digits(1), "1");
        assert_eq!(group_digits(1034), "1,034");
        assert_eq!(group_digits(1_034_232_900), "1,034,232,900");
    }
}
