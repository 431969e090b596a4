//! `mummi-benchmark`: the repository's one benchmark.
//!
//! Six workloads over the batch replay path, the scheduler policy zoo,
//! the farm service and the durable store tier; three end-to-end metrics
//! every workload reports, measured with spans off; and a separate
//! traced pass that gives per-layer numbers from spans the harness
//! records around its own calls into each layer. See `README.md`.
//!
//! ```text
//! mummi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mummi-benchmark run (--all | --workload <name>) [--reps <n>] [--seed <n>] [--seconds <s>]
//! mummi-benchmark aa [--sets <n>] [--seed <n>] [--seconds <s>]
//! mummi-benchmark list
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`, and it exits with 1 when a check
//! failed. `run` and `aa` start one such process per run, so
//! `bench.peak_rss_mib` belongs to one workload.

mod catalog;
mod clock;
mod gen;
mod layers;
mod record;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use trace::Json;
use workloads::campaigns::Kind;
use workloads::{Ctx, Measured};

/// Whether another unit of work should start: only when at least half of
/// it (at the mean cost so far) still fits into the budget.
pub fn fits(t0: std::time::Instant, budget_s: f64, done: u64) -> bool {
    let elapsed = clock::secs_since(t0);
    elapsed + 0.5 * elapsed / done.max(1) as f64 <= budget_s
}

/// Repeats a workload's set-up, timing each repetition: at least three
/// times, and for cheap set-ups until a second and a half is spent
/// (sixty at most), so that the reported median is steady. The window
/// matters more than the count: a 20 ms set-up flips between an 18 ms
/// and a 25 ms mode with the host every few hundred milliseconds, and
/// over half a second its median spread by 22 % between runs, over a
/// second and a half by 4 %. Keeps the last build and hands every
/// earlier one to `discard` before the next is built.
pub fn repeat_set_up<T>(
    ctx: &Ctx,
    m: &mut Measured,
    mut build: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> T {
    let mut kept: Option<T> = None;
    let mut spent = 0.0;
    let at_least = if ctx.set_up_once { 1 } else { 3 };
    while m.setup_s.len() < at_least || (!ctx.set_up_once && m.setup_s.len() < 60 && spent < 1.5) {
        if let Some(prev) = kept.take() {
            discard(prev);
        }
        let (built, s) = clock::time(&mut build);
        spent += s;
        m.setup_s.push(s);
        kept = Some(built);
    }
    kept.expect("set-up ran at least once")
}

/// The outcome of one run, in the shape the last output line has.
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    /// `(name, value, unit)`, every metric of the pass; `None` for a
    /// layer this workload's path bypasses.
    metrics: Vec<(&'static str, Option<f64>, &'static str)>,
    /// Deterministic simulated statistics, for the A/A identity check.
    exact: Vec<(String, f64)>,
    /// How many latency samples stand behind `latency_mid_ms` (untraced)
    /// or `bench.latency_p50_ms`/`bench.latency_tail_ms` (traced), and
    /// which percentile that tail is (0 in the untraced pass, which
    /// reports none).
    samples: usize,
    tail_pct: u32,
}

fn untraced(workload: &str, ctx: &Ctx) -> Outcome {
    let off = &mut spans::Recorder::new(false, clock::now());
    let m = match workload {
        "summit_full" => workloads::campaigns::run(Kind::SummitFull, ctx, off).0,
        "table1_chain" => workloads::campaigns::run(Kind::Table1Chain, ctx, off).0,
        "sched_policy_churn" => workloads::sched_policy_churn::run(ctx, off).0,
        "farm_tenants" => workloads::farm_tenants::run(ctx, off).0,
        "store_durable_write" => workloads::store::run_durable(ctx, off).0,
        "store_read_scan" => workloads::store::run_read(ctx, off),
        other => unreachable!("workload {other} was validated"),
    };
    let mut latencies = m.latencies_ms;
    stats::sort(&mut latencies);
    let value = |name: &str| match name {
        "work_per_s" if m.unit_rates.is_empty() => m.work / m.body_s,
        "work_per_s" => stats::median(&m.unit_rates),
        "latency_mid_ms" => stats::midmean(&latencies),
        "setup_s" => stats::median(&m.setup_s),
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    let mut unmeasured = Vec::new();
    let metrics = catalog::END_TO_END
        .iter()
        .map(|e| {
            let v = value(e.name);
            if !(v.is_finite() && v > 0.0) {
                unmeasured.push(format!("{} measured {v}", e.name));
            }
            (e.name, Some(v), e.unit)
        })
        .collect();
    let mut failures = m.failures;
    failures.extend(unmeasured);
    Outcome {
        attempted: m.attempted,
        metrics,
        failures,
        exact: m.exact,
        samples: latencies.len(),
        tail_pct: 0,
    }
}

fn traced(workload: &str, ctx: &Ctx) -> Outcome {
    let t = match workload {
        "summit_full" => layers::campaign(Kind::SummitFull, ctx),
        "table1_chain" => layers::campaign(Kind::Table1Chain, ctx),
        "sched_policy_churn" => layers::churn(ctx),
        "farm_tenants" => layers::farm(ctx),
        "store_durable_write" => layers::store_durable(ctx),
        "store_read_scan" => layers::store_read(ctx),
        other => unreachable!("workload {other} was validated"),
    };
    let mut failures = t.failures;
    for (name, v) in &t.layers {
        if !catalog::PER_LAYER.iter().any(|p| p.name == name) {
            failures.push(format!(
                "the traced pass produced {name}, which BENCHMARK.json does not list"
            ));
        }
        if !v.is_finite() {
            failures.push(format!("{name} measured {v}"));
        }
    }
    let spans_path = ctx.out_dir.join(format!("spans-{workload}.jsonl"));
    if let Err(e) = t.spans.write_jsonl(&spans_path) {
        failures.push(format!("writing {}: {e}", spans_path.display()));
    }
    let value = |name: &str| t.layers.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    Outcome {
        attempted: t.attempted,
        metrics: catalog::PER_LAYER
            .iter()
            .map(|p| (p.name, value(p.name), p.unit))
            .collect(),
        failures,
        exact: Vec::new(),
        samples: t.latency_samples,
        tail_pct: t.tail_pct,
    }
}

/// One run of one workload in this process.
fn one(workload: &str, ctx: &Ctx, trace: bool) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("cannot create {}: {e}", ctx.out_dir.display());
        return ExitCode::from(2);
    }
    let out = if trace {
        traced(workload, ctx)
    } else {
        untraced(workload, ctx)
    };
    for why in &out.failures {
        eprintln!("FAILED {workload}: {why}");
    }
    for (name, value, unit) in &out.metrics {
        match value {
            Some(v) => eprintln!("{workload:<20} {name:<44} {v:>16.6} {unit}"),
            None => eprintln!("{workload:<20} {name:<44} {:>16} {unit}", "bypassed"),
        }
    }
    if trace {
        eprintln!(
            "{workload}: latency over {} samples, tail = p{}; spans -> {}",
            out.samples,
            out.tail_pct,
            ctx.out_dir
                .join(format!("spans-{workload}.jsonl"))
                .display()
        );
    } else {
        eprintln!("{workload}: latency over {} samples", out.samples);
    }
    for (name, value) in &out.exact {
        println!("exact {name} {}", record::num(*value));
    }
    for (name, _, _) in out.metrics.iter().filter(|m| m.1.is_none()) {
        println!("bypassed {name}");
    }
    println!("samples {} tail_pct {}", out.samples, out.tail_pct);
    // The result line carries every metric of the pass as a number, so a
    // bypassed layer reads 0 there; the `bypassed` lines above tell it
    // from a count that really is 0.
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                record::num(value.unwrap_or(0.0))
            )
        })
        .collect();
    let attempted = out.attempted.max(1);
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        (out.failures.len() as u64).min(attempted),
        metrics.join(", ")
    );
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ------------------------------------------------------- run / aa drivers

/// What a child run printed.
struct Child {
    correct: bool,
    metrics: Vec<(String, f64, String)>,
    exact: Vec<(String, f64)>,
    /// Per-layer metrics of layers the workload's path bypasses.
    bypassed: Vec<String>,
    /// The run's `samples <n> tail_pct <p>` line.
    samples: String,
}

/// Starts one run as its own process, waits for it, parses its output.
fn child(workload: &str, ctx: &Ctx, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &ctx.seed.to_string()])
        .args([
            "--seconds",
            &ctx.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out-dir")
        .arg(&ctx.out_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    // Exit code 1 is a run whose checks failed: it still printed its result.
    if !out.status.success() && out.status.code() != Some(1) {
        return Err(format!("the {workload} run exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("the {workload} run printed nothing"))?;
    let json = Json::parse(last).map_err(|e| format!("bad result line: {e}"))?;
    let metrics = json
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            (name.clone(), value, unit)
        })
        .collect();
    let exact = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("exact "))
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(name, v)| Some((name.to_string(), v.parse().ok()?)))
        .collect();
    let bypassed = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("bypassed "))
        .map(str::to_string)
        .collect();
    let samples = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with("samples "))
        .unwrap_or("samples 0 tail_pct 0")
        .to_string();
    Ok(Child {
        correct: json.get("correct") == Some(&Json::Bool(true)),
        metrics,
        exact,
        bypassed,
        samples,
    })
}

/// `run`: every metric by name with its unit, untraced pass then traced
/// pass (`reps` runs each), one record per metric; fails on a failed
/// check.
fn run(names: &[&str], ctx: &Ctx, reps: usize) -> ExitCode {
    let host = record::Host::read();
    let mut records = Vec::new();
    let mut ok = true;
    for &w in names {
        for trace in [false, true] {
            let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
            let mut samples = String::new();
            let mut bypassed = Vec::new();
            for _ in 0..reps {
                match child(w, ctx, trace) {
                    Err(e) => {
                        eprintln!("FAILED {w}: {e}");
                        ok = false;
                    }
                    Ok(c) => {
                        ok &= c.correct;
                        samples = c.samples;
                        bypassed = c.bypassed;
                        for (name, value, unit) in c.metrics {
                            match values.iter_mut().find(|(n, _, _)| *n == name) {
                                Some(row) => row.2.push(value),
                                None => values.push((name, unit, vec![value])),
                            }
                        }
                    }
                }
            }
            // In catalogue order, not the JSON object's.
            let order: Vec<&str> = if trace {
                catalog::PER_LAYER.iter().map(|p| p.name).collect()
            } else {
                catalog::END_TO_END.iter().map(|e| e.name).collect()
            };
            for name in order {
                if bypassed.iter().any(|b| b == name) {
                    println!("{w:<20} {name:<44} {:>16}", "bypassed");
                    continue;
                }
                let Some((_, unit, v)) = values.iter().find(|(n, _, _)| n == name) else {
                    eprintln!("FAILED {w}: no value for {name}");
                    ok = false;
                    continue;
                };
                let s = stats::summarize(v);
                let spread = stats::iqr_share(v).map_or(String::new(), |q| {
                    format!(", IQR {:.1}% of median", q * 100.0)
                });
                println!(
                    "{w:<20} {name:<44} {:>16.6} {unit:<6} (n={}, min {:.6}, max {:.6}{spread})",
                    s.median, s.n, s.min, s.max
                );
                let runs = record::Runs {
                    workload: w,
                    seed: ctx.seed,
                    traced: trace,
                    within_run: &samples,
                };
                records.push(record::record_json(&host, &runs, name, unit, &s));
            }
        }
    }
    let path = ctx.out_dir.join("records.jsonl");
    match std::fs::write(&path, records.join("\n") + "\n") {
        Ok(()) => println!("{} records -> {}", records.len(), path.display()),
        Err(e) => {
            eprintln!("writing {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `aa`: the same commit against itself. Every workload runs `sets`
/// times, the order reversing from set to set; each end-to-end metric
/// must agree with the first set within its bound and every exact
/// statistic must be identical.
fn aa(ctx: &Ctx, sets: usize) -> ExitCode {
    let mut results: Vec<Vec<Option<Child>>> = Vec::new();
    let mut ok = true;
    for set in 0..sets {
        let mut order: Vec<usize> = (0..catalog::workload_names().len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        let mut row: Vec<Option<Child>> = catalog::workload_names().iter().map(|_| None).collect();
        for i in order {
            match child(catalog::workload_names()[i], ctx, false) {
                Ok(c) => {
                    ok &= c.correct;
                    row[i] = Some(c);
                }
                Err(e) => {
                    eprintln!("FAILED {}: {e}", catalog::workload_names()[i]);
                    ok = false;
                }
            }
        }
        results.push(row);
    }
    println!(
        "{:<20} {:<28} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 0", "set n", "worse by", "bound"
    );
    for (i, w) in catalog::workload_names().iter().enumerate() {
        let Some(base) = &results[0][i] else { continue };
        for later in results.iter().skip(1).filter_map(|r| r[i].as_ref()) {
            for e in &catalog::END_TO_END {
                let get = |c: &Child| {
                    c.metrics
                        .iter()
                        .find(|(n, _, _)| n == e.name)
                        .map_or(f64::NAN, |m| m.1)
                };
                let (a, b) = (get(base), get(later));
                let worse = if e.better == "lower" {
                    (b - a) / a
                } else {
                    (a - b) / a
                };
                let verdict = if worse.abs() <= e.bound {
                    ""
                } else {
                    "  EXCEEDS"
                };
                ok &= worse.abs() <= e.bound;
                println!(
                    "{w:<20} {:<28} {a:>14.6} {b:>14.6} {:>8.2}% {:>6.0}%{verdict}",
                    e.name,
                    worse * 100.0,
                    e.bound * 100.0
                );
            }
            for (name, a) in &base.exact {
                let b = later.exact.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
                let same = b.map(f64::to_bits) == Some(a.to_bits());
                ok &= same;
                println!(
                    "{w:<20} {name:<28} {a:>14.6} {:>14.6} {:>9} {:>7}{}",
                    b.unwrap_or(f64::NAN),
                    "exact",
                    "0",
                    if same { "" } else { "  DIFFERS" }
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// -------------------------------------------------------------------- CLI

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  mummi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n  mummi-benchmark run (--all | --workload <name>) [--reps <n>] [--seed <n>] [--seconds <s>]\n  mummi-benchmark aa [--sets <n>] [--seed <n>] [--seconds <s>]\n  mummi-benchmark list\nworkloads: {}",
        catalog::workload_names().join(", ")
    );
    ExitCode::from(2)
}

/// What the command line asked for.
struct Args {
    mode: String,
    workload: Option<String>,
    all: bool,
    trace: bool,
    reps: usize,
    sets: usize,
    ctx: Ctx,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mode, flags) = match args.first().map(String::as_str) {
        Some(m @ ("run" | "aa" | "list")) => (m, &args[1..]),
        _ => ("one", args),
    };
    let mut out = Args {
        mode: mode.to_string(),
        workload: None,
        all: false,
        trace: false,
        reps: 1,
        sets: 2,
        ctx: Ctx {
            seed: catalog::DEFAULT_SEED,
            seconds: catalog::RUN_SECONDS as f64,
            out_dir: PathBuf::from("benchmark/out"),
            set_up_once: false,
        },
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag} {v}: not a number"))
        }
        match flag.as_str() {
            "--all" => out.all = true,
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.ctx.seed = number(flag, value()?)?,
            "--seconds" => out.ctx.seconds = number(flag, value()?)?,
            "--trace" => out.trace = number::<u8>(flag, value()?)? != 0,
            "--reps" => out.reps = number(flag, value()?)?,
            "--sets" => out.sets = number(flag, value()?)?,
            "--out-dir" => out.ctx.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.ctx.seconds.is_nan() || out.ctx.seconds <= 0.0 || out.reps == 0 || out.sets < 2 {
        return Err("--seconds must be positive, --reps at least 1, --sets at least 2".to_string());
    }
    if let Some(w) = &out.workload {
        if !catalog::workload_names().contains(&w.as_str()) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("{why}");
            return usage();
        }
    };
    match (a.mode.as_str(), &a.workload, a.all) {
        ("list", None, false) => {
            catalog::print();
            ExitCode::SUCCESS
        }
        ("one", Some(w), false) => one(w, &a.ctx, a.trace),
        ("run", None, true) => run(&catalog::workload_names(), &a.ctx, a.reps),
        ("run", Some(w), false) => run(&[w.as_str()], &a.ctx, a.reps),
        ("aa", None, false) => aa(&a.ctx, a.sets),
        _ => usage(),
    }
}
