//! `mummi-lint`: the workspace determinism & coordination-invariant pass.
//!
//! The campaign results this repository reproduces (Table 1, Figs 3-8)
//! are only meaningful if the discrete-event replay is bit-deterministic
//! and the coordination path cannot die on an unchecked failure. This
//! crate walks every `.rs` file in the workspace and enforces the
//! contract DESIGN.md promises:
//!
//! - **L1** — no wall-clock time sources (`Instant::now`,
//!   `SystemTime::now`, argless `chrono` constructors). `simcore::SimTime`
//!   is the only clock; benchmarks that measure real hardware time carry
//!   an explicit exemption in `lint.toml`.
//! - **L2** — no unseeded randomness (`thread_rng`, `rand::random`)
//!   anywhere, tests included. All stochastic components draw from
//!   `simcore::rng::SeedStream` or an explicitly seeded `StdRng`.
//! - **L3** — no order-nondeterministic containers (`HashMap`/`HashSet`)
//!   in non-test code of the coordination crates (`sched`, `mummi-core`,
//!   `campaign`, `kvstore`, `taridx`, `datastore`, `trace`). Iteration
//!   order there reaches scheduling and feedback decisions — and, through
//!   `DataStore::list` and the tracer's byte-identical traces, campaign
//!   outputs; use `BTreeMap`/`BTreeSet`, or annotate a justified
//!   key-access-only use with `// lint: allow(L3)`.
//! - **L4** — no `unwrap()`/`expect()` in non-test code of the
//!   coordination-path crates (`sched`, `mummi-core`, `campaign`,
//!   `datastore`). Grandfathered files carry a per-file budget in
//!   `lint.toml`; a budget larger than the real count is itself an error,
//!   so the allowlist can only ratchet down.
//! - **L5** — no raw `.state =` writes in `crates/sched` outside
//!   `src/job.rs`. Job lifecycle transitions go through
//!   `TrackedState::advance_to`, which checks membership in that module's
//!   `ALLOWED_TRANSITIONS` table — keeping that table exhaustive over the
//!   code by construction.
//!
//! The parallelism-readiness rules (the gate ROADMAP item 1 — deterministic
//! intra-campaign parallelism — merges through; see DESIGN.md § 6.1):
//!
//! - **L6** — no shared-mutable-state primitives (`Mutex`, `RwLock`,
//!   `RefCell`, `Cell<`, `static mut`, `unsafe`, atomic types) in non-test
//!   code of the coordination crates without a *reasoned* allow
//!   (`// lint: allow(L6: <why>)`). `Ordering::Relaxed` is an error
//!   everywhere, tests and allows included — Acquire/Release or SeqCst
//!   only.
//! - **L7** — no float reduction (`.sum`/`.fold`/`.reduce`) fed directly
//!   by a parallel iterator in the same statement. Parallel results flow
//!   through the ordered-indexed-collect idiom (`.collect()` into input
//!   order, reduce serially); integer turbofish
//!   reductions (`.sum::<u64>()`) are exact under any order and pass.
//! - **L8** — parallelism entry points (`thread::spawn`, `rayon::spawn`/
//!   `rayon::join`, the `par_iter`/`par_chunks` families) only in modules
//!   enumerated in `lint.toml [l8_parallel]` or behind a reasoned allow —
//!   a new parallel region is a reviewed config change, not a silent
//!   diff. Entries that no longer match a parallel entry point are
//!   themselves flagged, so the table can only shrink.
//! - **L9** — every `SeedStream::fork`/`fork_indexed` label in non-test
//!   code is a string literal, and labels are globally unique across the
//!   workspace (a cross-file check), pinning the guarantee that each
//!   stochastic process owns a stable, collision-free stream.
//!
//! And one surface rule:
//!
//! - **L10** — every `pub fn`/`const`/`static` in non-test product code
//!   (`crates/*/src` outside `src/bin/`) is *reached*: its name appears
//!   as a token in another scanned file, bins, tests, examples and
//!   `benchmark/src` included. Tokens on `use` lines do not count, so a
//!   re-export or a doc example keeps nothing alive. Deliberate
//!   exceptions sit in `lint.toml [pub_unreached]` with a reason; a
//!   listed item that is gone or reached is flagged, so the table can
//!   only shrink.
//!
//! The scanner is deliberately a *token* pass over comment- and
//! string-masked source, not a full parser: the workspace vendors no
//! `syn`, and every invariant above is expressible on masked tokens. The
//! cost is conservatism (L3 bans the type, not just its iteration), paid
//! for with inline `// lint: allow(..)` escapes that reviewers can see.
//! L6–L9 escapes must carry a written reason; bare allows are themselves
//! violations there.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation, anchored to a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier: "L1".."L10" (or "config" for lint.toml problems).
    pub rule: &'static str,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}]: {}\n  --> {}:{}",
            self.rule, self.message, self.file, self.line
        )
    }
}

impl Violation {
    /// GitHub Actions workflow-command annotation (`::error ...`): CI
    /// prints these so violations appear inline on the PR diff.
    pub fn to_github(&self) -> String {
        format!(
            "::error file={},line={},title=mummi-lint {}::{}",
            github_escape_property(&self.file),
            self.line,
            github_escape_property(self.rule),
            github_escape_data(&self.message)
        )
    }

    /// Machine-readable JSON object (no external serializer available).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            escape_json(self.rule),
            escape_json(&self.file),
            self.line,
            escape_json(&self.message)
        )
    }
}

/// Renders a violation list as a JSON array.
pub fn to_json(violations: &[Violation]) -> String {
    let items: Vec<String> = violations.iter().map(Violation::to_json).collect();
    format!("[{}]", items.join(","))
}

/// Workflow-command *property* escaping (file/title fields): the runner
/// parses `,` and `:` as delimiters there, on top of the data escapes.
fn github_escape_property(s: &str) -> String {
    github_escape_data(s)
        .replace(':', "%3A")
        .replace(',', "%2C")
}

/// Workflow-command *data* escaping (the message after `::`).
fn github_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parsed `lint.toml`: the only mutable surface of the contract.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Files allowed to read the host clock, with a reason each.
    pub l1_exempt: BTreeMap<String, String>,
    /// Per-file `unwrap()`/`expect()` budgets for grandfathered code.
    pub l4_allow: BTreeMap<String, u64>,
    /// Files allowed to contain parallelism entry points, with a reason
    /// each (L8). Stale entries — files with no parallel entry point
    /// left — are flagged, so this table can only shrink.
    pub l8_parallel: BTreeMap<String, String>,
    /// Unreached `pub` items kept on purpose (L10), keyed
    /// `"<file>::<name>"`, with a reason each. Stale entries — items
    /// gone or now reached — are flagged, so this table can only shrink.
    pub pub_unreached: BTreeMap<String, String>,
}

/// The `lint.toml` tables; every one but `[l4_allow]` maps a key to a
/// written reason.
const SECTIONS: &[&str] = &["l1_exempt", "l4_allow", "l8_parallel", "pub_unreached"];

impl Config {
    /// Parses the small TOML subset `lint.toml` uses: `[section]` headers
    /// and `"quoted key" = value` entries (string or integer values).
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                if !SECTIONS.contains(&section.as_str()) {
                    return Err(format!(
                        "lint.toml:{}: unknown section [{section}]",
                        idx + 1
                    ));
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("lint.toml:{}: expected `key = value`", idx + 1))?;
            let key = key.trim().trim_matches('"').replace('\\', "/");
            let value = value.trim();
            let table = match section.as_str() {
                "l4_allow" => {
                    let n: u64 = value
                        .parse()
                        .map_err(|_| format!("lint.toml:{}: budget must be an integer", idx + 1))?;
                    insert_once(&mut cfg.l4_allow, key, n, idx + 1)?;
                    continue;
                }
                "l1_exempt" => &mut cfg.l1_exempt,
                "l8_parallel" => &mut cfg.l8_parallel,
                "pub_unreached" => &mut cfg.pub_unreached,
                _ => {
                    return Err(format!(
                        "lint.toml:{}: entry outside a known section",
                        idx + 1
                    ))
                }
            };
            let reason = value.trim_matches('"').trim();
            if reason.is_empty() {
                return Err(format!(
                    "lint.toml:{}: [{section}] entries need a written reason",
                    idx + 1
                ));
            }
            insert_once(table, key, reason.to_string(), idx + 1)?;
        }
        Ok(cfg)
    }

    /// Loads `lint.toml` from the workspace root; a missing file means an
    /// empty config (no exemptions, zero budgets).
    pub fn load(root: &Path) -> Result<Config, String> {
        match std::fs::read_to_string(root.join("lint.toml")) {
            Ok(text) => Config::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
            Err(e) => Err(format!("reading lint.toml: {e}")),
        }
    }
}

/// Adds `key` to one `lint.toml` table; a repeated key is an error, not a
/// silent overwrite of the earlier entry.
fn insert_once<V>(
    table: &mut BTreeMap<String, V>,
    key: String,
    value: V,
    line: usize,
) -> Result<(), String> {
    match table.entry(key) {
        Entry::Occupied(e) => Err(format!("lint.toml:{line}: duplicate entry {}", e.key())),
        Entry::Vacant(e) => {
            e.insert(value);
            Ok(())
        }
    }
}

/// Crates whose non-test code must be free of `unwrap()`/`expect()` (L4).
const COORDINATION_CRATES: &[&str] = &["sched", "mummi-core", "campaign", "datastore", "chaos"];

/// Crates whose non-test code must not use order-nondeterministic
/// containers (L3). `taridx` and `datastore` are here because listing
/// order leaks through `DataStore::list` into feedback folds, `trace`
/// because the tracer's byte-identical-output guarantee is itself the
/// determinism regression detector, and `workload` because its
/// generators promise seed-stable, cadence-invariant arrival streams —
/// an unordered map anywhere in a draw path would break replay.
const ORDERED_CRATES: &[&str] = &[
    "sched",
    "mummi-core",
    "campaign",
    "kvstore",
    "taridx",
    "datastore",
    "trace",
    "chaos",
    "workload",
];

/// Crates whose non-test code must be free of shared-mutable-state
/// primitives (L6): everything the deterministic replay path runs
/// through. Unsynchronized sharing there is what makes ROADMAP item 1
/// (intra-campaign parallelism) able to break the byte-identical-trace
/// bar silently, so it must be impossible by construction, not merely
/// tested-for.
const L6_CRATES: &[&str] = &[
    "sched",
    "mummi-core",
    "campaign",
    "kvstore",
    "taridx",
    "datastore",
    "trace",
    "chaos",
    "simcore",
    "resources",
    // The farm's async shell is allowed exactly one shared structure —
    // the submission queue behind a single Mutex (reasoned inline
    // allows). Listing the crate here keeps any second one from
    // appearing silently.
    "farm",
    // Same discipline for the store tier: shared state is the per-shard
    // WAL handles and the server's edge-side flags, each with a
    // reasoned inline allow; anything new must be argued here too.
    "storeserver",
];

const L1_TOKENS: &[&str] = &["Instant::now", "SystemTime::now", "Utc::now", "Local::now"];
const L2_TOKENS: &[&str] = &[
    "thread_rng",
    "rand::random",
    "OsRng",
    "from_entropy",
    "getrandom",
];
const L3_TOKENS: &[&str] = &["HashMap", "HashSet"];
const L6_TOKENS: &[&str] = &[
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell<",
    "static mut",
    "unsafe",
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicPtr",
];
/// Parallel-iterator entry points: arm the L7 statement window and count
/// as L8 entry points.
const PAR_ITER_TOKENS: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_mut",
    "par_bridge",
    "par_extend",
    "par_sort",
    "par_sort_unstable",
];
/// Non-iterator parallelism entry points (L8 only).
const PAR_SPAWN_TOKENS: &[&str] = &["thread::spawn", "rayon::spawn", "rayon::join"];
/// Reduction calls L7 refuses inside an armed parallel statement window.
const L7_REDUCERS: &[&str] = &[".sum", ".fold", ".reduce"];

/// Runs the full pass over the workspace rooted at `root`.
///
/// `root` must contain the workspace `Cargo.toml`; `lint.toml` beside it
/// configures exemptions. Returns all violations, stably ordered by
/// (file, line, rule).
pub fn lint_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let config = Config::load(root)?;
    lint_workspace_with(root, &config)
}

/// Like [`lint_workspace`], with an explicit config.
fn lint_workspace_with(root: &Path, config: &Config) -> Result<Vec<Violation>, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut violations = Vec::new();
    let mut state = ScanState::default();

    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("reading {}: {e}", rel.display()))?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        lint_file(&rel_str, &source, config, &mut violations, &mut state);
    }

    finish_scan(config, &state, &mut violations);

    violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(violations)
}

/// Cross-file scanner state threaded through [`lint_file`] calls and
/// resolved by [`finish_scan`]. Per-file passes can only see one file;
/// the L1 exemption ratchet, L4 ratchet, L8 allowlist ratchet, and L9
/// label uniqueness are workspace properties, so they accumulate here.
#[derive(Debug, Clone, Default)]
pub struct ScanState {
    /// `[l1_exempt]` entries whose file really reads the host clock.
    pub l1_used: BTreeSet<String>,
    /// `.unwrap()`/`.expect(` hits per coordination-path file.
    pub l4_counts: BTreeMap<String, u64>,
    /// `[l8_parallel]` entries that matched a real parallelism entry point.
    pub l8_used: BTreeSet<String>,
    /// `SeedStream` fork label -> non-test call sites (file, line).
    pub l9_labels: BTreeMap<String, Vec<(String, usize)>>,
    /// Identifier token -> files naming it outside `use` lines (L10).
    pub l10_tokens: BTreeMap<String, BTreeSet<String>>,
    /// Non-test product `pub fn`/`const`/`static` declarations as
    /// (file, line, name), checked against `l10_tokens` (L10).
    pub l10_items: Vec<(String, usize, String)>,
}

/// The cross-file checks, run once after every file went through
/// [`lint_file`]: stale `[l1_exempt]` entries, the L4 budget ratchet,
/// stale `[l8_parallel]` entries, L9 global label uniqueness, and L10
/// reachability with its stale `[pub_unreached]` entries.
pub fn finish_scan(config: &Config, state: &ScanState, violations: &mut Vec<Violation>) {
    // L1 ratchet: an exemption whose file is gone, or no longer reads
    // the host clock, is stale — the table may only shrink.
    for file in config.l1_exempt.keys() {
        if !state.l1_used.contains(file) {
            violations.push(Violation {
                rule: "L1",
                file: "lint.toml".to_string(),
                line: 1,
                message: format!(
                    "[l1_exempt] entry {file} is missing or no longer reads the host clock; \
                     the exemption list may only shrink — remove the entry"
                ),
            });
        }
    }

    // L4 ratchet: a budget above the real count is stale — shrink it.
    for (file, &budget) in &config.l4_allow {
        let actual = state.l4_counts.get(file).copied().unwrap_or(0);
        if budget > actual {
            violations.push(Violation {
                rule: "L4",
                file: "lint.toml".to_string(),
                line: 1,
                message: format!(
                    "allowlist budget for {file} is {budget} but the file has {actual} \
                     unwrap()/expect() calls; budgets may only ratchet down"
                ),
            });
        }
    }

    // L8 ratchet: an allowlisted file with no parallelism entry point
    // left is stale — the table may only shrink.
    for file in config.l8_parallel.keys() {
        if !state.l8_used.contains(file) {
            violations.push(Violation {
                rule: "L8",
                file: "lint.toml".to_string(),
                line: 1,
                message: format!(
                    "[l8_parallel] entry {file} matched no parallelism entry point; \
                     the allowlist may only shrink — remove the entry"
                ),
            });
        }
    }

    // L9: fork labels are globally unique. Two processes drawing from the
    // same stream family would correlate exactly the randomness the
    // per-component-stream design exists to decouple.
    for (label, sites) in &state.l9_labels {
        if sites.len() > 1 {
            let all: Vec<String> = sites.iter().map(|(f, l)| format!("{f}:{l}")).collect();
            for (file, line) in sites {
                violations.push(Violation {
                    rule: "L9",
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "duplicate SeedStream fork label \"{label}\" (all sites: {}) — \
                         each stochastic process owns a unique stream; pick a distinct literal",
                        all.join(", ")
                    ),
                });
            }
        }
    }

    // L10: a product `pub` item no other file names is surface nothing
    // exercises. Listed items are clean; a listing whose item is gone or
    // now reached is stale — the table may only shrink.
    let mut listed = BTreeSet::new();
    for (file, line, name) in &state.l10_items {
        let reached = state
            .l10_tokens
            .get(name)
            .is_some_and(|files| files.iter().any(|f| f != file));
        let key = format!("{file}::{name}");
        if reached {
            continue;
        }
        if config.pub_unreached.contains_key(&key) {
            listed.insert(key);
            continue;
        }
        violations.push(Violation {
            rule: "L10",
            file: file.clone(),
            line: *line,
            message: format!(
                "`pub` item `{name}` is named by no other file — drop `pub`, delete it, \
                 or list \"{key}\" in lint.toml [pub_unreached] with a reason"
            ),
        });
    }
    for key in config.pub_unreached.keys() {
        if !listed.contains(key) {
            violations.push(Violation {
                rule: "L10",
                file: "lint.toml".to_string(),
                line: 1,
                message: format!(
                    "[pub_unreached] entry {key} is gone or now reached elsewhere; \
                     the list may only shrink — remove the entry"
                ),
            });
        }
    }
}

/// Lints one file's source text. Exposed for the scratch-violation tests.
/// Cross-file rules (L1/L4/L8 ratchets, L9 uniqueness) accumulate in
/// `state` and are resolved by [`finish_scan`].
pub fn lint_file(
    rel: &str,
    source: &str,
    config: &Config,
    violations: &mut Vec<Violation>,
    state: &mut ScanState,
) {
    let crate_name = crate_of(rel);
    let masked = mask_source(source);
    let test_lines = test_region_lines(&masked);
    let raw_lines: Vec<&str> = source.lines().collect();
    // A file under `tests/` or `benches/` is integration-test code.
    let integration_test = rel.split('/').any(|c| c == "tests" || c == "benches");
    let product = is_product_source(rel);
    let mut in_use = false;
    let mut tokens = BTreeSet::new();

    for (i, line) in masked.lines().enumerate() {
        let lineno = i + 1;
        let raw = raw_lines.get(i).copied().unwrap_or("");
        let in_tests = integration_test || test_lines.get(i).copied().unwrap_or(false);

        // L1: wall-clock sources, everywhere (tests included — virtual-time
        // assertions must not compare against the host clock) except
        // explicitly exempt files.
        if !has_allow(raw, "L1") {
            for tok in L1_TOKENS {
                if contains_token(line, tok) {
                    if config.l1_exempt.contains_key(rel) {
                        state.l1_used.insert(rel.to_string());
                        continue;
                    }
                    violations.push(Violation {
                        rule: "L1",
                        file: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "wall-clock time source `{tok}` — simcore::SimTime is the only \
                             clock (benchmarks belong in [l1_exempt] of lint.toml)"
                        ),
                    });
                }
            }
        }

        // L2: unseeded randomness, everywhere.
        if !has_allow(raw, "L2") {
            for tok in L2_TOKENS {
                if contains_token(line, tok) {
                    violations.push(Violation {
                        rule: "L2",
                        file: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "unseeded randomness `{tok}` — draw from simcore::rng::SeedStream \
                             or a seeded StdRng"
                        ),
                    });
                }
            }
        }

        // L3: order-nondeterministic containers in coordination crates.
        if ORDERED_CRATES.contains(&crate_name) && !in_tests && !has_allow(raw, "L3") {
            for tok in L3_TOKENS {
                if contains_token(line, tok) {
                    violations.push(Violation {
                        rule: "L3",
                        file: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "`{tok}` in coordination crate `{crate_name}` — iteration order \
                             reaches scheduling/feedback decisions; use BTreeMap/BTreeSet \
                             (or `// lint: allow(L3)` for key-access-only use)"
                        ),
                    });
                }
            }
        }

        // L4: unwrap/expect in coordination-path non-test code.
        if COORDINATION_CRATES.contains(&crate_name) && !in_tests {
            let hits = count_token(line, ".unwrap()") + count_token(line, ".expect(");
            if hits > 0 {
                *state.l4_counts.entry(rel.to_string()).or_insert(0) += hits as u64;
                let budget = config.l4_allow.get(rel).copied().unwrap_or(0);
                if state.l4_counts[rel] > budget {
                    violations.push(Violation {
                        rule: "L4",
                        file: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "unwrap()/expect() on the coordination path (file budget {budget} \
                             in lint.toml) — propagate a typed error instead"
                        ),
                    });
                }
            }
        }

        // L5: raw JobState writes in sched outside the state-machine module.
        if crate_name == "sched"
            && !in_tests
            && !rel.ends_with("src/job.rs")
            && !has_allow(raw, "L5")
        {
            if let Some(col) = find_raw_state_write(line) {
                let _ = col;
                violations.push(Violation {
                    rule: "L5",
                    file: rel.to_string(),
                    line: lineno,
                    message: "raw `.state =` write — job lifecycle transitions must go \
                              through TrackedState::advance_to so job.rs's ALLOWED_TRANSITIONS \
                              stays exhaustive"
                        .to_string(),
                });
            }
        }

        // L6: shared-mutable-state primitives in coordination crates.
        // Once the event loop is partitioned across threads (ROADMAP
        // item 1), any of these can turn a same-seed replay into a race;
        // each surviving use carries a written reason.
        if L6_CRATES.contains(&crate_name) && !in_tests {
            let allow = allow_of(raw, "L6");
            if allow != Allow::Reasoned {
                for tok in L6_TOKENS {
                    if contains_token(line, tok) {
                        let message = if allow == Allow::Bare {
                            format!(
                                "`{tok}` under a bare allow — L6 escapes must carry a \
                                 written reason: `// lint: allow(L6: <why>)`"
                            )
                        } else {
                            format!(
                                "shared-mutable-state primitive `{tok}` in coordination \
                                 crate `{crate_name}` — unsynchronized sharing breaks \
                                 deterministic parallel replay; restructure, or justify \
                                 with `// lint: allow(L6: <why>)`"
                            )
                        };
                        violations.push(Violation {
                            rule: "L6",
                            file: rel.to_string(),
                            line: lineno,
                            message,
                        });
                    }
                }
            }
        }
        // Ordering::Relaxed is an error everywhere — tests and allows
        // included. Relaxed loads/stores legalize exactly the reorderings
        // that make two same-seed parallel replays observe different
        // interleavings; Acquire/Release or SeqCst only.
        if contains_token(line, "Ordering::Relaxed") {
            violations.push(Violation {
                rule: "L6",
                file: rel.to_string(),
                line: lineno,
                message: "`Ordering::Relaxed` — relaxed atomics have no escape hatch; \
                          use Acquire/Release or SeqCst"
                    .to_string(),
            });
        }

        // L8: parallelism entry points only in allowlisted modules. Test
        // code is exempt: concurrency stress tests exercise the thread
        // safety the types promise and never run on the replay path.
        if !in_tests {
            for tok in PAR_ITER_TOKENS.iter().chain(PAR_SPAWN_TOKENS) {
                if contains_token(line, tok) {
                    if config.l8_parallel.contains_key(rel) {
                        state.l8_used.insert(rel.to_string());
                        continue;
                    }
                    match allow_of(raw, "L8") {
                        Allow::Reasoned => {}
                        Allow::Bare => violations.push(Violation {
                            rule: "L8",
                            file: rel.to_string(),
                            line: lineno,
                            message: format!(
                                "`{tok}` under a bare allow — L8 escapes must carry a \
                                 written reason: `// lint: allow(L8: <why>)`"
                            ),
                        }),
                        Allow::None => violations.push(Violation {
                            rule: "L8",
                            file: rel.to_string(),
                            line: lineno,
                            message: format!(
                                "parallelism entry point `{tok}` outside the \
                                 [l8_parallel] allowlist — a new parallel region is a \
                                 reviewed lint.toml change (or a reasoned \
                                 `// lint: allow(L8: <why>)`)"
                            ),
                        }),
                    }
                }
            }
        }

        // L9: SeedStream fork labels must be string literals (uniqueness
        // is checked across the workspace in finish_scan). Test code is
        // exempt — determinism tests deliberately re-fork a label to
        // assert the same family comes back.
        if !in_tests {
            lint_l9_line(rel, raw, line, lineno, violations, state);
        }

        // L10: index every identifier outside `use` statements (which
        // may span lines), and record product `pub` declarations.
        let trimmed = line.trim_start();
        in_use |= trimmed.starts_with("use ") || trimmed.starts_with("pub use ");
        if in_use {
            in_use = !line.contains(';');
        } else {
            tokens.extend(identifiers(line));
        }
        if product && !in_tests {
            if let Some(name) = pub_item_name(trimmed) {
                state
                    .l10_items
                    .push((rel.to_string(), lineno, name.to_string()));
            }
        }
    }

    for tok in tokens {
        let files = state.l10_tokens.entry(tok.to_string()).or_default();
        files.insert(rel.to_string());
    }

    // L7 runs as its own pass: the statement window between a parallel
    // iterator and a reduction routinely spans lines.
    lint_l7(rel, &masked, &raw_lines, violations);
}

/// L7: a float reduction fed directly by a parallel iterator. A `par_*`
/// token arms a statement window at its brace depth; a `;` at that depth
/// (or the enclosing block closing) disarms it. A `.sum`/`.fold`/
/// `.reduce` inside an armed window reduces in task-completion order,
/// not input order — for floats that is a different answer per run. The
/// prescribed shape is an ordered indexed collect:
/// `.collect()` into input order (which never fires), then reduce
/// serially in the next statement. Integer turbofish reductions
/// (`.sum::<u64>()`) are exact under any order and pass.
fn lint_l7(rel: &str, masked: &str, raw_lines: &[&str], violations: &mut Vec<Violation>) {
    let mut depth: i32 = 0;
    let mut armed: Option<i32> = None;
    for (idx, line) in masked.lines().enumerate() {
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if armed.is_some_and(|d| depth < d) {
                        armed = None;
                    }
                }
                b';' => {
                    if armed.is_some_and(|d| depth <= d) {
                        armed = None;
                    }
                }
                _ => {
                    if let Some(tok) = PAR_ITER_TOKENS.iter().find(|t| token_at(line, i, t)) {
                        armed = Some(depth);
                        i += tok.len();
                        continue;
                    }
                    if let Some(tok) = L7_REDUCERS.iter().find(|t| token_at(line, i, t)) {
                        let end = i + tok.len();
                        if armed.is_some() && !integer_turbofish(line, end) {
                            let raw = raw_lines.get(idx).copied().unwrap_or("");
                            match allow_of(raw, "L7") {
                                Allow::Reasoned => {}
                                Allow::Bare => violations.push(Violation {
                                    rule: "L7",
                                    file: rel.to_string(),
                                    line: idx + 1,
                                    message: format!(
                                        "`{tok}` under a bare allow — L7 escapes must \
                                         carry a written reason: `// lint: allow(L7: <why>)`"
                                    ),
                                }),
                                Allow::None => violations.push(Violation {
                                    rule: "L7",
                                    file: rel.to_string(),
                                    line: idx + 1,
                                    message: format!(
                                        "`{tok}` fed by a parallel iterator in the same \
                                         statement — float reductions in completion order \
                                         are nondeterministic; collect in input order \
                                         (ordered indexed collect) \
                                         and reduce serially, give the reduction an \
                                         integer turbofish, or justify with \
                                         `// lint: allow(L7: <why>)`"
                                    ),
                                }),
                            }
                        }
                        i = end;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }
}

/// L9 per-line scan: `.fork(` / `.fork_indexed(` calls must label with a
/// string literal on the call line, and every literal label is recorded
/// for the cross-file uniqueness check.
fn lint_l9_line(
    rel: &str,
    raw: &str,
    line: &str,
    lineno: usize,
    violations: &mut Vec<Violation>,
    state: &mut ScanState,
) {
    let bytes = line.as_bytes();
    for callee in [".fork_indexed", ".fork"] {
        let mut from = 0;
        while let Some(pos) = find_token(line, callee, from) {
            from = pos + callee.len();
            // Only calls: the method name immediately followed by `(`.
            if bytes.get(pos + callee.len()) != Some(&b'(') {
                continue;
            }
            match allow_of(raw, "L9") {
                Allow::Reasoned => continue,
                Allow::Bare => {
                    violations.push(Violation {
                        rule: "L9",
                        file: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "`{callee}` under a bare allow — L9 escapes must carry a \
                             written reason: `// lint: allow(L9: <why>)`"
                        ),
                    });
                    continue;
                }
                Allow::None => {}
            }
            let mut i = pos + callee.len() + 1;
            while bytes.get(i) == Some(&b' ') {
                i += 1;
            }
            if bytes.get(i) != Some(&b'"') {
                violations.push(Violation {
                    rule: "L9",
                    file: rel.to_string(),
                    line: lineno,
                    message: format!(
                        "`{callee}` label must be a string literal on the call line — \
                         derive per-index streams with `fork_indexed(\"name\", i)`, or \
                         justify a computed label with `// lint: allow(L9: <why>)`"
                    ),
                });
                continue;
            }
            // Masking blanks string *contents* but keeps the quotes at
            // their original byte offsets, so the closing quote in the
            // masked line marks the literal's end in the raw line too.
            let open = i;
            match line[open + 1..].find('"') {
                Some(off) => {
                    let close = open + 1 + off;
                    let label = raw[open + 1..close].to_string();
                    state
                        .l9_labels
                        .entry(label)
                        .or_default()
                        .push((rel.to_string(), lineno));
                }
                None => violations.push(Violation {
                    rule: "L9",
                    file: rel.to_string(),
                    line: lineno,
                    message: format!(
                        "`{callee}` label literal must open and close on the call line"
                    ),
                }),
            }
        }
    }
}

/// True for product source L10 audits: `crates/<name>/src/`, bins aside.
fn is_product_source(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    parts.len() > 3 && parts[0] == "crates" && parts[2] == "src" && parts[3] != "bin"
}

/// The identifier tokens of a masked line (numeric literals skipped).
fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c == '_' || c.is_ascii_alphanumeric()))
        .filter(|t| t.bytes().next().is_some_and(|b| !b.is_ascii_digit()))
}

/// The name a `pub fn`/`pub const`/`pub static` declaration line
/// introduces (`const`/`unsafe`/`async` fn qualifiers and `static mut`
/// included); `None` for any other line, `pub(crate)` items among them.
fn pub_item_name(trimmed: &str) -> Option<&str> {
    let mut words = trimmed
        .strip_prefix("pub ")?
        .split_whitespace()
        .filter(|w| !matches!(*w, "unsafe" | "async" | "mut"));
    let name = match words.next()? {
        "fn" | "static" => words.next()?,
        "const" => match words.next()? {
            "fn" => words.next()?,
            name => name,
        },
        _ => return None,
    };
    identifiers(name).next()
}

/// True when `line[pos..]` starts with `token` respecting the same
/// identifier-boundary guards as [`find_token`].
fn token_at(line: &str, pos: usize, token: &str) -> bool {
    let Some(rest) = line.get(pos..) else {
        return false;
    };
    if !rest.starts_with(token) {
        return false;
    }
    let bytes = line.as_bytes();
    let guard_front = token
        .as_bytes()
        .first()
        .map(|&b| is_ident_byte(b))
        .unwrap_or(false);
    let guard_back = token
        .as_bytes()
        .last()
        .map(|&b| is_ident_byte(b))
        .unwrap_or(false);
    let before_ok = !guard_front || pos == 0 || !is_ident_byte(bytes[pos - 1]);
    let end = pos + token.len();
    let after_ok = !guard_back || end >= bytes.len() || !is_ident_byte(bytes[end]);
    before_ok && after_ok
}

/// True when position `i` (just past a reducer token) is an integer
/// turbofish like `::<u64>` — exact under any summation order.
fn integer_turbofish(line: &str, mut i: usize) -> bool {
    let bytes = line.as_bytes();
    while bytes.get(i) == Some(&b' ') {
        i += 1;
    }
    if !line.get(i..).is_some_and(|s| s.starts_with("::<")) {
        return false;
    }
    i += 3;
    let start = i;
    while i < bytes.len() && is_ident_byte(bytes[i]) {
        i += 1;
    }
    matches!(
        &line[start..i],
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
    )
}

/// How a line escapes a rule, if at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Allow {
    /// No allow for this rule on the line.
    None,
    /// `// lint: allow(L3)` — bare. Sufficient for L1–L5; a violation of
    /// its own for L6–L9, which require a written reason.
    Bare,
    /// `// lint: allow(L6: <why>)` — carries a non-empty reason.
    Reasoned,
}

/// Parses the inline escape hatch for `rule` out of a raw source line.
fn allow_of(raw_line: &str, rule: &str) -> Allow {
    let Some(pos) = raw_line.find("lint: allow(") else {
        return Allow::None;
    };
    let rest = &raw_line[pos..];
    let reasoned_prefix = format!("allow({rule}:");
    if let Some(p) = rest.find(&reasoned_prefix) {
        let after = &rest[p + reasoned_prefix.len()..];
        if let Some(close) = after.find(')') {
            if !after[..close].trim().is_empty() {
                return Allow::Reasoned;
            }
        }
        // `allow(L6:)` with an empty or unterminated reason.
        return Allow::Bare;
    }
    if rest.contains(&format!("allow({rule})")) {
        return Allow::Bare;
    }
    Allow::None
}

/// Inline escape hatch for the L1–L5 rules, where a bare
/// `// lint: allow(L3)` is sufficient (reasons are encouraged as
/// trailing prose, as existing sites do).
fn has_allow(raw_line: &str, rule: &str) -> bool {
    allow_of(raw_line, rule) != Allow::None
}

/// Token search with identifier-boundary checks on both sides, so
/// `HashMap` does not match `MyHashMapLike` and `thread_rng` does not
/// match `thread_rngs`.
fn contains_token(line: &str, token: &str) -> bool {
    find_token(line, token, 0).is_some()
}

fn count_token(line: &str, token: &str) -> usize {
    let mut n = 0;
    let mut from = 0;
    while let Some(pos) = find_token(line, token, from) {
        n += 1;
        from = pos + token.len();
    }
    n
}

fn find_token(line: &str, token: &str, from: usize) -> Option<usize> {
    let bytes = line.as_bytes();
    // Boundary checks only make sense on edges that are themselves
    // identifier characters: ".unwrap()" needs neither, "HashMap" both.
    let guard_front = token
        .as_bytes()
        .first()
        .map(|&b| is_ident_byte(b))
        .unwrap_or(false);
    let guard_back = token
        .as_bytes()
        .last()
        .map(|&b| is_ident_byte(b))
        .unwrap_or(false);
    let mut start = from;
    while let Some(off) = line.get(start..).and_then(|s| s.find(token)) {
        let pos = start + off;
        let before_ok = !guard_front || pos == 0 || !is_ident_byte(bytes[pos - 1]);
        let end = pos + token.len();
        let after_ok = !guard_back || end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(pos);
        }
        start = pos + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Finds an assignment to a field named `state` (`.state =`, not `==`,
/// `>=`, `!=`, or a `state:` struct-literal field, which the type system
/// already restricts to `TrackedState` constructors).
fn find_raw_state_write(line: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = find_token(line, ".state", from) {
        let mut i = pos + ".state".len();
        while i < bytes.len() && bytes[i] == b' ' {
            i += 1;
        }
        if i < bytes.len() && bytes[i] == b'=' && bytes.get(i + 1) != Some(&b'=') {
            return Some(pos);
        }
        from = pos + 1;
    }
    None
}

/// Replaces the contents of comments, string/char literals, and raw
/// strings with spaces, preserving byte length and line structure so line
/// numbers survive. Tokens inside docs or log strings can then never
/// trigger a rule.
fn mask_source(src: &str) -> String {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut state = State::Code;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match state {
            State::Code => match b {
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    state = State::LineComment;
                    out.extend_from_slice(b"  ");
                    i += 2;
                }
                b'/' if bytes.get(i + 1) == Some(&b'*') => {
                    state = State::BlockComment(1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                }
                b'"' => {
                    state = State::Str;
                    out.push(b'"');
                    i += 1;
                }
                b'r' if is_raw_str_start(bytes, i) => {
                    let hashes = count_hashes(bytes, i + 1);
                    state = State::RawStr(hashes);
                    out.resize(out.len() + 2 + hashes as usize, b' ');
                    i += 2 + hashes as usize;
                }
                b'b' if bytes.get(i + 1) == Some(&b'"') => {
                    state = State::Str;
                    out.extend_from_slice(b" \"");
                    i += 2;
                }
                // Distinguish a char literal from a lifetime: a char
                // literal closes with `'` within a couple of chars (or
                // starts with a backslash escape).
                b'\''
                    if bytes.get(i + 1) == Some(&b'\\')
                        || (bytes.get(i + 2) == Some(&b'\'')
                            && bytes.get(i + 1) != Some(&b'\'')) =>
                {
                    state = State::Char;
                    out.push(b'\'');
                    i += 1;
                }
                _ => {
                    out.push(b);
                    i += 1;
                }
            },
            State::LineComment => {
                if b == b'\n' {
                    state = State::Code;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    out.extend_from_slice(b"  ");
                    i += 2;
                    if depth == 1 {
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    out.extend_from_slice(b"  ");
                    i += 2;
                    state = State::BlockComment(depth + 1);
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::Str => match b {
                b'\\' => {
                    out.extend_from_slice(b"  ");
                    i += 2;
                }
                b'"' => {
                    state = State::Code;
                    out.push(b'"');
                    i += 1;
                }
                b'\n' => {
                    out.push(b'\n');
                    i += 1;
                }
                _ => {
                    out.push(b' ');
                    i += 1;
                }
            },
            State::RawStr(hashes) => {
                if b == b'"' && closes_raw(bytes, i + 1, hashes) {
                    out.resize(out.len() + 1 + hashes as usize, b' ');
                    i += 1 + hashes as usize;
                    state = State::Code;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::Char => match b {
                b'\\' => {
                    out.extend_from_slice(b"  ");
                    i += 2;
                }
                b'\'' => {
                    state = State::Code;
                    out.push(b'\'');
                    i += 1;
                }
                _ => {
                    out.push(b' ');
                    i += 1;
                }
            },
        }
    }
    // Escapes at EOF can overshoot by one; clamp to input length.
    out.truncate(bytes.len());
    String::from_utf8_lossy(&out).into_owned()
}

fn is_raw_str_start(bytes: &[u8], i: usize) -> bool {
    // `r"` or `r#...#"` (also `br"` handled by the b-prefix arm falling
    // through to the plain-string arm; good enough for this tree).
    let prev_is_ident = i > 0 && is_ident_byte(bytes[i - 1]);
    if prev_is_ident {
        return false;
    }
    let mut j = i + 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

fn count_hashes(bytes: &[u8], mut i: usize) -> u32 {
    let mut n = 0;
    while bytes.get(i) == Some(&b'#') {
        n += 1;
        i += 1;
    }
    n
}

fn closes_raw(bytes: &[u8], mut i: usize, hashes: u32) -> bool {
    for _ in 0..hashes {
        if bytes.get(i) != Some(&b'#') {
            return false;
        }
        i += 1;
    }
    true
}

/// Per-line flags marking `#[cfg(test)]` regions (attribute through the
/// matching close brace of the item it gates).
fn test_region_lines(masked: &str) -> Vec<bool> {
    let n_lines = masked.lines().count();
    let mut flags = vec![false; n_lines];
    let bytes = masked.as_bytes();
    let mut search = 0;
    while let Some(off) = masked.get(search..).and_then(|s| s.find("#[cfg(test)]")) {
        let start = search + off;
        // Find the first `{` after the attribute, then its matching `}`.
        let mut depth = 0i32;
        let mut i = start;
        let mut end = bytes.len();
        while i < bytes.len() {
            match bytes[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        let start_line = masked[..start].bytes().filter(|&b| b == b'\n').count();
        let end_line = masked[..end.min(bytes.len())]
            .bytes()
            .filter(|&b| b == b'\n')
            .count();
        for flag in flags
            .iter_mut()
            .take((end_line + 1).min(n_lines))
            .skip(start_line)
        {
            *flag = true;
        }
        search = end.max(start + 1);
    }
    flags
}

/// Maps a workspace-relative path to its crate name: `crates/<name>/...`
/// or the root package for `src/`, `tests/`, `benches/`.
fn crate_of(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        _ => "mummi",
    }
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut entries: Vec<_> = entries
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("reading {}: {e}", dir.display()))?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // target/ and dot-dirs are build products.
            if name == "target" || name.starts_with('.') {
                continue;
            }
            let rel_dir = path
                .strip_prefix(root)
                .map(|r| r.to_string_lossy().replace(std::path::MAIN_SEPARATOR, "/"))
                .unwrap_or_default();
            // Vendored stand-ins for crates.io deps are not our code —
            // but ONLY at the canonical crates/vendor/ location. A
            // directory that merely happens to be named `vendor`
            // elsewhere is scanned like everything else, so real code
            // cannot hide from the pass behind a directory name.
            if rel_dir == "crates/vendor" {
                continue;
            }
            // The lint crate's own fixture corpus is scanner test *data*
            // (each subdirectory is a scratch workspace full of seeded
            // violations), not workspace code.
            if rel_dir == "crates/lint/tests/corpus" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_comments_and_strings() {
        let src = "let a = \"Instant::now\"; // SystemTime::now\nlet b = 1;";
        let m = mask_source(src);
        assert!(!m.contains("Instant::now"));
        assert!(!m.contains("SystemTime::now"));
        assert_eq!(m.lines().count(), src.lines().count());
        assert!(m.contains("let b = 1;"));
    }

    #[test]
    fn masking_handles_raw_strings_and_chars() {
        let src = "let r = r#\"HashMap here\"#; let c = 'x'; let lt: &'static str = \"y\";";
        let m = mask_source(src);
        assert!(!m.contains("HashMap"));
        assert!(m.contains("'static"));
    }

    #[test]
    fn token_boundaries_are_respected() {
        assert!(contains_token("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_token("struct MyHashMapLike;", "HashMap"));
        assert!(!contains_token("let thread_rngs = 3;", "thread_rng"));
        assert_eq!(count_token("a.unwrap().unwrap()", ".unwrap()"), 2);
    }

    #[test]
    fn raw_state_write_detection() {
        assert!(find_raw_state_write("rec.state = JobState::Queued;").is_some());
        assert!(find_raw_state_write("if rec.state == JobState::Queued {").is_none());
        assert!(find_raw_state_write("rec.state.advance_to(JobState::Queued);").is_none());
        assert!(find_raw_state_write("state: TrackedState::submitted(),").is_none());
    }

    #[test]
    fn test_regions_cover_cfg_test_mods() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let flags = test_region_lines(src);
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn config_parses_sections_and_ratchet_types() {
        let cfg = Config::parse(
            "# comment\n[l1_exempt]\n\"crates/bench/src/bin/x.rs\" = \"measures real time\"\n\
             [l4_allow]\n\"crates/sched/src/engine.rs\" = 3\n\
             [l8_parallel]\n\"crates/farm/src/farm.rs\" = \"thread shell\"\n\
             [pub_unreached]\n\"crates/storeserver/src/wal.rs::crc32\" = \"journal reuse\"\n",
        )
        .unwrap();
        assert_eq!(
            cfg.l1_exempt.get("crates/bench/src/bin/x.rs").unwrap(),
            "measures real time"
        );
        assert_eq!(cfg.l4_allow["crates/sched/src/engine.rs"], 3);
        assert_eq!(cfg.l8_parallel["crates/farm/src/farm.rs"], "thread shell");
        assert_eq!(
            cfg.pub_unreached["crates/storeserver/src/wal.rs::crc32"],
            "journal reuse"
        );
        assert!(Config::parse("[bogus]\n").is_err());
    }

    #[test]
    fn config_reason_tables_reject_empty_reasons() {
        // Every reasoned table, not just [l8_parallel]: an entry without a
        // reason is a config error, not a silent empty string.
        for section in ["l1_exempt", "l8_parallel", "pub_unreached"] {
            for reason in ["\"\"", "\"  \""] {
                let text = format!("[{section}]\n\"crates/x/src/lib.rs\" = {reason}\n");
                let err = Config::parse(&text).expect_err(&text);
                assert!(err.contains("written reason"), "{err}");
            }
        }
    }

    #[test]
    fn config_rejects_duplicate_entries() {
        // A repeated key would silently replace the earlier entry.
        for (section, a, b) in [
            ("l1_exempt", "\"one\"", "\"two\""),
            ("l4_allow", "1", "2"),
            ("l8_parallel", "\"one\"", "\"two\""),
            ("pub_unreached", "\"one\"", "\"two\""),
        ] {
            let text = format!("[{section}]\n\"k\" = {a}\n\"k\" = {b}\n");
            let err = Config::parse(&text).expect_err(&text);
            assert_eq!(err, "lint.toml:3: duplicate entry k");
        }
    }

    #[test]
    fn pub_item_names() {
        assert_eq!(pub_item_name("pub fn run(x: u8) {"), Some("run"));
        assert_eq!(
            pub_item_name("pub const fn len(&self) -> usize {"),
            Some("len")
        );
        assert_eq!(pub_item_name("pub unsafe fn raw<T>() {"), Some("raw"));
        assert_eq!(pub_item_name("pub const LIMIT: u32 = 3;"), Some("LIMIT"));
        assert_eq!(pub_item_name("pub static mut HITS: u64 = 0;"), Some("HITS"));
        assert_eq!(pub_item_name("pub(crate) fn inner() {}"), None);
        assert_eq!(pub_item_name("pub struct S;"), None);
        assert_eq!(pub_item_name("pub use a::b;"), None);
    }

    #[test]
    fn allow_parsing_distinguishes_bare_and_reasoned() {
        assert_eq!(allow_of("let x = 1;", "L6"), Allow::None);
        assert_eq!(allow_of("m.lock(); // lint: allow(L6)", "L6"), Allow::Bare);
        assert_eq!(
            allow_of("m.lock(); // lint: allow(L6: leaf lock, no ordering)", "L6"),
            Allow::Reasoned
        );
        // Empty reason is bare; a different rule's allow does not match.
        assert_eq!(allow_of("x; // lint: allow(L6:)", "L6"), Allow::Bare);
        assert_eq!(allow_of("x; // lint: allow(L6: why)", "L8"), Allow::None);
        // The legacy L1-L5 style keeps working through has_allow.
        assert!(has_allow("x; // lint: allow(L3) key access only", "L3"));
    }

    #[test]
    fn token_at_and_integer_turbofish() {
        assert!(token_at("v.par_iter().sum()", 2, "par_iter"));
        assert!(!token_at("v.par_iter_mut()", 2, "par_iter"));
        assert!(token_at("x.sum::<u64>()", 1, ".sum"));
        assert!(!token_at("x.summary()", 1, ".sum"));
        assert!(integer_turbofish("x.sum::<u64>()", 5));
        assert!(integer_turbofish("x.sum ::<usize>()", 5));
        assert!(!integer_turbofish("x.sum::<f64>()", 5));
        assert!(!integer_turbofish("x.sum()", 5));
    }

    #[test]
    fn github_annotation_escaping() {
        let v = Violation {
            rule: "L6",
            file: "crates/a,b/src/lib.rs".to_string(),
            line: 3,
            message: "50% broken\nsecond line".to_string(),
        };
        assert_eq!(
            v.to_github(),
            "::error file=crates/a%2Cb/src/lib.rs,line=3,title=mummi-lint L6::50%25 broken%0Asecond line"
        );
    }

    #[test]
    fn crate_attribution() {
        assert_eq!(crate_of("crates/sched/src/engine.rs"), "sched");
        assert_eq!(crate_of("src/lib.rs"), "mummi");
        assert_eq!(crate_of("tests/property_tests.rs"), "mummi");
    }

    #[test]
    fn json_escaping() {
        let v = Violation {
            rule: "L1",
            file: "a\"b.rs".to_string(),
            line: 7,
            message: "line\nbreak".to_string(),
        };
        assert_eq!(
            v.to_json(),
            "{\"rule\":\"L1\",\"file\":\"a\\\"b.rs\",\"line\":7,\"message\":\"line\\nbreak\"}"
        );
    }
}
