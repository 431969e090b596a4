//! Fixture-corpus tests: every subdirectory of `tests/corpus/` is a
//! scratch workspace root seeded with violations (and with escapes that
//! must NOT fire). An `EXPECT` file beside each fixture lists the exact
//! `RULE file line` triples the scanner must produce — no more, no less.
//!
//! The corpus directory is excluded from the real workspace scan (see
//! `collect_rs_files`), so these files never show up in `cargo run -p
//! lint` output; they are scanner test *data*, not workspace code, and
//! they are never compiled.

use std::path::Path;

use lint::lint_workspace;

/// Parses an `EXPECT` file: one `RULE path line` triple per line;
/// `#` comments and blank lines are ignored.
fn parse_expect(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(
            fields.len(),
            3,
            "EXPECT line {} must be `RULE path line`, got {line:?}",
            i + 1
        );
        fields[2]
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("EXPECT line {}: bad line number {:?}", i + 1, fields[2]));
        out.push(format!("{} {} {}", fields[0], fields[1], fields[2]));
    }
    out.sort();
    out
}

/// Runs one fixture and diffs its violations against `EXPECT`.
fn run_case(case_dir: &Path) {
    let case = case_dir.file_name().unwrap().to_string_lossy().to_string();
    let expect_path = case_dir.join("EXPECT");
    let expect_text = std::fs::read_to_string(&expect_path)
        .unwrap_or_else(|e| panic!("corpus case {case}: reading EXPECT: {e}"));
    let expected = parse_expect(&expect_text);

    let violations =
        lint_workspace(case_dir).unwrap_or_else(|e| panic!("corpus case {case}: lint failed: {e}"));
    let mut got: Vec<String> = violations
        .iter()
        .map(|v| format!("{} {} {}", v.rule, v.file, v.line))
        .collect();
    got.sort();

    if got != expected {
        let missing: Vec<&String> = expected.iter().filter(|e| !got.contains(e)).collect();
        let surprise: Vec<&String> = got.iter().filter(|g| !expected.contains(g)).collect();
        let detail: Vec<String> = violations.iter().map(|v| format!("  {v}")).collect();
        panic!(
            "corpus case {case} mismatch\n  missing (in EXPECT, not reported): {missing:?}\n  \
             unexpected (reported, not in EXPECT): {surprise:?}\nfull report:\n{}",
            detail.join("\n")
        );
    }
}

/// Every fixture directory runs; a new fixture is picked up with no
/// harness change. The corpus must be non-empty — an empty glob would
/// silently pass.
#[test]
fn corpus_fixtures_match_expectations() {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut cases: Vec<_> = std::fs::read_dir(&corpus)
        .expect("tests/corpus exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    cases.sort();
    assert!(
        cases.len() >= 8,
        "corpus has {} cases; the L1/L2/L6/L7/L8/L9/L10/vendor fixtures are required",
        cases.len()
    );
    for case in cases {
        run_case(&case);
    }
}
