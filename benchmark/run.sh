#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   benchmark/run.sh                      every workload, both passes: every
#                                         metric by name with its unit;
#                                         non-zero exit on a failed check
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         one run of one workload; the last
#                                         line of stdout is its JSON result
#   benchmark/run.sh aa --sets 2          the A/A check
#
# Run from anywhere; scratch files go to benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
[ -f "$here/../Cargo.toml" ] && [ -d "$here/../crates" ] || {
    echo "benchmark/run.sh: the repository's crates are not beside benchmark/; nothing to measure" >&2
    exit 3
}
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
[ $# -gt 0 ] || set -- run --all
exec "$target/release/mummi-benchmark" "$@" --out-dir "$here/out"
