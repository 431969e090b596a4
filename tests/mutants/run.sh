#!/usr/bin/env bash
# Kill matrix: which suite kills which hand-written coordination bug.
#
#   bash tests/mutants/run.sh REV...        # e.g. HEAD~1 HEAD; writes MUTANTS.md
#
# For every commit it unpacks a scratch copy (`git archive`, own target
# dir) and applies each tests/mutants/*.patch alone. Per mutant, in
# release, it runs tier-1 (`cargo test`) and then `churn_pins
# --include-ignored`, stopping at the first failing suite, and each
# oracle property below on its own ("absent" if the commit lacks it).
# A command that outlives 240 s is a kill ("hang"); a patch that needs
# fuzz "does not apply". Rows are cached in $MUTANTS_SCRATCH/<sha>.rows
# (delete to rerun); MUTANTS.md keeps all from its "## Notes" line on.
# On demand only (minutes per mutant); not a CI gate.
set -euo pipefail
root=$(git rev-parse --show-toplevel)
scratch=${MUTANTS_SCRATCH:-$root/target/mutants}
limit=240
# The legacy FCFS property's last commit is 3dc6bba; kept to rebuild MUTANTS.md.
oracles=("policy_props fcfs_matches_the_legacy_monolith" "alloc_props indexed_matches_linear_oracle")
patches=("$root"/tests/mutants/*.patch)

run() {  # LOG CMD... -> pass | kill | hang
  local log=$1; shift
  if timeout "$limit" "$@" >"$log" 2>&1; then echo pass
  elif [ $? -eq 124 ]; then echo hang; else echo kill; fi
}

suite() {  # the failing (or hung) suite named in cargo's output
  local s
  s=$(grep -o 'to rerun pass `[^`]*`' "$1" | tail -1 | sed 's/.*`\(.*\)`/\1/' || true)
  [ -n "$s" ] || s=$(grep 'Running ' "$1" | tail -1 | sed 's/.*deps\/\(.*\)-[0-9a-f]*)/\1/' || true)
  echo "$s"
}

skip() { local r="| $1 |" o; for o in "${oracles[@]}"; do r="$r - |"; done; echo "$r"; }

cells() {  # one mutant at the current directory's commit -> "| first kill | oracle... |"
  local p=$1 log=$scratch/log.txt row st o
  patch --dry-run -p1 -s -F0 <"$p" >/dev/null || { skip "does not apply"; return; }
  patch -p1 -s -F0 --no-backup-if-mismatch <"$p" >/dev/null
  if ! cargo test --release --no-run >"$log" 2>&1; then row=$(skip "build error")
  else
    st=$(run "$log" cargo test --release)
    [ "$st" = pass ] && st=$(run "$log" cargo test --release -p sched --test churn_pins -- --include-ignored)
    if [ "$st" = pass ]; then row="| **survives** |"; else row="| \`$(suite "$log")\` ($st) |"; fi
    for o in "${oracles[@]}"; do
      set -- $o
      if grep -q "fn $2(" "crates/sched/tests/$1.rs"; then
        st=$(run "$log" cargo test --release -p sched --test "$1" -- "$2")
      else st=absent; fi
      row="$row $st |"
    done
  fi
  patch -R -p1 -s -F0 --no-backup-if-mismatch <"$p" >/dev/null
  echo "$row"
}

mkdir -p "$scratch"
head="| mutant |"; rule="|---|"
declare -A rows
for rev in "$@"; do
  sha=$(git -C "$root" rev-parse --short "$rev")
  if [ ! -s "$scratch/$sha.rows" ]; then
    dir=$scratch/$sha; rm -rf "${dir:?}" "$dir.rows.tmp"; mkdir -p "$dir"
    git -C "$root" archive "$sha" | tar -x -C "$dir"; cd "$dir"
    [ "$(run "$scratch/log.txt" cargo test --release)" = pass ] || { echo "$sha fails unmutated" >&2; exit 1; }
    for p in "${patches[@]}"; do
      echo "$sha $(basename "$p")" >&2
      echo "$(basename "$p" .patch)$(cells "$p")" >>"$dir.rows.tmp"
    done
    mv "$dir.rows.tmp" "$dir.rows"; cd "$root"
  fi
  head="$head $sha: first kill |"; rule="$rule---|"
  for o in "${oracles[@]}"; do head="$head $sha: \`${o#* }\` |"; rule="$rule---|"; done
  while IFS= read -r line; do rows[${line%%|*}]="${rows[${line%%|*}]:-}${line#*|}"; done <"$scratch/$sha.rows"
done

notes=$(sed -n '/^## Notes/,$p' "$root/MUTANTS.md" 2>/dev/null || true)
{
  echo "# Kill matrix"; echo
  echo "Generated by \`bash tests/mutants/run.sh $*\` (release, $limit s timeout). \"first kill\""
  echo "is the first failing tier-1 suite, then \`churn_pins --include-ignored\`; each oracle"
  echo "column says whether that property alone kills the mutant."; echo
  echo "$head"; echo "$rule"
  for p in "${patches[@]}"; do n=$(basename "$p" .patch); echo "| \`$n\` |${rows[$n]:-}"; done
  [ -z "$notes" ] || { echo; echo "$notes"; }
} >"$root/MUTANTS.md"
