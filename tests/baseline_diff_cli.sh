#!/usr/bin/env bash
# Exit-code contract of ascoma_baseline_diff, the gate CI runs against the
# committed baselines: 0 = no regression, 1 = regression, 2 = usage error or
# missing, unreadable or malformed inputs.
#
# Usage: baseline_diff_cli.sh <ascoma_baseline_diff-binary> <baselines-dir>
set -euo pipefail

bin="$1"
baselines="$2"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

failures=0
expect() {
  local want="$1" what="$2"
  shift 2
  local got=0
  "$bin" "$@" > "$tmp/out.txt" 2>&1 || got=$?
  if [[ "$got" != "$want" ]]; then
    echo "FAIL: $what: exit $got, want $want" >&2
    cat "$tmp/out.txt" >&2
    failures=$((failures + 1))
  else
    echo "ok: $what (exit $got)"
  fi
}

prof="$baselines/prof_smoke"

# One seeded p99 regression: the headline row's p99 doubles.
cp -r "$prof" "$tmp/prof_p99"
awk -F, -v OFS=, '$1 == "all" && $2 == "total" { $8 = $8 * 2 } { print }' \
  "$prof/latency.csv" > "$tmp/prof_p99/latency.csv"

# A negative count is malformed, not zero.
cp -r "$prof" "$tmp/prof_negative"
awk -F, -v OFS=, '$1 == "all" && $2 == "total" { $3 = -$3 } { print }' \
  "$prof/latency.csv" > "$tmp/prof_negative/latency.csv"

expect 0 "profile baseline against itself" "$prof" "$prof"
expect 1 "seeded p99 regression" "$prof" "$tmp/prof_p99"
expect 2 "negative count in the candidate" "$prof" "$tmp/prof_negative"
expect 2 "missing candidate directory" "$prof" "$tmp/nope"
expect 2 "file where a directory is expected" "$prof" "$prof/latency.csv"
expect 2 "unknown option" --rate-tol 0.5 "$prof" "$prof"

if (( failures > 0 )); then
  echo "baseline_diff_cli: $failures case(s) failed" >&2
  exit 1
fi
echo "baseline_diff_cli: all cases passed"
