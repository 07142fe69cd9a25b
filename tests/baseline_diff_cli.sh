#!/usr/bin/env bash
# Exit-code contract of ascoma_baseline_diff, the gate CI runs against the
# committed baselines: 0 = no regression, 1 = regression, 2 = usage error or
# unreadable, malformed or mixed-kind inputs.
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
speed="$baselines/BENCH_simspeed.json"
ci_speed_flags=(--rate-tol 0.5 --rss-tol 0.5 --allocs-tol 0.25 --min-wall-ms 20)

# One seeded p99 regression: the headline row's p99 doubles.
cp -r "$prof" "$tmp/prof_p99"
awk -F, -v OFS=, '$1 == "all" && $2 == "total" { $8 = $8 * 2 } { print }' \
  "$prof/latency.csv" > "$tmp/prof_p99/latency.csv"

# One seeded sim-rate drop: the first row's wall time becomes 900 s.
sed 's/"wall_ns":[0-9]*/"wall_ns":900000000000/' "$speed" > "$tmp/slow.json"
# A negative counter is malformed, not zero.
sed 's/"wall_ns":[0-9]*/"wall_ns":-900000000/' "$speed" > "$tmp/negative.json"
head -c 200 "$speed" > "$tmp/truncated.json"

expect 0 "profile baseline against itself" "$prof" "$prof"
expect 0 "simspeed baseline against itself" "$speed" "$speed"
expect 0 "simspeed baseline against itself, CI tolerances" \
  "${ci_speed_flags[@]}" "$speed" "$speed"
expect 1 "seeded p99 regression" "$prof" "$tmp/prof_p99"
expect 1 "seeded sim-rate drop" "${ci_speed_flags[@]}" "$speed" "$tmp/slow.json"
expect 2 "truncated JSON" "$speed" "$tmp/truncated.json"
expect 2 "negative wall_ns in the baseline" "$tmp/negative.json" "$tmp/slow.json"
expect 2 "directory against a file" "$prof" "$speed"
expect 2 "--p99-tol on simspeed input" --p99-tol 0.1 "$speed" "$speed"
expect 2 "--rate-tol on profile input" --rate-tol 0.5 "$prof" "$prof"

if (( failures > 0 )); then
  echo "baseline_diff_cli: $failures case(s) failed" >&2
  exit 1
fi
echo "baseline_diff_cli: all cases passed"
