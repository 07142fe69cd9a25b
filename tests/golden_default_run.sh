#!/usr/bin/env bash
# Bit-identity regression gate: the default deterministic run must produce a
# CSV byte-identical to the committed baseline.  Any change to simulated
# behaviour — protocol, timing, policy — shows up here; refresh the baseline
# (and justify the diff in the PR) only when behaviour is *supposed* to move.
#
# Usage: golden_default_run.sh <ascoma-binary> <baseline-csv>
set -euo pipefail

bin="$1"
baseline="$2"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$bin" --workload em3d --arch all --pressure 30,70 --scale 0.1 \
  --seed 42 --threads 1 --csv "$tmp/run.csv" > /dev/null

# AS-COMA rows where the pageout daemon's verdict drives the back-off, so a
# change to the thrash signal or the back-off shows up here too.
for wp in barnes:70 radix:90 lu:90; do
  "$bin" --workload "${wp%%:*}" --arch ascoma --pressure "${wp##*:}" \
    --scale 0.25 --seed 42 --threads 1 --csv "$tmp/${wp%%:*}.csv" > /dev/null
  tail -n +2 "$tmp/${wp%%:*}.csv" >> "$tmp/run.csv"
done

# The other two branches of every timing step: store-buffer drains (the
# background path) and jittered message delivery.
"$bin" --workload radix --arch ascoma --pressure 70 --scale 0.1 \
  --store-buffer 8 --seed 42 --threads 1 --csv "$tmp/sb.csv" > /dev/null
tail -n +2 "$tmp/sb.csv" >> "$tmp/run.csv"
"$bin" --workload barnes --arch ascoma --pressure 70 --scale 0.25 \
  --fault-jitter 0.5 --fault-jitter-cycles 4 --fault-seed 1 \
  --seed 42 --threads 1 --csv "$tmp/jitter.csv" > /dev/null
tail -n +2 "$tmp/jitter.csv" >> "$tmp/run.csv"

if ! diff -u "$baseline" "$tmp/run.csv"; then
  echo "golden_default_run: output diverged from $baseline" >&2
  exit 1
fi
echo "golden_default_run: bit-identical to $(basename "$baseline")"
