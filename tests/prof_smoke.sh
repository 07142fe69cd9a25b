#!/usr/bin/env bash
# Profile-dump regression gate: the smoke workload's --profile dump must be
# byte-identical to the committed baseline, all five files.  Attribution,
# the heat fold and the dump format all show up here; refresh the baseline
# (and justify the diff) only when one of them is *supposed* to move.
#
# Usage: prof_smoke.sh <ascoma-binary> <baseline-dir>
set -euo pipefail

bin="$1"
baseline="$2"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$bin" --workload em3d --arch ascoma --pressure 80 --scale 0.1 \
  --profile "$tmp/prof" > /dev/null

status=0
for f in latency.csv latency.json heat.csv heat.json summary.json; do
  if ! cmp "$baseline/$f" "$tmp/prof/$f"; then
    echo "prof_smoke: $f diverged from $baseline/$f" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "prof_smoke: byte-identical to $baseline"
exit "$status"
