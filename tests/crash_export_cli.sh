#!/usr/bin/env bash
# A run that fails still leaves its event exports: a watchdog trip under
# heavy message loss exits 1, and the --events/--perfetto/--metrics files
# hold the trace up to the trip (the last event is the watchdog_trip).
# An export that fails is no silent success either: a --csv file that
# cannot be written (/dev/full) exits 1 and names the file.
#
# Usage: crash_export_cli.sh <ascoma-binary>
set -euo pipefail

bin="$1"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

got=0
"$bin" --workload em3d --arch ascoma --pressure 50 --scale 0.1 \
  --fault-drop 0.3 --watchdog-cycles 2000 \
  --events "$tmp/E" --perfetto "$tmp/P" --metrics "$tmp/M" \
  > "$tmp/out.txt" 2>&1 || got=$?

status=0
fail() {
  echo "crash_export_cli: $1" >&2
  status=1
}
[[ "$got" == 1 ]] || fail "exit $got, want 1"
grep -q '"kind":"watchdog_trip"' "$tmp/E" 2>/dev/null ||
  fail "no watchdog_trip row in the events JSONL"
grep -q '"name":"watchdog_trip"' "$tmp/P" 2>/dev/null ||
  fail "no watchdog_trip event in the Perfetto trace"
[[ -s "$tmp/M" ]] || fail "metrics CSV missing or empty"

got=0
"$bin" --workload em3d --pressure 50 --scale 0.05 --csv /dev/full \
  >> "$tmp/out.txt" 2> "$tmp/csv.err" || got=$?
[[ "$got" == 1 ]] || fail "--csv /dev/full: exit $got, want 1"
grep -qx 'cannot write CSV file: /dev/full' "$tmp/csv.err" ||
  fail "--csv /dev/full: no 'cannot write CSV file' message"
cat "$tmp/csv.err" >> "$tmp/out.txt"
if [[ "$status" -ne 0 ]]; then
  cat "$tmp/out.txt" >&2
  exit 1
fi
echo "crash_export_cli: failed run left its trace; CSV write failure exits 1"
