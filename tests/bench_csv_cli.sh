#!/usr/bin/env bash
# ASCOMA_BENCH_CSV export contract of the bench binaries: a writable path
# gets the CSV (exit 0); a path that cannot be opened prints
# "cannot write bench CSV file: <path>" and exits 1.
#
# Usage: bench_csv_cli.sh <bench-binary>
set -uo pipefail

bin="$1"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() { echo "bench_csv_cli: $*" >&2; exit 1; }

ASCOMA_BENCH_SCALE=0.05 ASCOMA_BENCH_CSV="$tmp/ok.csv" "$bin" > /dev/null
status=$?
[ "$status" -eq 0 ] || fail "writable path: exit $status, want 0"
head -n 1 "$tmp/ok.csv" | grep -q '^workload,' ||
  fail "writable path: no CSV header in $tmp/ok.csv"

bad="$tmp/no_such_dir/x.csv"
ASCOMA_BENCH_SCALE=0.05 ASCOMA_BENCH_CSV="$bad" "$bin" > /dev/null \
  2> "$tmp/err"
status=$?
[ "$status" -eq 1 ] || fail "unwritable path: exit $status, want 1"
grep -qF "cannot write bench CSV file: $bad" "$tmp/err" ||
  fail "unwritable path: no 'cannot write' message on stderr"
echo "bench_csv_cli: ok"
