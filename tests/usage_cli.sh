#!/usr/bin/env bash
# ascoma usage contract: a bad or unknown flag is a usage error (an
# "error:" line and exit 2) caught before any simulation runs.  The jitter
# bound is capped at 2^20 cycles (MachineConfig::kMaxJitterCycles).
#
# Usage: usage_cli.sh <ascoma-binary>
set -uo pipefail

bin="$1"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() { echo "usage_cli: $*" >&2; exit 1; }

usage_error() {
  "$bin" "$@" > /dev/null 2> "$tmp/err"
  status=$?
  [ "$status" -eq 2 ] || fail "$*: exit $status, want 2"
  grep -q '^error: ' "$tmp/err" || fail "$*: no 'error:' line on stderr"
}

usage_error --threshold abc
usage_error --sample-every 0
usage_error --scale nan
usage_error --pressure nan
usage_error --arch all --events "$tmp/e.jsonl"
usage_error --pressure 10,20 --metrics "$tmp/m.csv"
usage_error --fault-jitter 1.5
usage_error --fault-jitter-cycles 0
usage_error --fault-jitter-cycles 1048577
usage_error --fault-jitter 1 --fault-jitter-cycles 18446744073709551615
usage_error --no-such-flag
grep -q '^error: unknown option: --no-such-flag$' "$tmp/err" ||
  fail "--no-such-flag: not reported as an unknown option"
echo "usage_cli: ok"
