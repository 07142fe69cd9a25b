#!/usr/bin/env bash
# ascoma_policycheck exit-code contract: a bad flag value is a usage error
# (an "error:" line and exit 2, never an abort), the default configuration
# passes (exit 0), and a known-bad mutation is caught (exit 1).
#
# Usage: policycheck_cli.sh <ascoma_policycheck-binary>
set -uo pipefail

bin="$1"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() { echo "policycheck_cli: $*" >&2; exit 1; }

usage_error() {
  "$bin" "$@" > /dev/null 2> "$tmp/err"
  status=$?
  [ "$status" -eq 2 ] || fail "$*: exit $status, want 2"
  grep -q '^error: ' "$tmp/err" || fail "$*: no 'error:' line on stderr"
}

usage_error --nodes 9
usage_error --nodes abc
usage_error --nodes -1
usage_error --pages 0
usage_error --max-states -5
usage_error --touches 256   # the budget is one byte of the state encoding

"$bin" --quiet > /dev/null
status=$?
[ "$status" -eq 0 ] || fail "default config: exit $status, want 0"

"$bin" --quiet --mutation upgrade-while-disabled > /dev/null
status=$?
[ "$status" -eq 1 ] || fail "upgrade-while-disabled: exit $status, want 1"
echo "policycheck_cli: ok"
