#!/usr/bin/env bash
# CLI checkpoint gate: a run with --checkpoint-every must write its snapshot
# to the --checkpoint-file path (a path longer than any small-string buffer),
# and a --restore of that file must print the same table as the direct run.
#
# Usage: checkpoint_cli.sh <ascoma-binary>
set -euo pipefail

bin="$1"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
ckpt="$tmp/a_checkpoint_file_with_a_long_name.ckpt"
args=(--workload fft --arch ascoma --pressure 70 --scale 0.2)

"$bin" "${args[@]}" --checkpoint-every 500000 --checkpoint-file "$ckpt" \
  > "$tmp/direct.txt" 2> "$tmp/direct.err"
if [[ ! -s "$ckpt" ]]; then
  echo "checkpoint_cli: no checkpoint at $ckpt" >&2
  cat "$tmp/direct.err" >&2
  exit 1
fi
"$bin" "${args[@]}" --restore "$ckpt" > "$tmp/restored.txt"
if ! diff -u "$tmp/direct.txt" "$tmp/restored.txt"; then
  echo "checkpoint_cli: restored run's table differs from the direct run" >&2
  exit 1
fi
echo "checkpoint_cli: restored table identical"
