#!/usr/bin/env bash
# A run that fails still leaves its event exports: a trace that releases a
# lock it never acquired fails its run (exit 1), and the
# --events/--perfetto/--metrics files hold the trace up to the failure (the
# last event written to the JSONL is in the Perfetto trace too).
# An export that fails is no silent success either: a --csv file that
# cannot be written (/dev/full) exits 1 and names the file.
#
# Usage: crash_export_cli.sh <ascoma-binary>
set -euo pipefail

bin="$1"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# A synthetic trace in the src/trace/trace.hh format: 2 nodes load every
# line of the 8 shared pages, then node 0 releases lock 0, which nobody
# holds.
python3 - "$tmp/t.trace" <<'PY'
import struct, sys
nodes, pages, page, line = 2, 8, 4096, 32
LOAD, UNLOCK = 2, 6
with open(sys.argv[1], "wb") as f:
    f.write(b"ASCT" + struct.pack("<IIQII", 1, nodes, pages, page, line))
    for p in range(nodes):
        ops = [struct.pack("<BQ", LOAD, a) for a in range(0, pages * page, line)]
        if p == 0:
            ops.append(struct.pack("<BQ", UNLOCK, 0))
        f.write(struct.pack("<IQ", p, len(ops)))
        f.write(b"".join(ops))
PY

got=0
"$bin" --trace "$tmp/t.trace" --arch ascoma --pressure 50 \
  --events "$tmp/E" --perfetto "$tmp/P" --metrics "$tmp/M" \
  --sample-every 10000 > "$tmp/out.txt" 2>&1 || got=$?

status=0
fail() {
  echo "crash_export_cli: $1" >&2
  status=1
}
[[ "$got" == 1 ]] || fail "exit $got, want 1"
grep -q 'release of unknown lock' "$tmp/out.txt" ||
  fail "no 'release of unknown lock' failure message"
last="$(tail -n 1 "$tmp/E" 2>/dev/null || true)"
kind="$(sed -n 's/.*"kind":"\([a-z_]*\)".*/\1/p' <<< "$last")"
cycle="$(sed -n 's/^{"cycle":\([0-9]*\),.*/\1/p' <<< "$last")"
[[ -n "$kind" && -n "$cycle" ]] || fail "no event row in the events JSONL"
grep -q "\"name\":\"$kind\",\"ph\":\"i\",\"s\":\"t\",\"ts\":$cycle," \
  "$tmp/P" 2>/dev/null ||
  fail "last JSONL event ($kind at $cycle) missing from the Perfetto trace"
[[ "$(wc -l < "$tmp/M" 2>/dev/null || echo 0)" -gt 1 ]] ||
  fail "metrics CSV missing or holds no sample"

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
