#!/usr/bin/env bash
# Graceful SIGINT on an in-process (--trace) grid: the CLI stops when its
# current run ends, reports how many runs finished, and exits
# 128+SIGINT = 130 instead of printing the whole table.
#
# Usage: interrupt_cli.sh <ascoma-binary>
set -euo pipefail

bin="$1"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# A synthetic trace in the src/trace/trace.hh format: 4 nodes sweep all 64
# shared pages 80 times, each node storing to its own eighth of the lines.
# Each of the grid's 21 runs takes a few hundred ms, so the uninterrupted
# grid runs for seconds.
python3 - "$tmp/t.trace" <<'PY'
import struct, sys
nodes, pages, page, line, sweeps = 4, 64, 4096, 32, 80
LOAD, STORE = 2, 3
with open(sys.argv[1], "wb") as f:
    f.write(b"ASCT" + struct.pack("<IIQII", 1, nodes, pages, page, line))
    for p in range(nodes):
        sweep = b"".join(
            struct.pack("<BQ", STORE if (a // line) % 8 == p else LOAD, a)
            for a in range(0, pages * page, line))
        f.write(struct.pack("<IQ", p, pages * page // line * sweeps))
        f.write(sweep * sweeps)
PY

"$bin" --trace "$tmp/t.trace" --arch all --pressure 10,30,50,70,90 \
  > "$tmp/out.txt" 2> "$tmp/err.txt" &
pid=$!
sleep 0.5
kill -INT "$pid"
got=0
wait "$pid" || got=$?

status=0
fail() {
  echo "interrupt_cli: $1" >&2
  status=1
}
[[ "$got" == 130 ]] || fail "exit $got, want 130"
grep -Eq '^interrupted: [0-9]+/21 runs finished$' "$tmp/err.txt" ||
  fail "no 'interrupted: K/21 runs finished' line on stderr"
if [[ "$status" -ne 0 ]]; then
  cat "$tmp/err.txt" >&2
  exit 1
fi
echo "interrupt_cli: SIGINT stopped the grid with exit 130"
