#!/usr/bin/env python3
"""Dimensional-safety lints for the strong type system (ARCHITECTURE.md §13).

Enforces, over src/ (CI runs this on every push):

1. No new bare-integer parameters for dimensioned quantities: a function
   parameter of raw integer type whose name says it is a cycle count, page,
   frame, node, address, or byte span (``*_cycle(s)``, ``*_page``,
   ``*_frame``, ``*_node``, ``*_addr``, ``*_bytes`` and the bare words)
   must use the matching strong type from src/common/types.hh instead.
   src/common/ itself is exempt — it defines the types and the raw-rep
   plumbing.  Names containing ``_per_`` are dimensionless ratios and names
   ending in a plural count (``nodes``, ``pages``…) are sizes, not ids; both
   are allowed.

2. No static_cast escapes from strong types outside the whitelisted boundary
   files: ``static_cast<double>(x.value())`` and friends are the sanctioned
   way to enter floating-point ratio math, but only inside the files listed
   in CAST_BOUNDARY_FILES (exporters, ratio/utilization math, the kernel's
   geometric period scaling).  Anywhere else, casting a strong type's raw
   value is a smell: use the named conversions.

3. Encode/decode pairing (ARCHITECTURE.md §15): every serialization function
   taking a ``store::Encoder&`` must have its decode twin — same name with
   ``encode`` -> ``decode``, taking a ``store::Decoder&`` — declared or
   defined within ENCODE_DECODE_MAX_GAP lines *after* it in the same file,
   and vice versa.  Textual adjacency is what makes a reviewer see both
   sides of a field change; the codec's section length check catches the
   drift at runtime, this rule catches it at review time.

The front end is textual (regex), so it runs on a tree that has never been
compiled.  The finding set is a zero baseline — any new finding fails.

Usage: tools/lint_types.py [repo-root]     (exit 0 clean, 1 findings,
       tools/lint_types.py --self-test      2 usage/internal error)
"""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from lint_common import iter_sources, repo_root, strip_comments

# Parameter-name suffixes that imply a dimension, and the strong type the
# parameter should use instead.  Extend this table together with types.hh
# when adding a new dimension.
DIMENSIONS = {
    "cycle": "Cycle",
    "cycles": "Cycle",
    "page": "PageId",
    "frame": "FrameId",
    "node": "NodeId",
    "addr": "Addr (or LineAddr)",
    "bytes": "ByteCount",
    "ns": "HostNs",
}

# Raw integer spellings that count as "bare" for rule 1.
INT_TYPE_RE = re.compile(
    r"(?:const\s+)?(?:std::)?(?:u?int(?:8|16|32|64)_t|size_t|unsigned(?:\s+int)?)\s*$"
)

# Sanctioned numeric-boundary files for rule 2: double-precision ratio and
# scaling math plus the machine-readable exporters.  Keep this list short —
# a new entry needs a reason of the same kind.
CAST_BOUNDARY_FILES = {
    "src/arch/backoff_kernel.hh",  # geometric daemon-period scaling
    "src/mem/bus.cc",              # utilization ratio
    "src/common/stats.cc",         # time-bucket / miss-fraction ratios
    "src/common/types.hh",         # IdVector's size_t bridge
    "src/mem/cache.hh",            # set-index bit math on line numbers
    "src/mem/rac.hh",              # set-index bit math on block numbers
    "src/prof/profiler.cc",        # perf-baseline JSON exporter
    "src/report/report.cc",        # CSV/latency-table exporter
    "src/trace/trace.cc",          # fixed-width binary trace header I/O
    "src/core/sweep.cc",           # per-job sim-rate / ETA / median math
}

CAST_ESCAPE_RE = re.compile(
    r"static_cast<\s*(?:const\s+)?(?:std::)?"
    r"(?:u?int(?:8|16|32|64)_t|size_t|double|float|unsigned(?:\s+int)?|int|long)"
    r"[^>]*>\s*\([^;,]*?(?:\.|->)value\(\)"
)

PARAM_RE = re.compile(
    r"(?:^|[(,])\s*((?:const\s+)?(?:std::)?"
    r"(?:u?int(?:8|16|32|64)_t|size_t|unsigned(?:\s+int)?))\s*&?\s*"
    r"([A-Za-z_]\w*)\s*(?=[,)])"
)


def dimension_of(name: str):
    """The dimension a parameter name claims, or None."""
    low = name.lower()
    if "_per_" in low:
        return None  # ratios are dimensionless
    for suffix, strong in DIMENSIONS.items():
        if low == suffix or low.endswith("_" + suffix):
            return strong
    return None


# ---- rule 1: bare-integer parameters ----------------------------------------


def lint_params_regex(root: Path) -> list:
    findings = []
    for path in iter_sources(root):
        rel = path.relative_to(root).as_posix()
        if rel.startswith("src/common/"):
            continue
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            for m in PARAM_RE.finditer(line):
                name = m.group(2)
                strong = dimension_of(name)
                if strong is None:
                    continue
                findings.append(
                    f"{rel}:{lineno}: bare-integer parameter '{name}' "
                    f"({m.group(1).strip()}) names a dimensioned quantity — "
                    f"use {strong}"
                )
    return findings


# ---- rule 2: static_cast escapes --------------------------------------------


def lint_cast_escapes(root: Path) -> list:
    findings = []
    for path in iter_sources(root):
        rel = path.relative_to(root).as_posix()
        if rel in CAST_BOUNDARY_FILES:
            continue
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            if CAST_ESCAPE_RE.search(line):
                findings.append(
                    f"{rel}:{lineno}: static_cast escape from a strong type "
                    f"outside the whitelisted boundary files — use a named "
                    f"conversion, or add this file to CAST_BOUNDARY_FILES "
                    f"with a reason"
                )
    return findings


# ---- rule 3: encode/decode pairing ------------------------------------------

# A signature (declaration or definition) that takes the codec's Encoder or
# Decoder by reference.  Call sites pass values, not types, so they never
# match.
# \s includes newlines: signatures that wrap after the function name (long
# parameter types) still match when scanned over the whole file text.
ENCODE_SIG_RE = re.compile(r"\b(\w*encode\w*)\s*\(\s*(?:ascoma::)?(?:store::)?Encoder\s*&")
DECODE_SIG_RE = re.compile(r"\b(\w*decode\w*)\s*\(\s*(?:ascoma::)?(?:store::)?Decoder\s*&")

# Widest allowed distance from an encode signature to its decode twin (keep
# the bound tight enough that "adjacent" stays meaningful).
ENCODE_DECODE_MAX_GAP = 80


def lint_encode_decode_pairs(root: Path) -> list:
    findings = []
    for path in iter_sources(root):
        rel = path.relative_to(root).as_posix()
        text = strip_comments(path.read_text())
        encodes = []  # (lineno, name)
        decodes = []
        for m in ENCODE_SIG_RE.finditer(text):
            encodes.append((text.count("\n", 0, m.start()) + 1, m.group(1)))
        for m in DECODE_SIG_RE.finditer(text):
            decodes.append((text.count("\n", 0, m.start()) + 1, m.group(1)))
        for lineno, name in encodes:
            twin = name.replace("encode", "decode")
            if not any(
                d_name == twin and lineno < d_line <= lineno + ENCODE_DECODE_MAX_GAP
                for d_line, d_name in decodes
            ):
                findings.append(
                    f"{rel}:{lineno}: '{name}(store::Encoder&)' has no "
                    f"'{twin}(store::Decoder&)' within "
                    f"{ENCODE_DECODE_MAX_GAP} lines after it — keep "
                    f"encode/decode pairs textually adjacent"
                )
        for lineno, name in decodes:
            twin = name.replace("decode", "encode")
            if not any(
                e_name == twin and lineno - ENCODE_DECODE_MAX_GAP <= e_line < lineno
                for e_line, e_name in encodes
            ):
                findings.append(
                    f"{rel}:{lineno}: '{name}(store::Decoder&)' has no "
                    f"'{twin}(store::Encoder&)' within "
                    f"{ENCODE_DECODE_MAX_GAP} lines before it — keep "
                    f"encode/decode pairs textually adjacent"
                )
    return findings


# ---- driver -----------------------------------------------------------------


def run(root: Path) -> list:
    return (lint_params_regex(root) + lint_cast_escapes(root)
            + lint_encode_decode_pairs(root))


SELF_TEST_BAD = """
namespace ascoma {
void advance(std::uint64_t now_cycles, std::uint32_t home_node);
void map_page(uint64_t page, std::size_t frame);
void sleep_for(std::uint64_t wall_ns);
inline double f(Cycle c) { return static_cast<double>(c.value()); }
void encode(store::Encoder& e);
void encode_widget(store::Encoder& e, const Widget& w);
void decode_widget(store::Decoder& d, Widget* w);
void decode_orphan(store::Decoder& d);
}
"""


def self_test(root: Path) -> int:
    """The linter must reject a known-bad snippet (negative test for CI)."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        bad_root = Path(tmp)
        from lint_common import write_src_tree
        write_src_tree(bad_root, {"src/sim/bad.hh": SELF_TEST_BAD})
        findings = run(bad_root)
    # encode_widget/decode_widget are adjacent and must NOT be flagged; the
    # bare 'encode' and 'decode_orphan' have no twins and must be.
    if any("encode_widget" in f for f in findings):
        print("lint_types: SELF-TEST FAILED — flagged a paired encode")
        return 1
    wanted = ["now_cycles", "home_node", "'page'", "'frame'", "wall_ns",
              "static_cast escape", "'encode(store::Encoder&)' has no",
              "'decode_orphan(store::Decoder&)' has no"]
    missing = [w for w in wanted if not any(w in f for f in findings)]
    if missing:
        print(f"lint_types: SELF-TEST FAILED — did not flag: {missing}")
        for f in findings:
            print(f"  (got) {f}")
        return 1
    print(f"lint_types: self-test OK ({len(findings)} findings on the bad "
          f"snippet, all expected patterns flagged)")
    return 0


def main() -> int:
    argv = [a for a in sys.argv[1:]]
    if "--self-test" in argv:
        argv.remove("--self-test")
        return self_test(repo_root(argv))
    if len(argv) > 1:
        print(__doc__)
        return 2
    root = repo_root(argv)
    findings = run(root)
    for f in findings:
        print(f"lint_types: {f}")
    if findings:
        print(f"lint_types: {len(findings)} finding(s)")
        return 1
    print(f"lint_types: OK (no bare-integer dimension parameters; "
          f"no static_cast escapes outside boundary files; all encode/decode "
          f"pairs adjacent)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
