#!/usr/bin/env python3
"""Static protocol lints (no build needed; CI runs this on every push).

Checks, over the source text alone:

1. Transition-table totality: src/proto/transition_table.cc declares exactly
   one kProtocol row for every (DirState x ProtoMsg x ReqRel) triple — no
   unhandled state/message pair can exist, and no triple is declared twice.
   Also: a row declaring act::kFatal must promise DirNext::kFatal (and carry
   no other action bits), and vice versa.

2. Event-fold coverage: every EventKind in src/obs/event.hh has a matching
   `case obs::EventKind::k...:` fold in src/prof/profiler.cc, so no event can
   be silently dropped by the profiler/heat-map layer.  kNumEventKinds must
   equal the enumerator count.

Usage: tools/lint_protocol.py [repo-root]       (exit 0 clean, 1 findings,
                                                 2 usage error: a flag or
                                                 a path that is not a
                                                 directory)
"""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from lint_common import repo_root, report

DIR_STATES = ["kUncached", "kShared", "kExclusive"]
PROTO_MSGS = ["kGetS", "kGetX", "kFlush", "kNack"]
REQ_RELS = ["kNone", "kSharer", "kOwner"]

ROW_RE = re.compile(
    r"\{DirState::(k\w+),\s*ProtoMsg::(k\w+),\s*ReqRel::(k\w+),"
    r"\s*([^,]+?),\s*DirNext::(k\w+),",
    re.S,
)


def lint_transition_table(root: Path) -> list[str]:
    findings = []
    path = root / "src/proto/transition_table.cc"
    text = path.read_text()
    rows = ROW_RE.findall(text)
    if not rows:
        return [f"{path}: found no kProtocol rows (parser out of date?)"]

    seen: dict[tuple[str, str, str], int] = {}
    for state, msg, rel, actions, nxt in rows:
        for value, universe, what in (
            (state, DIR_STATES, "DirState"),
            (msg, PROTO_MSGS, "ProtoMsg"),
            (rel, REQ_RELS, "ReqRel"),
        ):
            if value not in universe:
                findings.append(f"{path}: unknown {what}::{value}")
        triple = (state, msg, rel)
        seen[triple] = seen.get(triple, 0) + 1

        fatal_action = "kFatal" in actions
        fatal_next = nxt == "kFatal"
        if fatal_action != fatal_next:
            findings.append(
                f"{path}: row {state} x {msg} x {rel}: act::kFatal and "
                f"DirNext::kFatal must appear together"
            )
        if fatal_action and actions.strip() != "act::kFatal":
            findings.append(
                f"{path}: row {state} x {msg} x {rel}: a fatal row must "
                f"carry no other action bits (got {actions.strip()})"
            )

    for state in DIR_STATES:
        for msg in PROTO_MSGS:
            for rel in REQ_RELS:
                n = seen.get((state, msg, rel), 0)
                if n == 0:
                    findings.append(
                        f"{path}: missing row for {state} x {msg} x {rel} "
                        f"(table not total)"
                    )
                elif n > 1:
                    findings.append(
                        f"{path}: {n} rows for {state} x {msg} x {rel} "
                        f"(triple declared more than once)"
                    )

    expected = len(DIR_STATES) * len(PROTO_MSGS) * len(REQ_RELS)
    if len(rows) != expected:
        findings.append(
            f"{path}: {len(rows)} rows declared, expected {expected}"
        )
    return findings


def lint_event_folds(root: Path) -> list[str]:
    findings = []
    event_hh = root / "src/obs/event.hh"
    profiler_cc = root / "src/prof/profiler.cc"
    text = event_hh.read_text()

    m = re.search(r"enum class EventKind[^{]*\{(.*?)\};", text, re.S)
    if not m:
        return [f"{event_hh}: EventKind enum not found"]
    body = re.sub(r"//[^\n]*", "", m.group(1))  # strip comments
    kinds = re.findall(r"\b(k[A-Z]\w*)\b\s*,?", body)
    if not kinds:
        return [f"{event_hh}: no EventKind enumerators parsed"]

    m = re.search(r"kNumEventKinds\s*=\s*(\d+)", text)
    if not m:
        findings.append(f"{event_hh}: kNumEventKinds not found")
    elif int(m.group(1)) != len(kinds):
        findings.append(
            f"{event_hh}: kNumEventKinds = {m.group(1)} but the enum has "
            f"{len(kinds)} enumerators"
        )

    prof = re.sub(r"//[^\n]*", "", profiler_cc.read_text())
    folded = set(re.findall(r"case obs::EventKind::(k\w+)\s*:", prof))
    for kind in kinds:
        if kind not in folded:
            findings.append(
                f"{profiler_cc}: EventKind::{kind} has no profiler fold "
                f"(add a case to Profiler::on_event)"
            )
    for kind in sorted(folded):
        if kind not in kinds:
            findings.append(
                f"{profiler_cc}: folds unknown EventKind::{kind} "
                f"(removed from event.hh?)"
            )
    if re.search(r"Profiler::on_event.*?default\s*:", prof, re.S):
        findings.append(
            f"{profiler_cc}: Profiler::on_event has a default: label — the "
            f"switch must stay exhaustive so -Wswitch catches new kinds"
        )
    return findings


def main() -> int:
    root = repo_root(sys.argv[1:])
    findings = lint_transition_table(root) + lint_event_folds(root)
    return report("lint_protocol", findings,
                  "transition table total; all event kinds folded")


if __name__ == "__main__":
    sys.exit(main())
