#!/usr/bin/env python3
"""Static protocol lint (no build needed; CI runs this on every push).

Event-fold coverage, over the source text alone: every EventKind in
src/obs/event.hh has a matching `case obs::EventKind::k...:` fold in
src/prof/profiler.cc, so no event can be silently dropped by the
profiler/heat-map layer, and kNumEventKinds equals the enumerator count.

Transition-table totality is not linted here: the compiler and the tests own
it (a static_assert on the row count, TransitionTable()'s throw on a missing
or duplicated triple, and TransitionTable.TotalAndSelfConsistent for the
fatal rows; see ARCHITECTURE.md §12).

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
                f"(add a case to Profiler::fold)"
            )
    for kind in sorted(folded):
        if kind not in kinds:
            findings.append(
                f"{profiler_cc}: folds unknown EventKind::{kind} "
                f"(removed from event.hh?)"
            )
    if re.search(r"Profiler::fold.*?default\s*:", prof, re.S):
        findings.append(
            f"{profiler_cc}: Profiler::fold has a default: label — the "
            f"switch must stay exhaustive so -Wswitch catches new kinds"
        )
    return findings


def main() -> int:
    root = repo_root(sys.argv[1:])
    return report("lint_protocol", lint_event_folds(root),
                  "all event kinds folded")


if __name__ == "__main__":
    sys.exit(main())
