#!/usr/bin/env python3
"""Memory-order and lock-discipline linter for the cross-thread plane.

Four rules over everything under src/ (ARCHITECTURE.md §17):

C1  Every std::atomic operation names an explicit memory_order and is
    covered by a `// order:` rationale comment — directly above its
    statement, or above the contiguous run of atomic statements it ends
    (one block may justify a burst of related operations).  Operator
    writes to atomics (`flag = true`, `n++`) are banned outright: the
    sequentially-consistent default they hide is exactly the unreviewed
    ordering decision this rule exists to surface.

C2  No raw standard sync primitive outside src/common/sync.hh: std::mutex,
    std::lock_guard, std::unique_lock, std::condition_variable (and
    friends, and their includes) appear only inside the annotated wrappers,
    so -Wthread-safety sees every lock in the tree.  Manual .lock()/
    .unlock() calls on the wrapped Mutex are banned too — regions must be
    scoped (LockGuard) for the held-region analysis below to be sound.

C3  Lock hierarchy: every LockGuard must name a lock declared in
    LOCK_HIERARCHY; while a lock is held, any further acquisition — direct
    or through a callee (transitive acquire sets over the shared
    call-graph model) — must move strictly down the hierarchy, and a leaf
    lock (LEAF_LOCKS) admits no second acquisition at all.  Today every
    lock in the tree is a leaf: the plane is deadlock-free by construction
    and this rule keeps it that way.

C4  No blocking I/O while holding a lock: syscalls (::poll/::read/
    ::write/::accept/::fsync/...), stdio, fstreams, EventSink::emit — and
    no operator<< streaming or ostringstream building either, since the
    stream behind a handler may be a blocking socket.  Checked directly in
    each held region and transitively through callees.  C4_IO_BOUNDARY
    lists the deliberate exceptions (the manifest journal, whose
    one-fsynced-line-at-a-time contract makes the I/O the critical
    section).

Front ends (shared with lint_hotpath via lint_common): libclang +
compile_commands.json when available, else the regex call-graph model —
the operative mode in CI, where linting runs before configure.  The
textual rules (C1/C2) are front-end independent.

Exit codes: 0 clean, 1 findings, 2 usage error.
Usage: lint_concurrency.py [--self-test] [repo-root]
"""

import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from lint_common import (build_model, build_model_libclang, iter_sources,
                         load_libclang, match_brace, repo_root, report,
                         strip_comments, write_src_tree,
                         LOCAL_RE, RECEIVER_CALL_RE, QUALIFIED_CALL_RE,
                         BARE_CALL_RE, GENERIC_METHODS, NOT_FUNC_NAMES,
                         all_subclasses)

# ---------------------------------------------------------------------------
# The declared lock hierarchy (C3), outermost first.  A lock acquired while
# another is held must sit strictly later in this list; LEAF_LOCKS admit no
# nested acquisition at all.  Adding a lock to the plane means adding it
# here — an undeclared LockGuard is itself a finding.
# ---------------------------------------------------------------------------
LOCK_HIERARCHY = [
    "Heartbeat::mu",         # core/sweep.cc      — heartbeat stop/condvar slot
    "ErrorSlot::mu",         # core/sweep.cc      — first-thrower exception slot
    "manifest_mu",           # store/store.cc     — manifest journal serializer
]
LEAF_LOCKS = frozenset(LOCK_HIERARCHY)  # every lock is a leaf today

# Functions whose held-region I/O is the point (C4 exemptions, each with a
# rationale at its definition site).
C4_IO_BOUNDARY = frozenset({
    "append_manifest_line",  # store/store.cc: the fsync'd line *is* the
                             # critical section (durability contract)
})

SKIP_FILES = ("src/common/annotate.hh", "src/common/sync.hh")

ATOMIC_OP_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\[[^\[\]]*\])?\s*(?:\.|->)\s*"
    r"(load|store|exchange|compare_exchange_weak|compare_exchange_strong|"
    r"fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor)\s*\(")

RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(?:recursive_timed_mutex|recursive_mutex|shared_mutex|"
    r"timed_mutex|mutex|lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable_any|condition_variable)\b"
    r"|#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"
    r"|\bpthread_(?:mutex|cond|rwlock)\w*")

MUTEX_DECL_RE = re.compile(r"\b(?:ascoma\s*::\s*)?Mutex\s+([A-Za-z_]\w*)\s*[;{=]")

LOCKGUARD_RE = re.compile(
    r"\b(?:ascoma\s*::\s*)?LockGuard\s+\w+\s*[({]\s*([^;(){}]+?)\s*[)}]")

# Blocking / externally-visible I/O: propagated transitively (does-I/O sets).
IO_PROP_RE = re.compile(
    r"::\s*(?:poll|select|read|write|send|recv|accept|open|close|fsync|"
    r"fdatasync|listen|bind|connect|unlink|rename)\s*\("
    r"|\b(?:fopen|fread|fwrite|fprintf|fputs|fflush|fclose)\s*\("
    r"|\bstd\s*::\s*(?:ofstream|ifstream|fstream)\b"
    r"|\bstd\s*::\s*c(?:out|err|log)\b"
    r"|(?:\.|->)\s*emit\s*\(")

# String/stream building: flagged only when directly inside a held region
# (formatting belongs after the snapshot, not under the lock).
STREAM_RE = re.compile(r"\b[A-Za-z_]\w*\s*<<|\bostringstream\b")


def mask_comments(text: str) -> str:
    """Blank out comments, preserving offsets and line structure, so token
    scans skip prose while line numbers still match the original."""
    def repl(m):
        return "".join(c if c == "\n" else " " for c in m.group(0))
    text = re.sub(r"//[^\n]*", repl, text)
    return re.sub(r"/\*.*?\*/", repl, text, flags=re.S)


def call_args(text: str, open_idx: int) -> str:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_idx + 1:i]
    return text[open_idx + 1:]


def stmt_start(lines: list, i: int) -> int:
    """First line of the statement containing line i: walk up while the
    previous line does not terminate a statement (comment lines are blank
    in the masked text, so they terminate too)."""
    while i > 0:
        prev = lines[i - 1].strip()
        if prev == "" or prev.endswith((";", "{", "}", ":")):
            break
        i -= 1
    return i


def has_order_rationale(orig_lines, masked_lines, op_line: int) -> bool:
    """C1: an `order:` comment on the op's line, directly above its
    statement, or above the contiguous run of atomic statements it ends."""
    if "order:" in orig_lines[op_line]:
        return True
    i = stmt_start(masked_lines, op_line)
    for _ in range(8):
        j = i - 1
        seen_comment = False
        while j >= 0 and orig_lines[j].lstrip().startswith("//"):
            seen_comment = True
            if "order:" in orig_lines[j]:
                return True
            j -= 1
        if seen_comment or i == 0:
            return False  # a comment block without a rationale doesn't count
        # Skip over an immediately preceding atomic-op statement (one
        # rationale block may cover a burst of related operations).
        e = i - 1
        if masked_lines[e].strip() == "":
            return False
        s = stmt_start(masked_lines, e)
        stmt = " ".join(masked_lines[s:e + 1])
        if ATOMIC_OP_RE.search(stmt) and "memory_order" in stmt:
            i = s
            continue
        return False
    return False


# ---------------------------------------------------------------------------
# C1 + C2: textual, per file.
# ---------------------------------------------------------------------------

def lint_files(root: Path, findings: list) -> int:
    files = []  # (rel, orig_lines, masked, masked_lines)
    atomic_names, pointer_names = set(), set()
    per_file_atomics = {}
    mutex_names = set()
    for path in iter_sources(root):
        rel = path.relative_to(root).as_posix()
        if rel in SKIP_FILES:
            continue
        orig = path.read_text()
        masked = mask_comments(orig)
        mlines = masked.splitlines()
        files.append((rel, orig.splitlines(), masked, mlines))
        names = set()
        for line in mlines:
            if "std::atomic" in line:
                m = re.search(
                    r"([A-Za-z_]\w*)\s*(?:\{[^{}]*\})?\s*(?:=[^;]*)?;", line)
                if m:
                    names.add(m.group(1))
                    if re.search(r">\s*\*", line):
                        pointer_names.add(m.group(1))
            for mm in MUTEX_DECL_RE.finditer(line):
                mutex_names.add(mm.group(1))
        atomic_names |= names
        # A non-atomic declaration of the same name in the same file
        # (e.g. Snapshot::sum shadowing Shard::sum) makes plain writes to
        # it legitimate — drop such names from the operator-write check
        # only (precision over recall; the receiver-op scan still covers
        # every .load/.store/fetch_op on them).
        for name in sorted(names):
            for line in mlines:
                if "atomic" not in line and re.search(
                        rf"\b[\w:]+(?:<[^;]*>)?\s+{name}\s*[=;{{]", line):
                    names.discard(name)
                    break
        per_file_atomics[rel] = names

    ops = 0
    manual_lock_re = re.compile(
        r"\b(?:" + "|".join(sorted(mutex_names)) +
        r")\s*\.\s*(?:try_lock|lock|unlock)\s*\(") if mutex_names else None
    for rel, olines, masked, mlines in files:
        # C1a/C1b: explicit order + rationale on every atomic op.
        for m in ATOMIC_OP_RE.finditer(masked):
            if m.group(1) not in atomic_names:
                continue
            ops += 1
            line_no = masked.count("\n", 0, m.start())
            where = f"{rel}:{line_no + 1}"
            args = call_args(masked, masked.index("(", m.end() - 1))
            if "memory_order" not in args:
                findings.append(
                    f"{where} [C1] atomic {m.group(2)}() on '{m.group(1)}' "
                    "names no explicit memory_order")
            if not has_order_rationale(olines, mlines, line_no):
                findings.append(
                    f"{where} [C1] atomic {m.group(2)}() on '{m.group(1)}' "
                    "has no `// order:` rationale above its statement")
        # C1c: operator writes on atomics declared in this file.
        wr = sorted(per_file_atomics[rel] - pointer_names)
        if wr:
            pat = re.compile(
                r"(?<![\w.>])(" + "|".join(wr) +
                r")\s*(?:\+\+|--|(?:[+\-|&^]|<<|>>)?=(?!=))"
                r"|(?:\+\+|--)\s*(" + "|".join(wr) + r")\b")
            for m in pat.finditer(masked):
                line_no = masked.count("\n", 0, m.start())
                if "std::atomic" in mlines[line_no]:
                    continue  # the declaration itself
                name = m.group(1) or m.group(2)
                findings.append(
                    f"{rel}:{line_no + 1} [C1] operator write to atomic "
                    f"'{name}' hides a seq_cst ordering decision — use "
                    "store/fetch_op with an explicit memory_order")
        # C2: raw standard sync primitives; manual lock()/unlock().
        for m in RAW_SYNC_RE.finditer(masked):
            line_no = masked.count("\n", 0, m.start())
            findings.append(
                f"{rel}:{line_no + 1} [C2] raw sync primitive "
                f"'{m.group(0).strip()}' outside src/common/sync.hh — use "
                "the annotated ascoma::Mutex/LockGuard/CondVar wrappers")
        if manual_lock_re:
            for m in manual_lock_re.finditer(masked):
                line_no = masked.count("\n", 0, m.start())
                findings.append(
                    f"{rel}:{line_no + 1} [C2] manual "
                    f"'{m.group(0).strip()}' — acquire through a scoped "
                    "LockGuard so held regions stay analyzable")
    return ops


# ---------------------------------------------------------------------------
# C3 + C4: held regions over the call-graph model.
# ---------------------------------------------------------------------------

def struct_instance_hints(body: str) -> dict:
    """{instance: StructName} for function-local `struct S {...} s;`
    declarations (the sweep's ErrorSlot/Heartbeat pattern)."""
    hints = {}
    for m in re.finditer(r"\bstruct\s+(\w+)\s*\{", body):
        close = match_brace(body, m.end() - 1)
        mm = re.match(r"\s*(\w+)\s*;", body[close + 1:])
        if mm:
            hints[mm.group(1)] = m.group(1)
    return hints


def lock_id(expr: str, fn, model, hints: dict) -> str:
    """Resolve a LockGuard argument to its hierarchy identity:
    Class::member for members (via receiver type hints or the enclosing
    class), the bare name for file-scope locks."""
    expr = re.sub(r"\s+", "", expr)
    m = re.fullmatch(r"(\w+)(?:\.|->)(\w+)", expr)
    if m:
        recv, memb = m.groups()
        hint = hints.get(recv) or fn.param_hints.get(recv) or \
            (model.member_types.get(recv) or (None,))[0]
        return f"{hint}::{memb}" if hint else expr
    if re.fullmatch(r"\w+", expr) and "::" in fn.qual:
        return f"{fn.qual.split('::')[0]}::{expr}"
    return expr


def region_end(body: str, start: int) -> int:
    """End of the enclosing block: a LockGuard holds until its scope
    closes."""
    depth = 0
    for i in range(start, len(body)):
        if body[i] == "{":
            depth += 1
        elif body[i] == "}":
            depth -= 1
            if depth < 0:
                return i
    return len(body)


def region_callees(model, fn, region: str, hints: dict) -> set:
    """Resolve the calls inside one held region (same precision-over-recall
    rules as lint_common.resolve_calls, scoped to the region text)."""
    local_hints = dict(fn.param_hints)
    for m in LOCAL_RE.finditer(strip_comments(fn.body)):
        local_hints.setdefault(m.group(2), m.group(1).split("::")[-1])
    local_hints.update(hints)
    own = fn.qual.split("::")[0] if "::" in fn.qual else None
    out = set()

    def by_class_hint(cls, method):
        for c in [cls] + sorted(all_subclasses(model, cls)):
            q = f"{c}::{method}"
            if q in model.defs:
                out.add(q)

    for m in RECEIVER_CALL_RE.finditer(region):
        recv, method = m.group(1), m.group(2)
        matches = model.by_simple.get(method, [])
        if not matches:
            continue
        if recv == "this":
            hint = own
        else:
            hint = local_hints.get(recv) or \
                (model.member_types.get(recv) or (None,))[0]
        if hint:
            by_class_hint(hint, method)
        elif len(matches) == 1 and method not in GENERIC_METHODS:
            out.add(matches[0])
    for m in QUALIFIED_CALL_RE.finditer(region):
        q = f"{m.group(1)}::{m.group(2)}"
        if q in model.defs:
            out.add(q)
    for m in BARE_CALL_RE.finditer(region):
        name = m.group(1)
        if name in NOT_FUNC_NAMES:
            continue
        matches = model.by_simple.get(name, [])
        if len(matches) == 1:
            out.add(matches[0])
        elif matches and own:
            by_class_hint(own, name)
    return out - {fn.qual}


def lint_model(model, hierarchy, leaves, io_boundary, findings) -> int:
    rank = {name: i for i, name in enumerate(hierarchy)}
    info = {}  # qual -> (body, hints, [(lock_id, start, end)])
    for qual, fn in model.defs.items():
        body = strip_comments(fn.body)
        hints = struct_instance_hints(body)
        sites = []
        for m in LOCKGUARD_RE.finditer(body):
            sites.append((lock_id(m.group(1), fn, model, hints),
                          m.end(), region_end(body, m.end())))
        info[qual] = (body, hints, sites)

    # Transitive acquire sets and does-I/O sets (fixpoint over call edges).
    trans = {q: {s[0] for s in info[q][2]} for q in info}
    does_io = {q: bool(IO_PROP_RE.search(info[q][0])) for q in info}
    changed = True
    while changed:
        changed = False
        for q, fn in model.defs.items():
            for c in fn.callees:
                add = trans.get(c, set()) - trans[q]
                if add:
                    trans[q] |= add
                    changed = True
                if does_io.get(c) and not does_io[q]:
                    does_io[q] = True
                    changed = True

    regions = 0
    for qual in sorted(info):
        fn = model.defs[qual]
        body, hints, sites = info[qual]
        for lid, s, e in sites:
            regions += 1
            line = fn.line + body[:s].count("\n")
            where = f"{fn.rel}:{line} ({qual})"
            if lid not in rank:
                findings.append(
                    f"{where} [C3] LockGuard on '{lid}' which is not in the "
                    "declared LOCK_HIERARCHY — declare it (and its rank)")
                continue
            region = body[s:e]
            for m in LOCKGUARD_RE.finditer(region):
                nid = lock_id(m.group(1), fn, model, hints)
                if lid in leaves:
                    findings.append(
                        f"{where} [C3] acquires '{nid}' while holding leaf "
                        f"lock '{lid}' — leaves admit no nesting")
                elif nid in rank and rank[nid] <= rank[lid]:
                    findings.append(
                        f"{where} [C3] acquires '{nid}' (rank {rank[nid]}) "
                        f"while holding '{lid}' (rank {rank[lid]}) — "
                        "hierarchy inversion")
                elif nid not in rank:
                    findings.append(
                        f"{where} [C3] acquires undeclared lock '{nid}' "
                        f"while holding '{lid}'")
            callees = region_callees(model, fn, region, hints)
            for c in sorted(callees):
                for nid in sorted(trans.get(c, ())):
                    if lid in leaves:
                        findings.append(
                            f"{where} [C3] calls {c}() which acquires "
                            f"'{nid}' while leaf lock '{lid}' is held")
                    elif nid in rank and rank[nid] <= rank[lid]:
                        findings.append(
                            f"{where} [C3] calls {c}() which acquires "
                            f"'{nid}' (rank {rank[nid]}) under '{lid}' "
                            f"(rank {rank[lid]}) — hierarchy inversion")
                if does_io.get(c) and qual not in io_boundary:
                    findings.append(
                        f"{where} [C4] calls {c}() which performs blocking "
                        f"I/O while '{lid}' is held — snapshot under the "
                        "lock, do the I/O after")
            if qual in io_boundary:
                continue
            for m in IO_PROP_RE.finditer(region):
                findings.append(
                    f"{where} [C4] blocking I/O '{m.group(0).strip()}' "
                    f"while '{lid}' is held")
            for m in STREAM_RE.finditer(region):
                findings.append(
                    f"{where} [C4] stream/string building "
                    f"'{m.group(0).strip()}' while '{lid}' is held — "
                    "format outside the lock")
    return regions


def run(root: Path, hierarchy=None, leaves=None, io_boundary=None):
    hierarchy = LOCK_HIERARCHY if hierarchy is None else hierarchy
    leaves = LEAF_LOCKS if leaves is None else leaves
    io_boundary = C4_IO_BOUNDARY if io_boundary is None else io_boundary
    findings = []
    ops = lint_files(root, findings)
    ast = load_libclang(root)
    if ast is not None:
        model = build_model_libclang(root, *ast)
        mode = "ast"
    else:
        model = build_model(root, annotations={})
        mode = "regex"
    regions = lint_model(model, hierarchy, leaves, io_boundary, findings)
    return sorted(set(findings)), mode, ops, regions


# ---------------------------------------------------------------------------
# Self-test: seeded-violation fixture trees, one per rule.
# ---------------------------------------------------------------------------

FIX_HH = """#pragma once
#include <atomic>
namespace n {
class A {
 public:
  void poke();
  void touch();
  void dump(std::ostream& os);
 private:
  Mutex mu_;
  int v_ ASCOMA_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> hits_{0};
};
class B {
 public:
  void cross(A& a);
  void grab();
 private:
  Mutex mu_;
  int w_ ASCOMA_GUARDED_BY(mu_);
};
}
"""

FIX_OK_CC = """#include "x/ab.hh"
namespace n {
void A::poke() {
  // order: relaxed — monotonic tally; readers tolerate lag.
  hits_.fetch_add(1, std::memory_order_relaxed);
  const LockGuard g(mu_);
  v_ += 1;
}
void A::touch() { poke(); }
}
"""

FIX_HIER = ["A::mu_", "B::mu_"]

FIXTURES = [
    ("pristine", {"src/x/ab.hh": FIX_HH, "src/x/ab.cc": FIX_OK_CC},
     FIX_HIER, frozenset(), frozenset(), []),
    ("c1-missing-order",
     {"src/x/ab.hh": FIX_HH, "src/x/ab.cc": """#include "x/ab.hh"
namespace n {
void A::poke() {
  // order: relaxed — tally.
  hits_.fetch_add(1);
}
}
"""}, FIX_HIER, frozenset(), frozenset(),
     ["[C1]", "no explicit memory_order"]),
    ("c1-missing-rationale",
     {"src/x/ab.hh": FIX_HH, "src/x/ab.cc": """#include "x/ab.hh"
namespace n {
void A::poke() {
  v_ = 0;
  hits_.fetch_add(1, std::memory_order_relaxed);
}
}
"""}, FIX_HIER, frozenset(), frozenset(), ["[C1]", "order:` rationale"]),
    ("c1-operator-write",
     {"src/x/ab.hh": FIX_HH, "src/x/ab.cc": """#include "x/ab.hh"
namespace n {
std::atomic<bool> on{false};
void A::poke() { on = true; }
}
"""}, FIX_HIER, frozenset(), frozenset(), ["[C1]", "operator write"]),
    ("c2-raw-mutex",
     {"src/x/ab.hh": FIX_HH, "src/x/ab.cc": """#include "x/ab.hh"
#include <mutex>
namespace n {
std::mutex raw_mu;
void A::poke() { std::lock_guard<std::mutex> g(raw_mu); }
}
"""}, FIX_HIER, frozenset(), frozenset(), ["[C2]", "raw sync primitive"]),
    ("c2-manual-lock",
     {"src/x/ab.hh": FIX_HH, "src/x/ab.cc": """#include "x/ab.hh"
namespace n {
void A::poke() {
  mu_.lock();
  v_ += 1;
  mu_.unlock();
}
}
"""}, FIX_HIER, frozenset(), frozenset(), ["[C2]", "manual"]),
    ("c3-undeclared",
     {"src/x/ab.hh": FIX_HH, "src/x/ab.cc": """#include "x/ab.hh"
namespace n {
Mutex rogue_mu;
void stray() { const LockGuard g(rogue_mu); }
}
"""}, FIX_HIER, frozenset(), frozenset(), ["[C3]", "not in the declared"]),
    ("c3-inversion",
     {"src/x/ab.hh": FIX_HH, "src/x/ab.cc": """#include "x/ab.hh"
namespace n {
void B::cross(A& a) {
  const LockGuard g(mu_);
  const LockGuard g2(a.mu_);
}
}
"""}, FIX_HIER, frozenset(), frozenset(), ["[C3]", "hierarchy inversion"]),
    ("c3-second-lock-under-leaf",
     {"src/x/ab.hh": FIX_HH, "src/x/ab.cc": """#include "x/ab.hh"
namespace n {
void A::cross(B& b) {
  const LockGuard g(mu_);
  const LockGuard g2(b.mu_);
}
}
"""}, FIX_HIER, frozenset({"A::mu_"}), frozenset(),
     ["[C3]", "leaf", "no nesting"]),
    ("c3-transitive-acquire",
     {"src/x/ab.hh": FIX_HH, "src/x/ab.cc": """#include "x/ab.hh"
namespace n {
void B::grab() { const LockGuard g(mu_); w_ += 1; }
void B::cross(A& a) {
  const LockGuard g2(a.mu_);
  grab();
}
}
"""}, ["A::mu_", "B::mu_"], frozenset({"A::mu_"}), frozenset(),
     ["[C3]", "grab", "leaf lock 'A::mu_' is held"]),
    ("c4-direct-io",
     {"src/x/ab.hh": FIX_HH, "src/x/ab.cc": """#include "x/ab.hh"
namespace n {
void A::poke() {
  const LockGuard g(mu_);
  ::write(1, "x", 1);
}
}
"""}, FIX_HIER, frozenset(), frozenset(), ["[C4]", "blocking I/O"]),
    ("c4-transitive-io",
     {"src/x/ab.hh": FIX_HH, "src/x/ab.cc": """#include "x/ab.hh"
namespace n {
void flushit() { ::fsync(0); }
void A::poke() {
  const LockGuard g(mu_);
  flushit();
}
}
"""}, FIX_HIER, frozenset(), frozenset(), ["[C4]", "flushit"]),
    ("c4-stream-under-lock",
     {"src/x/ab.hh": FIX_HH, "src/x/ab.cc": """#include "x/ab.hh"
namespace n {
void A::dump(std::ostream& os) {
  const LockGuard g(mu_);
  os << v_;
}
}
"""}, FIX_HIER, frozenset(), frozenset(), ["[C4]", "stream"]),
    ("c4-io-boundary-exempt",
     {"src/x/ab.hh": FIX_HH, "src/x/ab.cc": """#include "x/ab.hh"
namespace n {
void A::poke() {
  const LockGuard g(mu_);
  ::write(1, "x", 1);
}
}
"""}, FIX_HIER, frozenset(), frozenset({"A::poke"}), []),
]


def self_test() -> int:
    failures = 0
    for name, files, hierarchy, leaves, boundary, expect in FIXTURES:
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            write_src_tree(root, files)
            findings, _, _, _ = run(root, hierarchy, leaves, boundary)
        blob = " ".join(findings)
        if not expect:
            if findings:
                failures += 1
                print(f"SELF-TEST FAIL [{name}]: wanted clean, got:")
                for f in findings:
                    print(f"  {f}")
            continue
        missing = [e for e in expect if e not in blob]
        if missing:
            failures += 1
            print(f"SELF-TEST FAIL [{name}]: missing {missing}, got:")
            for f in findings:
                print(f"  {f}")
    if failures:
        print(f"lint_concurrency self-test: {failures} fixture(s) failed")
        return 1
    print(f"lint_concurrency self-test: all {len(FIXTURES)} fixtures pass")
    return 0


def main(argv: list) -> int:
    if argv and argv[0] == "--self-test":
        return self_test()
    if any(a.startswith("-") for a in argv) or len(argv) > 1:
        print(__doc__)
        return 2
    root = repo_root(argv)
    if not (root / "src").is_dir():
        print(f"lint_concurrency: no src/ under {root}")
        return 2
    findings, mode, ops, regions = run(root)
    return report(
        "lint_concurrency", findings,
        f"{ops} atomic op(s), {regions} held region(s), "
        f"{len(LOCK_HIERARCHY)} declared lock(s)", mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
