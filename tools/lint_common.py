#!/usr/bin/env python3
"""Shared scaffolding for the repo's source linters (tools/lint_*.py).

Each linter stays a single self-contained checker; what they share lives
here so the bootstrap logic cannot drift between them:

* ``strip_comments`` / ``iter_sources``   — the textual front end
* ``repo_root``                           — the [repo-root] argv convention,
  with the shared usage error (exit 2) for a stray flag or a non-directory
* ``report``                              — the shared findings/OK epilogue
* ``write_src_tree``                      — materialize a fixture src/ tree
  for linters that walk a repo root rather than a text blob
* the call-graph walker                   — ``Model``/``build_model``/
  ``resolve_calls``/``walk``: the annotation-rooted traversal behind
  lint_hotpath's hot-path/signal/determinism rules.

Importable from the tools/ directory (the linters add it to sys.path when
run as scripts from elsewhere).
"""

import re
import sys
from pathlib import Path


def strip_comments(text: str) -> str:
    """Drop // and /* */ comments (string literals are not parsed — the
    linters' token patterns are chosen so this never matters in practice)."""
    text = re.sub(r"//[^\n]*", "", text)
    return re.sub(r"/\*.*?\*/", "", text, flags=re.S)


def iter_sources(root: Path, subdir: str = "src"):
    """All .hh/.cc files under ``root/subdir``, sorted for stable output."""
    for path in sorted((root / subdir).rglob("*")):
        if path.suffix in (".hh", ".cc"):
            yield path


def repo_root(argv: list) -> Path:
    """The [repo-root] positional argument, defaulting to the repo this
    file lives in (tools/..).  Anything else (a flag the linter does not
    take, a path that is not a directory, a second argument) prints a
    usage line and exits 2."""
    if not argv:
        return Path(__file__).parent.parent
    if len(argv) > 1 or argv[0].startswith("-") or not Path(argv[0]).is_dir():
        tool = Path(sys.argv[0]).name
        print(f"usage: {tool} [repo-root]  (not a repository directory: "
              f"{' '.join(argv)!r})", file=sys.stderr)
        sys.exit(2)
    return Path(argv[0])


def report(tool: str, findings: list, ok_message: str) -> int:
    """Print findings (or the OK line) in the shared format; return the
    process exit code (0 clean, 1 findings)."""
    for f in findings:
        print(f"{tool}: {f}")
    if findings:
        print(f"{tool}: {len(findings)} finding(s)")
        return 1
    print(f"{tool}: OK ({ok_message})")
    return 0


def write_src_tree(root: Path, files: dict) -> None:
    """Materialize ``files`` ({"src/sim/a.hh": text, ...}) under ``root``
    for fixture-tree self-tests."""
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


# ============================================================================
# The shared call-graph walker (formerly private to lint_hotpath.py).
#
# ``build_model`` parses the tree textually (regex), so it works on a
# never-compiled checkout — CI lints before configure.  Function bodies are
# sliced out of the file text, the one surface every rule scans.
# ============================================================================

CHECK_MACRO_RE = re.compile(r"\bASCOMA_CHECK(?:_MSG)?\s*\(")

NOT_FUNC_NAMES = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "else", "do", "new", "delete", "defined",
    "assert", "ASCOMA_CHECK", "ASCOMA_CHECK_MSG",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
    "noexcept", "alignas", "explicit", "operator",
}

UPPER_ID_RE = re.compile(r"\b([A-Z]\w*)\b")

# Method names shared with the standard library: a receiver call on one of
# these never resolves by simple name alone (ptr.reset() is not
# Network::reset) — it needs a receiver-type hint.
GENERIC_METHODS = {
    "reset", "clear", "size", "empty", "load", "store", "insert", "erase",
    "find", "count", "at", "get", "release", "value", "str", "c_str",
    "begin", "end", "front", "back", "data", "swap", "first", "second",
    "push", "pop", "top", "test", "set", "fill", "min", "max", "exchange",
    "fetch_add", "fetch_sub", "lock", "unlock", "wait", "run", "apply",
    "emit", "add", "done", "tick", "next", "name", "id", "index",
}

CLASS_RE = re.compile(r"\b(?:class|struct)\s+(?:ASCOMA_\w+(?:\([^()]*\))?\s+)?"
                      r"([\w:]+)\s*(?:final\s*)?(?::\s*[^{;]+)?\{")
INHERIT_RE = re.compile(r"\b(?:class|struct)\s+([\w:]+)\s*(?:final\s*)?:\s*"
                        r"(?:public|protected|private)?\s*(?:virtual\s+)?"
                        r"([\w:]+)")
MEMBER_RE = re.compile(
    r"(?:^|[;{}])\s*(?:mutable\s+|static\s+|constexpr\s+)*"
    r"((?:const\s+)?[\w:]+(?:<[^;()]*?>)?\s*[&\*]?)\s+"
    r"([a-z_]\w*)\s*(?:ASCOMA_\w+\([^;()]*\)\s*)?"
    r"(?:=[^;]*|\{[^;{}]*\})?;", re.M)
FUNC_NAME_RE = re.compile(r"(~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*\(")
LOCAL_RE = re.compile(
    r"\b((?:[\w]+::)*[A-Z]\w*)(?:<[^;=]*?>)?\s*[&\*]?\s+([a-z]\w*)\s*[=;(]")
RECEIVER_CALL_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")
QUALIFIED_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)::([A-Za-z_]\w*)\s*\(")
BARE_CALL_RE = re.compile(r"(?<![\w.>:])([A-Za-z_]\w*)\s*\(")


def strip_check_macros(text: str) -> str:
    """Remove ASCOMA_CHECK*(...) invocations (balanced parens) — their
    message building runs only on the failure branch."""
    out = []
    pos = 0
    while True:
        m = CHECK_MACRO_RE.search(text, pos)
        if m is None:
            out.append(text[pos:])
            return "".join(out)
        out.append(text[pos:m.start()])
        depth = 0
        i = m.end() - 1  # at the '('
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        out.append(";")
        pos = i + 1


def match_brace(text: str, open_idx: int) -> int:
    """Index of the '}' matching the '{' at open_idx (len(text) if
    unbalanced)."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def last_class_hint(type_text: str):
    """The receiver-class heuristic: last uppercase identifier in a
    declared type (unique_ptr<vm::PageoutDaemon> -> PageoutDaemon)."""
    ids = UPPER_ID_RE.findall(type_text)
    return ids[-1] if ids else None


class Function:
    def __init__(self, qual, rel, line, body, prefix):
        self.qual = qual          # "Class::name" or "name"
        self.rel = rel            # repo-relative file
        self.line = line          # 1-based line of the definition
        self.body = body          # body text, checks stripped
        self.prefix = prefix      # declaration text before the name
        self.callees = []         # resolved qualified names
        self.param_hints = {}     # param name -> class hint


class Model:
    """Everything the rules need, built once per tree."""

    def __init__(self):
        self.defs = {}            # qual -> Function
        self.by_simple = {}       # simple name -> [qual]
        self.roots = {}           # kind -> set of qualified names
        self.cold = set()         # [[noreturn]] qualified names
        self.subclasses = {}      # base simple name -> set of derived
        self.member_types = {}    # member name -> (hint, full type text)


def class_spans(text):
    """[(open, close, simple_name)] for every class/struct body."""
    spans = []
    for m in CLASS_RE.finditer(text):
        open_idx = m.end() - 1
        spans.append((open_idx, match_brace(text, open_idx),
                      m.group(1).split("::")[-1]))
    return spans


def enclosing_class(spans, offset):
    best = None
    for open_idx, close_idx, name in spans:
        if open_idx < offset < close_idx:
            if best is None or open_idx > best[0]:
                best = (open_idx, name)
    return best[1] if best else None


def body_start(text, close_paren):
    """Offset of the definition body '{' after the parameter list's ')',
    skipping trailing qualifiers and a constructor init list; None when the
    match is a declaration or call."""
    i = close_paren + 1
    n = len(text)
    while i < n:
        rest = text[i:i + 64]
        m = re.match(r"\s*(const|noexcept|override|final|mutable)\b", rest)
        if m:
            i += m.end()
            continue
        m = re.match(r"\s*ASCOMA_\w+\s*(\([^()]*\))?", rest)
        if m and m.group(0).strip():
            i += m.end()
            continue
        m = re.match(r"\s*->\s*[\w:<>,\s&\*]+", rest)
        if m and "{" not in m.group(0):
            i += m.end()
            continue
        break
    while i < n and text[i].isspace():
        i += 1
    if i >= n:
        return None
    if text[i] == "{":
        return i
    if text[i] != ":":
        return None
    # Constructor init list: the body '{' is the first brace at paren depth
    # 0 whose previous non-space char is not part of a brace-initializer
    # head (identifier or '>').
    depth = 0
    j = i + 1
    while j < n:
        c = text[j]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == ";":
            return None
        elif c == "{" and depth == 0:
            k = j - 1
            while k >= 0 and text[k].isspace():
                k -= 1
            if k >= 0 and (text[k].isalnum() or text[k] in "_>"):
                j = match_brace(text, j)  # skip the brace initializer
            else:
                return j
        j += 1
    return None


def parse_params(text, open_paren):
    """{param name: class hint} for the parameter list at open_paren;
    returns (hints, close_paren index)."""
    depth = 0
    i = open_paren
    while i < len(text):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                break
        i += 1
    inner = text[open_paren + 1:i]
    hints = {}
    part, angle, paren = [], 0, 0
    parts = []
    for c in inner:
        if c == "<":
            angle += 1
        elif c == ">":
            angle -= 1
        elif c == "(":
            paren += 1
        elif c == ")":
            paren -= 1
        if c == "," and angle == 0 and paren == 0:
            parts.append("".join(part))
            part = []
        else:
            part.append(c)
    parts.append("".join(part))
    for p in parts:
        m = re.search(r"([A-Za-z_]\w*)\s*(?:=[^,]*)?$", p.strip())
        if m is None:
            continue
        hint = last_class_hint(p[:m.start()])
        if hint:
            hints[m.group(1)] = hint
    return hints, i


def build_model(root: Path, annotations: dict = None,
                skip_files=("src/common/annotate.hh",)) -> Model:
    """Textual front end.  ``annotations`` maps macro token -> root kind
    (e.g. {"ASCOMA_HOT_PATH": "hot_path"}); pass {} for a linter that only
    needs call edges.  ``skip_files`` are macro-definition files that are
    never roots or findings."""
    if annotations is None:
        annotations = {}
    model = Model()
    per_file = []  # (rel, text, spans)
    for path in iter_sources(root):
        rel = path.relative_to(root).as_posix()
        if rel in skip_files:
            continue  # defines the macros; never a root or a finding
        text = strip_comments(path.read_text())
        spans = class_spans(text)
        per_file.append((rel, text, spans))
        for m in INHERIT_RE.finditer(text):
            base = m.group(2).split("::")[-1]
            model.subclasses.setdefault(base, set()).add(
                m.group(1).split("::")[-1])
        for open_idx, close_idx, cls in spans:
            body = text[open_idx + 1:close_idx]
            for mm in MEMBER_RE.finditer(body):
                if "(" in mm.group(1):
                    continue
                # hint may be None (std:: container of builtins); the
                # determinism rule still needs the declared type text.
                model.member_types.setdefault(
                    mm.group(2), (last_class_hint(mm.group(1)), mm.group(1)))

    for rel, text, spans in per_file:
        # Annotation roots and [[noreturn]] cold marks: resolve the macro /
        # attribute token forward to the function name it precedes.
        for token, kind in list(annotations.items()) + [("[[noreturn]]", None)]:
            start = 0
            while True:
                idx = text.find(token, start)
                if idx < 0:
                    break
                start = idx + len(token)
                seg_end = text.find("(", start)
                if seg_end < 0:
                    break
                m = re.search(r"(~?[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*$",
                              text[start:seg_end])
                if m is None:
                    continue
                name = m.group(1)
                if "::" not in name:
                    cls = enclosing_class(spans, idx)
                    if cls:
                        name = f"{cls}::{name}"
                if kind is None:
                    model.cold.add(name)
                else:
                    model.roots.setdefault(kind, set()).add(name)

        # Function definitions (top-level only: matches inside a found body
        # are calls/lambdas and belong to the enclosing definition).
        pos = 0
        while True:
            m = FUNC_NAME_RE.search(text, pos)
            if m is None:
                break
            name = re.sub(r"\s+", "", m.group(1))
            simple = name.split("::")[-1]
            if simple in NOT_FUNC_NAMES or name.split("::")[0] in ("std",):
                pos = m.end()
                continue
            prev = text[:m.start()].rstrip()
            if prev.endswith(".") or prev.endswith("->"):
                pos = m.end()  # member access, not a definition
                continue
            hints, close_paren = parse_params(text, m.end() - 1)
            bstart = body_start(text, close_paren)
            if bstart is None:
                pos = m.end()
                continue
            bend = match_brace(text, bstart)
            qual = name
            if "::" not in qual:
                cls = enclosing_class(spans, m.start())
                if cls:
                    qual = f"{cls}::{qual}"
            else:
                qual = "::".join(qual.split("::")[-2:])
            line = text.count("\n", 0, m.start()) + 1
            prefix_start = max(text.rfind(";", 0, m.start()),
                               text.rfind("}", 0, m.start()),
                               text.rfind("{", 0, m.start()))
            fn = Function(qual, rel, line,
                          strip_check_macros(text[bstart + 1:bend]),
                          text[prefix_start + 1:m.start()])
            fn.param_hints = hints
            if qual not in model.defs:  # first definition wins (overloads
                model.defs[qual] = fn   # share one rule surface)
            else:
                model.defs[qual].body += "\n" + fn.body
            model.by_simple.setdefault(qual.split("::")[-1], [])
            if qual not in model.by_simple[qual.split("::")[-1]]:
                model.by_simple[qual.split("::")[-1]].append(qual)
            pos = bend + 1

    resolve_calls(model)
    return model


def all_subclasses(model: Model, cls: str):
    out, work = set(), [cls]
    while work:
        c = work.pop()
        for d in model.subclasses.get(c, ()):
            if d not in out:
                out.add(d)
                work.append(d)
    return out


def resolve_calls(model: Model):
    for fn in model.defs.values():
        callees = set()
        local_hints = dict(fn.param_hints)
        for m in LOCAL_RE.finditer(fn.body):
            local_hints.setdefault(m.group(2), m.group(1).split("::")[-1])
        own_class = fn.qual.split("::")[0] if "::" in fn.qual else None

        def by_class_hint(cls, method):
            cands = []
            for c in [cls] + sorted(all_subclasses(model, cls)):
                q = f"{c}::{method}"
                if q in model.defs:
                    cands.append(q)
            return cands

        # Precision over recall: an ambiguous call with no usable type hint
        # is dropped rather than fanned out to every same-named method.
        for m in RECEIVER_CALL_RE.finditer(fn.body):
            recv, method = m.group(1), m.group(2)
            matches = model.by_simple.get(method, [])
            if not matches:
                continue
            if recv == "this":
                hint = own_class
            else:
                hint = local_hints.get(recv) or \
                    (model.member_types.get(recv) or (None,))[0]
            if hint:
                callees.update(by_class_hint(hint, method))
            elif len(matches) == 1 and method not in GENERIC_METHODS:
                callees.add(matches[0])
        for m in QUALIFIED_CALL_RE.finditer(fn.body):
            q = f"{m.group(1)}::{m.group(2)}"
            if q in model.defs:
                callees.add(q)
        for m in BARE_CALL_RE.finditer(fn.body):
            name = m.group(1)
            if name in NOT_FUNC_NAMES:
                continue
            matches = model.by_simple.get(name, [])
            if len(matches) == 1:
                callees.add(matches[0])
            elif matches and own_class:
                callees.update(by_class_hint(own_class, name))
        fn.callees = sorted(callees - {fn.qual})


def walk(model: Model, kind: str, boundary, scan):
    """BFS from the `kind` roots; `scan(fn, path)` appends findings for one
    visited function."""
    findings = []
    for root in sorted(model.roots.get(kind, ())):
        seen = set()
        work = [(root, [root])]
        while work:
            qual, path = work.pop()
            if qual in seen or qual in boundary or qual in model.cold:
                continue
            seen.add(qual)
            fn = model.defs.get(qual)
            if fn is None:
                continue  # annotated declaration without a parsed body
            scan(fn, path, findings)
            for callee in fn.callees:
                if callee not in seen:
                    work.append((callee, path + [callee]))
    # One finding per (site, rule), even when reachable from several roots.
    uniq, out = set(), []
    for f in findings:
        key = f.split(" via ")[0]
        if key not in uniq:
            uniq.add(key)
            out.append(f)
    return out


if __name__ == "__main__":
    print(__doc__)
    sys.exit(2)
