#!/usr/bin/env python3
"""Hot-path & determinism static fence (ARCHITECTURE.md §16; CI runs this
on every push, before the build).

The simulator core is annotated with the zero-cost attributes from
src/common/annotate.hh; this tool builds a call graph over src/ (the
shared walker in tools/lint_common.py)
and walks it transitively from every annotated root, enforcing:

R1 (ASCOMA_HOT_PATH) — no heap allocation reachable: no new/malloc, no
   allocating-container growth (push_back/emplace/insert/resize/...), no
   string building.  Reasoned exemptions live in HOT_ALLOC_BOUNDARY;
   [[noreturn]] functions are cold by declaration and never entered.
   ASCOMA_CHECK/ASCOMA_CHECK_MSG invocations are stripped before scanning —
   they build their message only on the failure branch.

R2 (ASCOMA_SIGNAL_SAFE) — async-signal context: no mutexes, no
   <iostream> or stdio, no throw, no allocation.  Lock-free atomics and std::signal are the only sanctioned
   primitives.

R3 (ASCOMA_DETERMINISM_SENSITIVE) — code feeding a bit-reproducible
   artifact (golden CSV, event stream, checkpoint codec) must not iterate
   unordered containers or order by pointer keys, except through
   DETERMINISM_BOUNDARY functions that sort before emitting.

R4 (seeded-RNG boundary) — no rand/random_device/host-clock use anywhere
   in src/ outside the files in RNG_BOUNDARY_FILES: simulated behaviour may
   only draw randomness from the seeded RNG (src/common/rng.hh) and may
   never read host time.

The front end is textual: it parses the macro tokens and resolves callees
by simple name with receiver-type hints (member/param/local declarations)
plus an inheritance map for virtual dispatch, so it runs on a tree that has
never been compiled.  The finding set is a zero baseline — any new finding
fails.

Usage: tools/lint_hotpath.py [repo-root]    (exit 0 clean, 1 findings,
       tools/lint_hotpath.py --self-test     2 usage/internal error)
"""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from lint_common import (Function, build_model, iter_sources, repo_root,
                         strip_comments, walk)

ANNOTATIONS = {
    "ASCOMA_HOT_PATH": "hot_path",
    "ASCOMA_SIGNAL_SAFE": "signal_safe",
    "ASCOMA_DETERMINISM_SENSITIVE": "determinism_sensitive",
}

# ---- reasoned exemptions ----------------------------------------------------
# Same contract as lint_types' CAST_BOUNDARY_FILES: every entry needs a
# justification of the same kind, and the traversal stops at the boundary
# (the function's body and callees are trusted, not scanned).

HOT_ALLOC_BOUNDARY = {
    # ring buffer reserve()d at construction; full buffer drops, never grows
    "Probe::event",
    # telemetry samples, rate-limited by the Sampler period; amortized vector
    "EventSink::add_sample",
    # activity bitmap pre-sized by reserve_pages() at machine setup; the
    # clock ring doubles only when full, so it allocates O(log n) times a run
    "PageCache::add_active",
    # setup-time sizing; no-op on the fault path once pre-sized
    "PageCache::reserve_pages",
    # push_back bounded by capacity (double release is a checked failure)
    "PageCache::release",
    # cold growth for direct-construction tests; pre-sized in simulator runs
    # (VcNumaPolicy::grow_for is only called from the un-fenced step loop)
    "AsComaPolicy::grow_for",
    # watchdog diagnostics: reached only after the expiry guard fired
    "CoherentMemory::check_watchdog",
}

SIGNAL_BOUNDARY = set()  # nothing exempted: the handler must stay primitive

DETERMINISM_BOUNDARY = {
    # collects the unordered map's lock ids and sorts before emitting
    "LockTable::encode",
}

# The only files allowed to touch host randomness/time: the seeded RNG and
# the host-side telemetry that never feeds simulated state.
RNG_BOUNDARY_FILES = {
    "src/common/rng.hh",      # the seeded RNG implementation itself
    "src/core/host.cc",       # SteadyClock: sweep wall-time telemetry
    "src/core/sweep.cc",      # wall-time ETA / sim-rate telemetry
}

# ---- forbidden-token tables -------------------------------------------------

ALLOC_RE = re.compile(
    r"\bnew\b(?!\s*\()"                      # new T / new T[] (not a macro arg)
    r"|\b(?:malloc|calloc|realloc|strdup)\s*\("
    r"|\bmake_(?:unique|shared)\b"
    r"|(?:\.|->)(?:push_back|push_front|emplace_back|emplace_front|emplace"
    r"|insert|resize|reserve|assign|append)\s*\("
    r"|\bstd::to_string\s*\("
    r"|\bstd::string\s*[({]"
    r"|\bstd::(?:vector|deque|map|set|unordered_map|unordered_set|list"
    r"|string)\s*<[^;=]*>\s+\w+\s*[;({=]"     # allocating-container local
)

SIGNAL_RE = re.compile(
    r"\b(?:std::)?(?:mutex|recursive_mutex|shared_mutex|lock_guard"
    r"|unique_lock|scoped_lock|condition_variable)\b"
    r"|\bthrow\b"
    r"|\b(?:printf|fprintf|puts|fputs|fwrite|fopen|snprintf)\s*\("
    r"|\bstd::c(?:out|err|log)\b"
)

RNG_RE = re.compile(
    r"\bstd::chrono\b|\brandom_device\b|\bmt19937\b|\bstd::rand\b"
    r"|\bsrand\s*\(|\brand\s*\(\s*\)"
    r"|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\("
)

RANGE_FOR_RE = re.compile(r"for\s*\([^;()]*?:\s*(?:\*?)([a-z_]\w*)\s*\)")
BEGIN_CALL_RE = re.compile(r"\b([a-z_]\w*)\s*\.\s*(?:begin|cbegin)\s*\(\)")


# ---- rule walks -------------------------------------------------------------


def finding_site(fn: Function, match: re.Match) -> str:
    line = fn.line + fn.body.count("\n", 0, match.start())
    return f"{fn.rel}:{line}"


def lint_hot_alloc(model):
    def scan(fn, path, findings):
        for m in ALLOC_RE.finditer(fn.body):
            findings.append(
                f"{finding_site(fn, m)}: [hot-path] allocation "
                f"'{m.group(0).strip().rstrip('(').lstrip('.->')}' reachable from "
                f"ASCOMA_HOT_PATH root '{path[0]}' via {' -> '.join(path)} — "
                f"hoist it off the hot path, mark the helper [[noreturn]] if "
                f"it is a cold failure, or add a HOT_ALLOC_BOUNDARY entry "
                f"with a reason")
    return walk(model, "hot_path", HOT_ALLOC_BOUNDARY, scan)


def lint_signal_safe(model):
    def scan(fn, path, findings):
        for m in SIGNAL_RE.finditer(fn.body):
            findings.append(
                f"{finding_site(fn, m)}: [signal-safe] "
                f"'{m.group(0).strip().rstrip('(').lstrip('.->')}' reachable from "
                f"ASCOMA_SIGNAL_SAFE root '{path[0]}' via "
                f"{' -> '.join(path)} — only lock-free atomics and "
                f"std::signal are async-signal-safe")
        for m in ALLOC_RE.finditer(fn.body):
            findings.append(
                f"{finding_site(fn, m)}: [signal-safe] allocation "
                f"'{m.group(0).strip().rstrip('(').lstrip('.->')}' reachable from "
                f"ASCOMA_SIGNAL_SAFE root '{path[0]}' via "
                f"{' -> '.join(path)} — the heap is not async-signal-safe")
    return walk(model, "signal_safe", SIGNAL_BOUNDARY, scan)


def lint_determinism(model):
    def scan(fn, path, findings):
        iterated = [m.group(1) for m in RANGE_FOR_RE.finditer(fn.body)]
        iterated += [m.group(1) for m in BEGIN_CALL_RE.finditer(fn.body)]
        for name in iterated:
            hint = model.member_types.get(name)
            if hint is None:
                continue
            _, full_type = hint
            if "unordered" in full_type:
                findings.append(
                    f"{fn.rel}:{fn.line}: [determinism] '{fn.qual}' iterates "
                    f"unordered container '{name}' "
                    f"({full_type.strip()}) and is reachable from "
                    f"ASCOMA_DETERMINISM_SENSITIVE root '{path[0]}' via "
                    f"{' -> '.join(path)} — sort before emitting, or add a "
                    f"DETERMINISM_BOUNDARY entry with a reason")
            if re.search(r"(?:map|set)\s*<[^,>]*\*", full_type):
                findings.append(
                    f"{fn.rel}:{fn.line}: [determinism] '{fn.qual}' iterates "
                    f"pointer-keyed container '{name}' — pointer order is "
                    f"not reproducible across runs")
    return walk(model, "determinism_sensitive", DETERMINISM_BOUNDARY, scan)


def lint_rng_boundary(root: Path):
    findings = []
    for path in iter_sources(root):
        rel = path.relative_to(root).as_posix()
        if rel in RNG_BOUNDARY_FILES:
            continue
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            m = RNG_RE.search(line)
            if m:
                findings.append(
                    f"{rel}:{lineno}: [rng-boundary] "
                    f"'{m.group(0).strip()}' outside the seeded-RNG/host-"
                    f"telemetry boundary — draw randomness from "
                    f"src/common/rng.hh, or add this file to "
                    f"RNG_BOUNDARY_FILES with a reason")
    return findings


# ---- driver -----------------------------------------------------------------


def run(root: Path):
    model = build_model(root, annotations=ANNOTATIONS)
    findings = (lint_hot_alloc(model) + lint_signal_safe(model)
                + lint_determinism(model) + lint_rng_boundary(root))
    return findings, model


# ---- self-test --------------------------------------------------------------

FIXTURE_COMMON = {
    "src/common/annotate.hh": """
#define ASCOMA_HOT_PATH
#define ASCOMA_SIGNAL_SAFE
#define ASCOMA_DETERMINISM_SENSITIVE
""",
}

FIXTURE_PRISTINE = {
    **FIXTURE_COMMON,
    "src/sim/core.hh": """
class Engine {
 public:
  ASCOMA_HOT_PATH int step(int x);
  ASCOMA_DETERMINISM_SENSITIVE void save(Encoder& e) const;
  void decode(Decoder& d);
 private:
  int cheap_helper(int x);
  std::vector<int> table_;
};
ASCOMA_SIGNAL_SAFE void on_signal(int sig);
""",
    "src/sim/core.cc": """
int Engine::step(int x) { return cheap_helper(x) + 1; }
int Engine::cheap_helper(int x) { return table_[x]; }
void Engine::save(Encoder& e) const { e.u64(table_.size()); }
void on_signal(int sig) { g_flag.store(sig); }
[[noreturn]] void die(int code) {
  throw std::runtime_error(std::to_string(code));
}
""",
}

FIXTURE_BAD = {
    **FIXTURE_COMMON,
    "src/sim/bad.hh": """
class Engine {
 public:
  ASCOMA_HOT_PATH int step(int x);
  ASCOMA_HOT_PATH int step2(int x);
  ASCOMA_DETERMINISM_SENSITIVE void save(Encoder& e) const;
  void decode(Decoder& d);
  ASCOMA_DETERMINISM_SENSITIVE void save2(Encoder& e) const;
  void decode2(Decoder& d);
 private:
  int deep_helper(int x);
  void dump_members(Encoder& e) const;
  std::vector<int> log_;
  std::unordered_map<int, int> stats_;
};
ASCOMA_SIGNAL_SAFE void on_signal(int sig);
ASCOMA_SIGNAL_SAFE void on_signal2(int sig);
void log_line(const char* msg);
""",
    "src/sim/bad.cc": """
int Engine::step(int x) {
  log_.push_back(x);
  return x;
}
int Engine::step2(int x) { return deep_helper(x); }
int Engine::deep_helper(int x) {
  int* p = new int(x);
  return *p;
}
void Engine::save(Encoder& e) const {
  for (const auto& [k, v] : stats_) e.u64(v);
}
void Engine::save2(Encoder& e) const { dump_members(e); }
void Engine::dump_members(Encoder& e) const {
  for (auto it = stats_.begin(); it != stats_.end(); ++it) e.u64(it->first);
}
void on_signal(int sig) {
  std::mutex m;
  g_flag.store(sig);
}
void on_signal2(int sig) { log_line("caught"); }
void log_line(const char* msg) { fprintf(stderr, "%s", msg); }
""",
    "src/sim/seed.cc": """
unsigned host_entropy() {
  std::random_device rd;
  return rd();
}
""",
    "src/sim/stamp.cc": """
long stamp_now() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
""",
}

SELF_TEST_EXPECT = [
    # R1 direct and transitive
    ("src/sim/bad.cc", "[hot-path] allocation 'push_back'", "Engine::step"),
    ("src/sim/bad.cc", "[hot-path] allocation 'new'",
     "Engine::step2 -> Engine::deep_helper"),
    # R2 direct and transitive
    ("src/sim/bad.cc", "[signal-safe] 'std::mutex'", "on_signal"),
    ("src/sim/bad.cc", "[signal-safe] 'fprintf'", "on_signal2 -> log_line"),
    # R3 direct (range-for) and transitive (.begin() walk)
    ("src/sim/bad.cc", "[determinism] 'Engine::save' iterates unordered",
     "Engine::save"),
    ("src/sim/bad.cc", "[determinism] 'Engine::dump_members' iterates "
     "unordered", "Engine::save2 -> Engine::dump_members"),
    # R4: host randomness and host time
    ("src/sim/seed.cc", "[rng-boundary] 'random_device'", ""),
    ("src/sim/stamp.cc", "[rng-boundary] 'std::chrono'", ""),
]


def self_test() -> int:
    import tempfile
    from lint_common import write_src_tree

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        good = Path(tmp) / "good"
        write_src_tree(good, FIXTURE_PRISTINE)
        findings, model = run(good)
        if findings:
            failures.append(f"pristine fixture not clean: {findings}")
        if len(model.roots.get("hot_path", ())) != 1 or \
                "die" not in model.cold:
            failures.append("pristine fixture parse drift "
                            f"(roots={model.roots}, cold={model.cold})")

        bad = Path(tmp) / "bad"
        write_src_tree(bad, FIXTURE_BAD)
        findings, _ = run(bad)
        for rel, token, via in SELF_TEST_EXPECT:
            hit = [f for f in findings
                   if f.startswith(rel) and token in f and via in f]
            if not hit:
                failures.append(f"did not flag: {rel} … {token} … {via}")
        if len(findings) < len(SELF_TEST_EXPECT):
            failures.append(
                f"only {len(findings)} findings on the bad fixture "
                f"(expected >= {len(SELF_TEST_EXPECT)})")

    if failures:
        print("lint_hotpath: SELF-TEST FAILED")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"lint_hotpath: self-test OK (pristine fixture clean; all "
          f"{len(SELF_TEST_EXPECT)} seeded violations flagged)")
    return 0


def main() -> int:
    argv = sys.argv[1:]
    if "--self-test" in argv:
        return self_test()
    if len(argv) > 1:
        print(__doc__)
        return 2
    root = repo_root(argv)
    findings, model = run(root)
    for f in findings:
        print(f"lint_hotpath: {f}")
    if findings:
        print(f"lint_hotpath: {len(findings)} finding(s)")
        return 1
    n_roots = sum(len(v) for v in model.roots.values())
    print(f"lint_hotpath: OK ({n_roots} annotated roots; no "
          f"allocation on hot paths, signal handler primitive, determinism-"
          f"sensitive code ordered, host randomness/time fenced)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
