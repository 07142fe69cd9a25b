#pragma once

// Hot-path / determinism annotations (ARCHITECTURE.md §16).
//
// These macros mark the functions whose behaviour the static fence in
// tools/lint_hotpath.py guards.  They expand to [[clang::annotate]] under
// clang — so an AST tool can find them — and to nothing everywhere else;
// either way they cost zero code and zero data (tests/test_annotate.cc
// asserts both properties compile-time).  The regex front end of the linter
// matches the macro tokens textually, so annotations work identically on a
// tree that has never been compiled.
//
// Placement: annotate the *declaration* a reader sees first (the one in the
// header, or the definition for file-local functions), before the return
// type:
//
//   ASCOMA_HOT_PATH ProcId pick() const;
//
// What each annotation promises — and what the linter enforces transitively
// over everything the function calls:
//
// ASCOMA_HOT_PATH
//   Runs once per simulated operation (scheduler pick, protocol access,
//   directory lookup, network delivery, event emission, VM fault and
//   kernel paths, table walks).  No heap allocation may be reachable: no
//   new/malloc, no allocating-container growth, no string building.
//   Reasoned exemptions live in HOT_ALLOC_BOUNDARY in
//   tools/lint_hotpath.py; [[noreturn]] functions are cold by declaration
//   and exempt.
//
// ASCOMA_SIGNAL_SAFE
//   Runs in async-signal context (the PR 7 shutdown handler).  Only
//   lock-free atomics and std::signal are reachable: no mutexes, no I/O,
//   no throw, no allocation.
//
// ASCOMA_DETERMINISM_SENSITIVE
//   Feeds a bit-reproducible artifact (the golden CSV, the event stream,
//   the checkpoint codec).  No iteration over unordered containers and no
//   pointer-keyed ordering may be reachable, except through
//   DETERMINISM_BOUNDARY functions that sort before emitting.

#if defined(__clang__)
#define ASCOMA_ANNOTATE(tag) [[clang::annotate(tag)]]
#else
#define ASCOMA_ANNOTATE(tag)
#endif

#define ASCOMA_HOT_PATH ASCOMA_ANNOTATE("ascoma::hot_path")
#define ASCOMA_SIGNAL_SAFE ASCOMA_ANNOTATE("ascoma::signal_safe")
#define ASCOMA_DETERMINISM_SENSITIVE ASCOMA_ANNOTATE("ascoma::determinism_sensitive")
