#!/usr/bin/env bash
# Negative-compile check for the concurrency fence (ARCHITECTURE.md §17,
# src/common/sync.hh, tests/test_sync.cc).
#
# The annotated primitives are only worth anything if clang actually
# rejects a violation: this script compiles a snippet that reads an
# ASCOMA_GUARDED_BY field without the lock and asserts that it FAILS
# under `clang++ -Wthread-safety -Werror` — for the thread-safety reason,
# not some unrelated error — then compiles the corrected snippet and
# asserts that it passes.  A silent pass of the violating snippet means
# the attributes have rotted into no-ops on clang and the fence is dead.
#
# Exit codes: 0 checks pass (or no clang++ available — the attributes are
# defined away off-clang, so there is nothing to check), 1 fence broken.
set -u
cd "$(dirname "$0")/.."

CXX="${CXX:-clang++}"
if ! command -v "$CXX" >/dev/null 2>&1 ||
   ! "$CXX" --version 2>/dev/null | grep -qi clang; then
  echo "check_thread_safety: no clang++ on PATH; attributes compile away" \
       "elsewhere — skipping (CI runs this with clang installed)"
  exit 0
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The violation: jobs_done is guarded, read_unlocked() touches it bare.
cat > "$tmp/violation.cc" <<'EOF'
#include "common/sync.hh"
struct Board {
  mutable ascoma::Mutex mu;
  int jobs_done ASCOMA_GUARDED_BY(mu) = 0;
  int read_unlocked() const { return jobs_done; }  // must NOT compile
};
int main() {
  Board b;
  return b.read_unlocked();
}
EOF

# The fix: identical shape, read under a LockGuard.
cat > "$tmp/corrected.cc" <<'EOF'
#include "common/sync.hh"
struct Board {
  mutable ascoma::Mutex mu;
  int jobs_done ASCOMA_GUARDED_BY(mu) = 0;
  int read_locked() const {
    ascoma::LockGuard lock(mu);
    return jobs_done;
  }
};
int main() {
  Board b;
  return b.read_locked();
}
EOF

flags=(-std=c++20 -fsyntax-only -Isrc -Wthread-safety -Werror)

if "$CXX" "${flags[@]}" "$tmp/violation.cc" 2> "$tmp/violation.log"; then
  echo "FAIL: the GUARDED_BY violation compiled clean under" \
       "-Wthread-safety -Werror — the annotations are not biting"
  exit 1
fi
if ! grep -q "thread-safety" "$tmp/violation.log"; then
  echo "FAIL: the violation snippet was rejected for the wrong reason:"
  cat "$tmp/violation.log"
  exit 1
fi

if ! "$CXX" "${flags[@]}" "$tmp/corrected.cc" 2> "$tmp/corrected.log"; then
  echo "FAIL: the corrected snippet does not compile:"
  cat "$tmp/corrected.log"
  exit 1
fi

echo "check_thread_safety: OK — GUARDED_BY violation rejected" \
     "([-Wthread-safety]), corrected snippet accepted"
