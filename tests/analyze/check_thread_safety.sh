#!/bin/sh
# Compile-time verification of the database lock's capability model.
#
# Usage: check_thread_safety.sh <clang++> <repo-root>
#
# Two checks, both syntax-only (no linking, no gtest needed):
#   1. rw_lock_capability_positive.cc compiles cleanly — correctly
#      annotated code does not fight the analysis;
#   2. rw_lock_capability_negative.cc FAILS with a -Wthread-safety
#      diagnostic — a read lock cannot reach a REQUIRES(lock) writer
#      API. A clean compile here means the contract has a hole.
#
# Registered as the `thread_safety_compile` ctest when clang++ is on
# PATH (the analysis is clang-only; GCC builds compile the annotations
# to nothing), and run unconditionally by the CI thread-safety job.

set -u

CLANGXX="$1"
ROOT="$2"
HERE="$ROOT/tests/analyze"

FLAGS="-std=c++20 -fsyntax-only -I$ROOT/src -I$ROOT/include \
  -Wthread-safety -Wthread-safety-beta \
  -Werror=thread-safety -Werror=thread-safety-beta"

status=0

if ! out=$("$CLANGXX" $FLAGS "$HERE/rw_lock_capability_positive.cc" 2>&1); then
  echo "FAIL: positive capability test did not compile:"
  echo "$out"
  status=1
else
  echo "ok: positive capability test compiles cleanly"
fi

if out=$("$CLANGXX" $FLAGS "$HERE/rw_lock_capability_negative.cc" 2>&1); then
  echo "FAIL: negative capability test COMPILED — a read lock reached"
  echo "      a REQUIRES(lock) writer API without a diagnostic"
  status=1
elif ! echo "$out" | grep -q "thread-safety"; then
  echo "FAIL: negative capability test failed for the wrong reason:"
  echo "$out"
  status=1
else
  echo "ok: negative capability test rejected with a thread-safety error"
fi

exit $status
