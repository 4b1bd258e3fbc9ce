#!/bin/sh
# Compile-time check that a discarded database lock is an error.
#
# Usage: check_discarded_lock.sh <c++ compiler> <repo-root>
#
# Three syntax-only builds of discarded_lock_negative.cc:
#   1. -DDISCARD_READ_LOCK  (`RwLock::ReadLock{lock};`) must FAIL with
#      an unused-result diagnostic;
#   2. -DDISCARD_WRITE_LOCK (`RwLock::WriteLock{lock};`) likewise;
#   3. no define — bound guards, the positive control — must compile.
# A clean compile of 1 or 2 means a guard constructor lost its
# [[nodiscard]]. Works under GCC (-Wunused-result) and clang, which
# files the same warning under -Wunused-value.
#
# Registered as the `discarded_lock_compile` ctest with the build's own
# C++ compiler.

set -u

CXX="$1"
ROOT="$2"
SRC="$ROOT/tests/analyze/discarded_lock_negative.cc"

FLAGS="-std=c++20 -fsyntax-only -I$ROOT/src \
  -Werror=unused-result -Werror=unused-value"

status=0

if ! out=$("$CXX" $FLAGS "$SRC" 2>&1); then
  echo "FAIL: positive control (bound guards) did not compile:"
  echo "$out"
  status=1
else
  echo "ok: bound guards compile cleanly"
fi

for define in DISCARD_READ_LOCK DISCARD_WRITE_LOCK; do
  if out=$("$CXX" $FLAGS "-D$define" "$SRC" 2>&1); then
    echo "FAIL: $define COMPILED — a discarded lock went unnoticed"
    status=1
  elif ! echo "$out" | grep -Eq "unused-(result|value)"; then
    echo "FAIL: $define failed for the wrong reason:"
    echo "$out"
    status=1
  else
    echo "ok: $define rejected with an unused-result error"
  fi
done

exit $status
