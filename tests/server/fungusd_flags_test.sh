#!/bin/sh
# fungusd's numeric flags are checked integers: malformed, signed where
# unsigned is expected, or out-of-range text exits 2 with the usage line
# before the daemon opens a socket or starts a thread. Only malformed
# command lines run here, so no case ever starts a daemon.
#
#   tests/server/fungusd_flags_test.sh <build-dir>
set -u

build_dir=${1:?usage: fungusd_flags_test.sh <build-dir>}
fungusd=$build_dir/tools/fungusd
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

failures=0
expect_usage() {
  timeout 10 "$fungusd" "$@" >"$workdir/out" 2>"$workdir/err"
  status=$?
  if [ "$status" -ne 2 ] || ! grep -q '^usage:' "$workdir/err"; then
    echo "FAIL: fungusd $* exited $status, stderr:" >&2
    cat "$workdir/err" >&2
    failures=$((failures + 1))
  fi
}

expect_usage --port 80x
expect_usage --port 65536
expect_usage --port -1
expect_usage --port ""
expect_usage --port " 80"
expect_usage --queue-capacity -5
expect_usage --queue-capacity 99999999999999999999
expect_usage --max-connections 1e3
expect_usage --read-workers 2.5
expect_usage --read-workers 99999999999
expect_usage --read-workers -2
expect_usage --read-workers 65
expect_usage --http-port 70000
expect_usage --http-port 8080x
expect_usage --drain-grace-ms -1
expect_usage --drain-grace-ms 10ms
expect_usage --port
expect_usage --no-such-flag

if [ "$failures" -ne 0 ]; then
  echo "FAIL: $failures malformed command lines were not refused" >&2
  exit 1
fi
echo "OK: every malformed flag exits 2 with usage"
