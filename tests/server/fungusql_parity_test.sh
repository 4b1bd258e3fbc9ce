#!/bin/sh
# Local/remote parity of fungusql: one fixed script of registry meta
# commands (plus \help and SQL) runs through the embedded database and
# through `fungusql --connect` against a fresh fungusd, and the two
# outputs must be identical. \metrics and \trace describe the process
# rather than the database, so they run in a second script that only
# has to succeed in both modes. Last, `SELECT x % -1` over INT64_MIN
# must answer 0 over --connect, and fungusd must keep serving.
#
#   tests/server/fungusql_parity_test.sh <build-dir>
set -eu

build_dir=${1:?usage: fungusql_parity_test.sh <build-dir>}
fungusd=$build_dir/tools/fungusd
fungusql=$build_dir/tools/fungusql

workdir=$(mktemp -d)
daemon=
cleanup() {
  [ -z "$daemon" ] || kill "$daemon" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

"$fungusd" --port 0 --port-file "$workdir/port" &
daemon=$!
tries=0
while [ ! -s "$workdir/port" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "FAIL: fungusd never wrote its port file" >&2
    exit 1
  fi
  sleep 0.1
done
port=$(cat "$workdir/port")

# Every registry command, a few of them failing on purpose (bad
# integers, unknown tables, wrong argument counts): errors must match
# too, code and text.
cat > "$workdir/diffed.sql" <<'EOF'
\help
\create t (a int64, b string null)
\create u (x float64)
\insert t 1,spore
\insert t 2,hypha
\insert t 99999999999999999999,x
\insert nosuch 1
\tables
\attach retention t 1h 1d
\attach window t 1h -5
\freeze t 2
\freeze t -1
\advance 3h
\now
\health
\fsck
\analyze t
\rot t
\storage
\storage t
\cellar
\slowlog 0
\slowlog 99999999999999999999
SELECT count(*) AS n FROM t
SELECT a, b FROM t ORDER BY a
\nosuchcommand
\rot nosuch
\now extra
\quit
EOF

cat > "$workdir/process.sql" <<'EOF'
\metrics
\metrics prom
\trace on
\trace dump
\trace off
\quit
EOF

"$fungusql" < "$workdir/diffed.sql" > "$workdir/local.out" 2>&1 &&
  local_exit=0 || local_exit=$?
"$fungusql" --connect "127.0.0.1:$port" < "$workdir/diffed.sql" \
  > "$workdir/remote.out" 2> "$workdir/remote.err" &&
  remote_exit=0 || remote_exit=$?

if ! diff -u "$workdir/local.out" "$workdir/remote.out"; then
  echo "FAIL: local and --connect output differ" >&2
  exit 1
fi
# The script fails on purpose, so both sessions must exit 1.
if [ "$local_exit" -ne 1 ] || [ "$remote_exit" -ne 1 ]; then
  echo "FAIL: exit codes local=$local_exit remote=$remote_exit, want 1" >&2
  exit 1
fi
grep -q '^fungusql commands:' "$workdir/remote.out" || {
  echo "FAIL: \\help printed nothing over --connect" >&2
  exit 1
}
grep -q '^attached retention(1d) to t every 1h$' "$workdir/remote.out" || {
  echo "FAIL: no \\attach acknowledgement" >&2
  exit 1
}

"$fungusql" < "$workdir/process.sql" > /dev/null || {
  echo "FAIL: \\metrics / \\trace failed on the embedded database" >&2
  exit 1
}
"$fungusql" --connect "127.0.0.1:$port" < "$workdir/process.sql" \
  > /dev/null 2>&1 || {
  echo "FAIL: \\metrics / \\trace failed over --connect" >&2
  exit 1
}

# int64 arithmetic is defined for every input: INT64_MIN % -1 answers
# 0 (it once killed fungusd with SIGFPE), and the daemon keeps serving.
cat > "$workdir/int64.sql" <<'EOF'
\create m (x int64)
\insert m -9223372036854775808
SELECT x % -1 AS r FROM m
\quit
EOF
"$fungusql" --connect "127.0.0.1:$port" < "$workdir/int64.sql" \
  > "$workdir/int64.out" 2>&1 || {
  echo "FAIL: SELECT x % -1 over INT64_MIN failed over --connect" >&2
  cat "$workdir/int64.out" >&2
  exit 1
}
printf '| r |\n|---|\n| 0 |\n(1 rows)\n' > "$workdir/int64.want"
if ! tail -n 4 "$workdir/int64.out" | diff -u "$workdir/int64.want" -; then
  echo "FAIL: INT64_MIN % -1 did not answer 0" >&2
  exit 1
fi
echo 'SELECT count(*) AS n FROM m' |
  "$fungusql" --connect "127.0.0.1:$port" > /dev/null 2>&1 || {
  echo "FAIL: fungusd stopped serving after INT64_MIN % -1" >&2
  exit 1
}

kill -TERM "$daemon"
wait "$daemon"
daemon=
echo "PASS: fungusql answers the same locally and over --connect"
