#!/usr/bin/env python3
"""Self-test for the project's static-analysis passes.

Runs tools/lint/fungus_lint.py and tools/analyze/capability_audit.py
against the fixture trees in tools/lint/testdata/ and asserts:

  * each good tree is clean (exit 0), which also proves the
    pin-discipline allowlist honors tests/core/epoch_test.cc;
  * each bad tree produces exactly the expected (file, rule) findings
    (exit 1) — no missed violations, no spurious ones;
  * the real repo is clean, which proves the testdata exclusion keeps
    these deliberately-broken fixtures out of the production walk.

Registered as the `lint_selftest` ctest so a regression in either tool
fails tier-1, not just the CI lint job.
"""

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
LINT = HERE / "fungus_lint.py"
AUDIT = REPO / "tools" / "analyze" / "capability_audit.py"
TESTDATA = HERE / "testdata"

# Every finding the bad trees must produce, as (file, rule) pairs.
# Line numbers are deliberately not pinned — fixtures may grow comments
# — but counts are: a rule firing twice where once is expected fails.
LINT_BAD_EXPECTED = sorted([
    ("src/common/status.h", "nodiscard"),
    ("src/core/offender.cc", "void-discard"),
    ("src/core/offender.cc", "naked-random"),
    ("src/core/offender.cc", "pin-discipline"),
    ("src/core/offender.cc", "metric-naming"),
    ("src/core/offender.cc", "wire-framing"),
    ("src/core/hygiene.cc", "no-suppression"),
    ("src/core/hygiene.cc", "hygiene"),  # tab
    ("src/core/hygiene.cc", "hygiene"),  # trailing whitespace
    ("src/core/hygiene.cc", "hygiene"),  # missing newline at EOF
    ("src/query/vector_eval_extra.cc", "vector-hot-loop"),
    ("src/query/aggregate_extra.cc", "vector-hot-loop"),
    ("src/query/rogue_span.cc", "encoded-access"),
    ("src/server/http_rogue.cc", "http-handler"),  # Table& / .table()
    ("src/server/http_rogue.cc", "http-handler"),  # GetStorageStats()
    ("tests/core/pin_test.cc", "pin-discipline"),
    ("examples/rogue_example.cpp", "public-api"),
    ("tools/rogue_tool.cc", "public-api"),
])

AUDIT_BAD_EXPECTED = sorted([
    ("src/core/unguarded.h", "guarded-by"),
    ("src/core/raw.cc", "raw-mutex"),      # std::mutex member
    ("src/core/raw.cc", "raw-mutex"),      # std::lock_guard
    ("src/core/escape.cc", "no-tsa-escape"),
    ("src/storage/rogue.cc", "apply-phase"),
])

failures = []


def run(tool, root):
    proc = subprocess.run(
        [sys.executable, str(tool), str(root)],
        capture_output=True, text=True)
    findings = []
    for line in proc.stdout.splitlines():
        parts = line.split(": ", 2)
        if len(parts) == 3 and ":" in parts[0]:
            path, _, _ = parts[0].rpartition(":")
            findings.append((path, parts[1]))
    return proc.returncode, sorted(findings), proc.stdout + proc.stderr


def expect(label, tool, root, want_code, want_findings):
    code, findings, output = run(tool, root)
    if code != want_code:
        failures.append("%s: exit %d, want %d\n%s" %
                        (label, code, want_code, output))
    if findings != want_findings:
        missing = [f for f in want_findings if f not in findings]
        extra = [f for f in findings if f not in want_findings]
        failures.append("%s: findings mismatch\n  missing: %s\n"
                        "  extra:   %s" % (label, missing, extra))


def main():
    expect("lint/good", LINT, TESTDATA / "lint_good", 0, [])
    expect("lint/bad", LINT, TESTDATA / "lint_bad", 1,
           LINT_BAD_EXPECTED)
    expect("audit/good", AUDIT, TESTDATA / "audit_good", 0, [])
    expect("audit/bad", AUDIT, TESTDATA / "audit_bad", 1,
           AUDIT_BAD_EXPECTED)
    expect("lint/repo", LINT, REPO, 0, [])
    expect("audit/repo", AUDIT, REPO, 0, [])

    if failures:
        for failure in failures:
            print("FAIL %s" % failure)
        print("lint_selftest: %d failure(s)" % len(failures))
        return 1
    print("lint_selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
