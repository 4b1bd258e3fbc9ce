#!/usr/bin/env python3
"""FungusDB project lint.

Enforces the repo-specific rules that generic linters cannot:

  nodiscard       src/common/status.h and src/common/result.h must keep
                  the [[nodiscard]] attribute on Status / Result, so the
                  compiler flags every silently-dropped error.
  void-discard    no `(void)SomeCall(...)` escapes from [[nodiscard]];
                  `(void)identifier;` for unused parameters stays legal.
  naked-random    no std::rand / srand / time(nullptr) / random_device /
                  mt19937 outside src/common/random.* — all randomness
                  goes through the seeded, reproducible common/random.
  pin-discipline  no immediately-destroyed epoch pins: `PinRead();` or
                  `BeginWrite();` as a whole statement takes and drops
                  the pin in one expression, which synchronizes nothing
                  and usually means the author thought they were
                  holding it. Scans tests/ too (the compile-time
                  [[nodiscard]] already covers expression contexts);
                  tests/core/epoch_test.cc is the one allowed exception
                  (it tests the pin mechanics themselves).
  wire-framing    raw framing primitives — hton*/ntoh* byte-order calls
                  and memcpy-into-lvalue decoding — only in
                  src/server/wire_format.* (the one place that lays out
                  network bytes) plus the two pre-existing binary codec
                  internals (common/buffer_io.h, summary/hashing.cc).
                  Everything else goes through BufferWriter/BufferReader.
  vector-hot-loop the batch kernels — the vectorized filter
                  (src/query/vector_eval.*) and the typed aggregate /
                  GROUP BY / projection pipeline (src/query/aggregate.*)
                  — must stay Value-free: no GetValue( calls — boxing a
                  Value per row is exactly what the kernels exist to
                  avoid; read typed column spans instead.
  encoded-access  outside src/storage/, no code may assume the plain
                  (thawed) representation: the raw span accessors
                  (ts_data/freshness_data/alive_data), Segment::column()
                  and the columns_ member all assert !is_frozen(), so a
                  caller that compiles today crashes the moment the
                  freeze policy touches its table. Everything above the
                  storage layer goes through the tier-independent cell
                  accessors and the decode-to-scratch API
                  (storage/segment.h). One carve-out:
                  src/verify/corruptor.cc seeds corruption through its
                  friendship on purpose.
  http-handler    the HTTP observability plane (src/server/http_*) reads
                  database state only through epoch-pinned facade calls
                  and the public stats structs (TableHandle,
                  Database::RotReportFor, StorageStats) — never through
                  Table pointers/references, the TableHandle::table()
                  escape hatch, MutableTable, BuildRotReport or
                  GetStorageStats on a raw Table. A handler that held a
                  Table* could outlive its pin or bypass the tier
                  contract; the narrow surface keeps the plane auditable.
  public-api      examples/ and tools/ consume the library through the
                  public headers (include/fungusdb/...), never through
                  src/... directly — they are the reference embedders,
                  so a src include there silently grows the de-facto
                  API. The two daemons keep narrow, explicit carve-outs
                  for server internals that are deliberately not public
                  (fungusd.cc -> server/server.h; funguscheck.cc ->
                  persist/fsck.h + server/wire_format.h).
  metric-naming   every literal metric name handed to the MetricsRegistry
                  API must follow fungusdb.<subsystem>.<name> (lowercase
                  dotted, at least two segments after the fungusdb
                  prefix) so dashboards and the Prometheus exporter see
                  one coherent namespace (DESIGN.md §12).
  no-suppression  no NOLINT / lint-off escapes inside src/.
  hygiene         no tabs, no trailing whitespace, newline at EOF.

The concurrency-contract rules (guarded-by coverage, raw-mutex ban,
apply-phase whitelist) live in tools/analyze/capability_audit.py.

Usage: tools/lint/fungus_lint.py [repo-root]
Exits 0 when clean, 1 with one "file:line: rule: message" per finding.
"""

import pathlib
import re
import sys

CXX_SUFFIXES = {".h", ".cc", ".cpp"}

PIN_DISCIPLINE_ALLOWLIST = {
    "tests/core/epoch_test.cc",  # tests the pin mechanics themselves
}

NAKED_RANDOM_ALLOWLIST = {
    "src/common/random.h",
    "src/common/random.cc",
}

WIRE_FRAMING_ALLOWLIST = {
    "src/server/wire_format.h",   # the wire protocol itself
    "src/server/wire_format.cc",
    "src/common/buffer_io.h",     # the codec the protocol is built on
    "src/summary/hashing.cc",     # double -> bits for hashing, not framing
}

# Top-level directories under src/ — an include of "<one of these>/..."
# from examples/ or tools/ bypasses the public API.
SRC_TOP_DIRS = ("common", "core", "fungus", "persist", "pipeline",
                "query", "server", "storage", "summary", "verify",
                "workload")

# The daemons may reach named server internals that are deliberately
# not part of the embedder API.
PUBLIC_API_ALLOWLIST = {
    "tools/fungusd.cc": {"server/server.h", "server/http_debug.h"},
    "tools/funguscheck.cc": {"persist/fsck.h", "server/wire_format.h"},
}

# The batch kernels that must read typed column spans, never GetValue(.
VECTOR_HOT_LOOP_PREFIXES = ("src/query/vector_eval", "src/query/aggregate")

# The corruption seeder writes raw segment state through its friendship
# by design — it exists to plant exactly the damage fsck must detect.
ENCODED_ACCESS_ALLOWLIST = {
    "src/verify/corruptor.cc",
}

RE_VOID_DISCARD = re.compile(r"\(void\)\s*[\w:]+(?:\.|->|\()")
RE_VOID_BARE = re.compile(r"\(void\)\s*\w+\s*;")
RE_NAKED_RANDOM = re.compile(
    r"(?:std::)?(?:\brand\s*\(|\bsrand\s*\(|\brandom_device\b"
    r"|\bmt19937\b)|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)")
RE_SUPPRESSION = re.compile(r"NOLINT|fungus-lint-off")
RE_WIRE_FRAMING = re.compile(
    r"\b(?:hton|ntoh)(?:s|l|ll)\s*\("
    r"|\b(?:__builtin_)?memcpy\s*\(\s*&")
RE_GET_VALUE = re.compile(r"\bGetValue\s*\(")
RE_ENCODED_ACCESS = re.compile(
    r"\b(?:ts_data|freshness_data|alive_data)\s*\("
    r"|\bcolumns_\b"
    r"|(?:\.|->)\s*column\s*\(")
# A statement that is nothing but a pin acquisition: the scoped result
# is a temporary, destroyed before the semicolon.
RE_PIN_DISCARD = re.compile(
    r"^\s*(?:[\w:]+(?:\(\s*\))?\s*(?:\.|->)\s*)*"
    r"(?:PinRead|BeginWrite)\s*\(\s*\)\s*;")
RE_HTTP_HANDLER = re.compile(
    r"\bTable\b\s*[*&]"
    r"|\bMutableTable\s*\("
    r"|(?:\.|->)\s*table\s*\("
    r"|\bBuildRotReport\s*\("
    r"|\bGetStorageStats\s*\(")
RE_METRIC_CALL = re.compile(
    r"\b(?:IncrementCounter|SetGauge|RecordHistogram|GetCounter"
    r"|GetGauge|FindHistogram|Histogram)\s*\(\s*\"([^\"]*)\"")
RE_METRIC_NAME = re.compile(r"^fungusdb(?:\.[a-z0-9_]+){2,}$")
RE_SRC_INCLUDE = re.compile(
    r'^\s*#\s*include\s*"((?:%s)/[^"]+)"' % "|".join(SRC_TOP_DIRS))


def scrub(text):
    """Blanks out comments and string/char literals, preserving line
    structure, so rules never fire on prose or test data."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:end]))
            i = end
        elif c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append("  ")
                    i += 2
                else:
                    out.append(" " if text[i] != "\n" else "\n")
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def scrub_comments_only(text):
    """Blanks out comments but KEEPS string literals, for rules that
    inspect literal arguments (metric-naming)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:end]))
            i = end
        elif c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i:i + 2])
                    i += 2
                else:
                    out.append(text[i])
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def lint_pin_discipline(rel, code, findings):
    if rel in PIN_DISCIPLINE_ALLOWLIST:
        return
    for lineno, line in enumerate(code.splitlines(), start=1):
        if RE_PIN_DISCARD.match(line):
            findings.append((rel, lineno, "pin-discipline",
                             "epoch pin discarded in the same statement;"
                             " bind it (EpochManager::ReadPin pin = ...)"
                             " so it covers the reads it protects"))


def lint_public_api(rel, raw, findings):
    """Flags src/... includes in the reference embedders (examples/,
    tools/). Scans a comment-only scrub so commented-out includes do
    not fire, but the include path (a string literal) survives."""
    if not (rel.startswith("examples/") or rel.startswith("tools/")):
        return
    allowed = PUBLIC_API_ALLOWLIST.get(rel, set())
    for lineno, line in enumerate(scrub_comments_only(raw).splitlines(),
                                  start=1):
        match = RE_SRC_INCLUDE.match(line)
        if match and match.group(1) not in allowed:
            findings.append((rel, lineno, "public-api",
                             'include "%s" reaches into src/; use the'
                             " public fungusdb/ headers"
                             " (include/fungusdb)" % match.group(1)))


def lint_file(root, path, findings):
    rel = path.relative_to(root).as_posix()
    raw = path.read_text(encoding="utf-8")
    code = scrub(raw)
    lint_pin_discipline(rel, code, findings)
    lint_public_api(rel, raw, findings)

    # Metric names live inside string literals, so this rule scans a
    # comment-only scrub that keeps them.
    for lineno, line in enumerate(scrub_comments_only(raw).splitlines(),
                                  start=1):
        for match in RE_METRIC_CALL.finditer(line):
            name = match.group(1)
            if not RE_METRIC_NAME.match(name):
                findings.append((rel, lineno, "metric-naming",
                                 "metric '%s' must be named"
                                 " fungusdb.<subsystem>.<name>"
                                 " (DESIGN.md §12)" % name))

    for lineno, line in enumerate(code.splitlines(), start=1):
        if RE_VOID_DISCARD.search(line) and not RE_VOID_BARE.search(line):
            findings.append((rel, lineno, "void-discard",
                             "(void)-discarded call defeats [[nodiscard]];"
                             " handle the Status/Result or use"
                             " FUNGUSDB_CHECK_OK"))
        if (rel not in NAKED_RANDOM_ALLOWLIST
                and RE_NAKED_RANDOM.search(line)):
            findings.append((rel, lineno, "naked-random",
                             "use common/random (seeded, reproducible)"
                             " instead of ad-hoc randomness"))
        if (rel not in WIRE_FRAMING_ALLOWLIST
                and RE_WIRE_FRAMING.search(line)):
            findings.append((rel, lineno, "wire-framing",
                             "raw framing primitive outside"
                             " src/server/wire_format.*; use"
                             " BufferWriter/BufferReader"))
        if (rel.startswith(VECTOR_HOT_LOOP_PREFIXES)
                and RE_GET_VALUE.search(line)):
            findings.append((rel, lineno, "vector-hot-loop",
                             "GetValue( boxes a Value per row; the"
                             " batch kernels must read typed column"
                             " spans"))
        if (rel.startswith("src/server/http_")
                and RE_HTTP_HANDLER.search(line)):
            findings.append((rel, lineno, "http-handler",
                             "HTTP handlers must not touch Table or the"
                             " plain tier directly; read through epoch-"
                             "pinned facade calls and the public stats"
                             " structs (TableHandle::storage_stats,"
                             " Database::RotReportFor)"))
        if (rel.startswith("src/")
                and not rel.startswith("src/storage/")
                and rel not in ENCODED_ACCESS_ALLOWLIST
                and RE_ENCODED_ACCESS.search(line)):
            findings.append((rel, lineno, "encoded-access",
                             "raw plain-tier segment access outside"
                             " src/storage/ breaks on frozen segments;"
                             " use the tier-independent accessors or"
                             " the decode-to-scratch API"
                             " (storage/segment.h)"))
    # Suppressions live in comments, so they are matched on RAW text.
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if rel.startswith("src/") and RE_SUPPRESSION.search(line):
            findings.append((rel, lineno, "no-suppression",
                             "lint suppressions are not allowed in src/"))
        if "\t" in line:
            findings.append((rel, lineno, "hygiene", "tab character"))
        if line != line.rstrip():
            findings.append((rel, lineno, "hygiene",
                             "trailing whitespace"))
    if raw and not raw.endswith("\n"):
        findings.append((rel, len(raw.splitlines()), "hygiene",
                         "missing newline at end of file"))


def lint_nodiscard_presence(root, findings):
    for rel, cls in (("src/common/status.h", "Status"),
                     ("src/common/result.h", "Result")):
        target = root / rel
        if not target.is_file():
            # Fixture trees used by the lint self-test omit these files.
            continue
        text = target.read_text(encoding="utf-8")
        if not re.search(r"class\s+\[\[nodiscard\]\]\s+" + cls, text):
            findings.append((rel, 1, "nodiscard",
                             "class %s must carry [[nodiscard]]" % cls))


def walk_sources(root, tops):
    for top in tops:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if "testdata" in path.relative_to(root).parts:
                continue  # lint fixtures contain deliberate violations
            if path.suffix in CXX_SUFFIXES and path.is_file():
                yield path


def main():
    # Default to the repo root (two levels above tools/lint/) so the
    # linter works from any cwd; an explicit root can still be passed.
    default_root = pathlib.Path(__file__).resolve().parent.parent.parent
    root = pathlib.Path(
        sys.argv[1]).resolve() if len(sys.argv) > 1 else default_root
    findings = []
    lint_nodiscard_presence(root, findings)
    for path in walk_sources(root, ("src", "tools", "fuzz")):
        lint_file(root, path, findings)
    # Tests are exempt from the style rules above, but a discarded pin
    # in a test silently voids the very guarantee the test exercises —
    # so pin-discipline alone also covers tests/.
    for path in walk_sources(root, ("tests",)):
        rel = path.relative_to(root).as_posix()
        lint_pin_discipline(rel, scrub(path.read_text(encoding="utf-8")),
                            findings)
    # Examples are likewise exempt from style rules, but as the
    # reference embedders they must respect the public-API boundary.
    for path in walk_sources(root, ("examples",)):
        rel = path.relative_to(root).as_posix()
        lint_public_api(rel, path.read_text(encoding="utf-8"), findings)

    for rel, lineno, rule, message in findings:
        print("%s:%d: %s: %s" % (rel, lineno, rule, message))
    if findings:
        print("fungus_lint: %d finding(s)" % len(findings))
        return 1
    print("fungus_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
