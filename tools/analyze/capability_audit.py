#!/usr/bin/env python3
"""FungusDB capability audit — the Python half of the concurrency
contract (the compile-time half is Clang Thread Safety Analysis over
common/thread_annotations.h; see DESIGN.md §13).

Clang's analysis checks that annotated code is used correctly, but it
cannot notice annotations that are *missing*, and it cannot check the
contracts that are not lock-shaped. This audit carries both halves:

  guarded-by      every class owning a Mutex must cover each mutable
                  data member with FUNGUS_GUARDED_BY(...) or a justified
                  entry in GUARDED_BY_ALLOWLIST — so new state cannot
                  silently join a locked class unguarded.
  raw-mutex       std::mutex / std::shared_mutex / std::condition_variable
                  / std::lock_guard / std::unique_lock / std::scoped_lock
                  appear only inside src/common/mutex.h. A raw mutex is
                  invisible to the thread safety analysis, so every
                  acquisition through one is a hole in the contract.
  no-tsa-escape   FUNGUS_NO_THREAD_SAFETY_ANALYSIS only in the files
                  that implement locking primitives (core/epoch.*) —
                  never as a way to silence a real finding.
  pin-attrs       EpochManager::PinRead()/BeginWrite() keep [[nodiscard]]
                  and their ACQUIRE attributes, so dropped pins and
                  untracked acquisitions stay compile-visible.

Usage: tools/analyze/capability_audit.py [repo-root]
Exits 0 when clean, 1 with one "file:line: rule: message" per finding.
"""

import pathlib
import re
import sys

CXX_SUFFIXES = {".h", ".cc", ".cpp"}

# Members of mutex-owning classes that are deliberately NOT guarded.
# Keyed "file#Class::member"; every entry needs a justification here —
# an entry without one is a review comment waiting to happen.
GUARDED_BY_ALLOWLIST = {
    # Spawned in the constructor, joined in the destructor; no worker
    # touches the vector itself.
    "src/common/thread_pool.h#ThreadPool::workers_",
    # Set once at Database construction, before any concurrency exists.
    "src/core/epoch.h#EpochManager::metrics_",
    # Server lifecycle state: written in the constructor / Start()
    # before the worker threads that read it are spawned, and torn down
    # in Stop() after every one of them is joined. The spawn/join edges
    # order it; stop_mu_ guards only the started/stopped handshake.
    "src/server/server.h#Server::db_",
    "src/server/server.h#Server::options_",
    "src/server/server.h#Server::listener_",
    "src/server/server.h#Server::port_",
    "src/server/server.h#Server::acceptor_",
    "src/server/server.h#Server::executor_",
    "src/server/server.h#Server::num_read_workers_",
    "src/server/server.h#Server::sessions_",
    "src/server/server.h#Server::read_threads_",
    # Internally synchronized (RequestQueue owns its own Mutex).
    "src/server/server.h#Server::queue_",
    "src/server/server.h#Server::read_queue_",
}

# The only files allowed to switch the thread safety analysis off: the
# epoch capability's own implementation lies to the analysis by design
# (condvar waits release/reacquire invisibly; pins move).
NO_TSA_ALLOWLIST = {
    "src/common/thread_annotations.h",  # the macro's own definition
    "src/core/epoch.h",
    "src/core/epoch.cc",
}

RAW_MUTEX_ALLOWLIST = {
    "src/common/mutex.h",  # the annotated wrapper itself
}

RE_RAW_MUTEX = re.compile(
    r"std\s*::\s*(?:mutex|shared_mutex|recursive_mutex|timed_mutex"
    r"|condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock)\b")
RE_NO_TSA = re.compile(r"FUNGUS_NO_THREAD_SAFETY_ANALYSIS")
RE_CLASS_HEAD = re.compile(
    r"\b(?:class|struct)\s+(?:FUNGUS_CAPABILITY\s*\([^)]*\)\s+"
    r"|FUNGUS_SCOPED_CAPABILITY\s+)?(\w+)\s*(?::[^{;]*)?\{")
# A data member: type tokens (parens admit std::function<void()> and
# friends), a name with the repo's trailing-underscore convention, then
# optionally an annotation and/or an initializer. Method declarations
# fail the match: their trailing ')' / 'const' / attribute argument
# cannot follow the member-name group.
RE_MEMBER = re.compile(
    r"^(?P<decl>[\w:<>,*&~\s\[\]\.()]+?)\s+(?P<name>[a-z]\w*_)\s*"
    r"(?P<guard>FUNGUS_(?:PT_)?GUARDED_BY\s*\([^)]*\)\s*)?"
    r"(?:=[^;]*|\{[^;]*\})?$")
RE_MUTEX_MEMBER = re.compile(r"(?:^|\s)(?:mutable\s+)?Mutex\s+\w+_\s*$")
# Member types that synchronize themselves (or are the synchronization).
SELF_SYNC_TYPES = re.compile(
    r"\b(?:Mutex|CondVar|std\s*::\s*atomic)\b")


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


def class_bodies(code):
    """Yields (name, start_offset, body_text) for every class/struct
    with a braced body in scrubbed `code`, outermost first."""
    for match in RE_CLASS_HEAD.finditer(code):
        name = match.group(1)
        open_brace = match.end() - 1
        depth = 0
        for i in range(open_brace, len(code)):
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
                if depth == 0:
                    yield name, open_brace + 1, code[open_brace + 1:i]
                    break


def depth1_statements(body):
    """Splits a class body into depth-1 statements (offset, text).

    Nested braces (inline method bodies, nested classes, brace
    initializers) ride along inside a statement; a '}' returning to
    depth 1 that is not followed by ';' ends an inline definition and
    discards the accumulated text.
    """
    statements = []
    depth = 0
    start = 0
    i = 0
    n = len(body)
    while i < n:
        c = body[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                j = i + 1
                while j < n and body[j] in " \t\n":
                    j += 1
                if j < n and body[j] == ";":
                    statements.append((start, body[start:j + 1]))
                    i = j
                start = i + 1
        elif c == ";" and depth == 0:
            statements.append((start, body[start:i + 1]))
            start = i + 1
        i += 1
    return statements


def audit_guarded_by(root, rel, raw, code, findings):
    for cls, body_off, body in class_bodies(code):
        has_mutex = any(
            RE_MUTEX_MEMBER.search(stmt.rstrip(";").split("=")[0])
            for _, stmt in depth1_statements(body))
        if not has_mutex:
            continue
        for off, stmt in depth1_statements(body):
            text = " ".join(stmt.rstrip(";").split())
            if not text or text.startswith(
                    ("public", "private", "protected", "class", "struct",
                     "enum", "using", "typedef", "friend", "template",
                     "static", "explicit", "virtual", "operator")):
                continue
            if "(" in text.split("FUNGUS_")[0] and not re.search(
                    r"[\w>]\s+\w+_\s*(?:FUNGUS_|=|\{|$)", text):
                continue  # method declaration, not a data member
            match = RE_MEMBER.match(text)
            if match is None:
                continue
            decl = match.group("decl")
            name = match.group("name")
            if SELF_SYNC_TYPES.search(decl):
                continue
            if re.match(r"(?:mutable\s+)?const\b", decl):
                continue
            if match.group("guard"):
                continue
            key = "%s#%s::%s" % (rel, cls, name)
            if key in GUARDED_BY_ALLOWLIST:
                continue
            lead = len(stmt) - len(stmt.lstrip())
            lineno = raw[:body_off + off + lead].count("\n") + 1
            findings.append(
                (rel, lineno, "guarded-by",
                 "%s::%s is a mutable member of a Mutex-owning class"
                 " without FUNGUS_GUARDED_BY; annotate it or add a"
                 " justified GUARDED_BY_ALLOWLIST entry" % (cls, name)))


def audit_file(root, path, findings):
    rel = path.relative_to(root).as_posix()
    raw = path.read_text(encoding="utf-8")
    code = scrub(raw)

    for lineno, line in enumerate(code.splitlines(), start=1):
        if rel not in RAW_MUTEX_ALLOWLIST and RE_RAW_MUTEX.search(line):
            findings.append(
                (rel, lineno, "raw-mutex",
                 "raw standard-library lock primitive is invisible to"
                 " the thread safety analysis; use fungusdb::Mutex /"
                 " MutexLock / CondVar (common/mutex.h)"))
        if rel not in NO_TSA_ALLOWLIST and RE_NO_TSA.search(line):
            findings.append(
                (rel, lineno, "no-tsa-escape",
                 "FUNGUS_NO_THREAD_SAFETY_ANALYSIS is reserved for the"
                 " locking-primitive implementation (core/epoch.*);"
                 " fix the annotation instead of switching the"
                 " analysis off"))

    if rel.endswith(".h"):
        audit_guarded_by(root, rel, raw, code, findings)


def audit_pin_attrs(root, findings):
    epoch = root / "src/core/epoch.h"
    if not epoch.is_file():
        return  # fixture trees have no epoch.h; the rule has no subject
    text = " ".join(scrub(epoch.read_text(encoding="utf-8")).split())
    for method, attr in (("PinRead", "FUNGUS_ACQUIRE_SHARED()"),
                         ("BeginWrite", "FUNGUS_ACQUIRE()")):
        pattern = r"\[\[nodiscard\]\]\s+\w+\s+%s\s*\(\s*\)\s*%s" % (
            method, re.escape(attr).replace(r"\(\)", r"\(\s*\)"))
        if not re.search(pattern, text):
            findings.append(
                ("src/core/epoch.h", 1, "pin-attrs",
                 "EpochManager::%s() must keep [[nodiscard]] and %s —"
                 " dropped pins and untracked acquisitions must stay"
                 " compile-visible" % (method, attr)))


def main():
    # Default to the repo root (two levels above tools/analyze/) so the
    # audit works from any cwd; an explicit root can still be passed.
    default_root = pathlib.Path(__file__).resolve().parent.parent.parent
    root = pathlib.Path(
        sys.argv[1]).resolve() if len(sys.argv) > 1 else default_root
    findings = []
    audit_pin_attrs(root, findings)
    base = root / "src"
    if base.is_dir():
        for path in sorted(base.rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                audit_file(root, path, findings)

    for rel, lineno, rule, message in findings:
        print("%s:%d: %s: %s" % (rel, lineno, rule, message))
    if findings:
        print("capability_audit: %d finding(s)" % len(findings))
        return 1
    print("capability_audit: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
