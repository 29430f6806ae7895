#!/usr/bin/env python3
"""nexus_lint: repo-specific concurrency-correctness lint for nexus++.

The threaded executor (src/exec) rests on invariants no compiler checks.
This linter makes the mechanically checkable subset a CI gate with a
zero-warning baseline:

  atomic-order       Every std::atomic load/store/RMW in src/exec,
                     src/runtime, src/bank and src/obs must name an
                     explicit std::memory_order.
                     A defaulted seq_cst hides the author's intent and
                     makes every later reader re-derive the ordering
                     argument from scratch.

  hot-path-alloc     No allocation calls (new, make_unique/make_shared,
                     push_back/emplace_back, resize/reserve/insert on
                     growable containers) inside functions annotated
                     // NEXUS_HOT_PATH.

  obs-hot-path       Every record-path function *definition* in src/obs
                     (record*, now_ns) must carry a // NEXUS_HOT_PATH
                     annotation, so the hot-path-alloc
                     rule audits its body and readers know the function
                     runs on worker fast paths.

  header-hygiene     Headers start with #pragma once (or a classic
                     include guard) and contain no `using namespace`.

  chk-instrumented-sync
                     No raw std::atomic / std::mutex /
                     std::condition_variable in src/exec or
                     src/runtime: every synchronization primitive
                     goes through the chk::
                     wrappers (src/chk/chk.hpp) so schedule exploration
                     and the happens-before race checker see every
                     operation. With NEXUSPP_SCHEDCHECK off the wrappers
                     ARE the std types (aliases), so the rule costs
                     nothing at runtime.

Escape hatch: a site that has been audited and is deliberately exempt
carries `// nexus-lint: allow(<rule>)` on the offending line or the line
directly above it. The comment is the audit record; unexplained allows
should not survive review.

Usage:
  tools/nexus_lint.py [--list-rules] [--rule NAME]... PATH...

PATH may be files or directories (searched recursively for C++ sources).
Exits 0 when clean, 1 on violations, 2 on usage errors. Violations print
as `file:line: [rule] message`, sorted, one per line.
"""

import argparse
import os
import re
import sys

SOURCE_EXTS = (".cpp", ".hpp", ".h", ".cc", ".hh")
HEADER_EXTS = (".hpp", ".h", ".hh")

ALLOW_RE = re.compile(r"nexus-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

ATOMIC_OP_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\("
)

ALLOC_RES = [
    (re.compile(r"(?:^|[^_\w])new[\s(]"), "operator new"),
    (re.compile(r"\bmake_unique\s*<"), "std::make_unique"),
    (re.compile(r"\bmake_shared\s*<"), "std::make_shared"),
    (re.compile(r"\.\s*push_back\s*\("), "push_back"),
    (re.compile(r"\.\s*emplace_back\s*\("), "emplace_back"),
    (re.compile(r"\.\s*resize\s*\("), "resize"),
    (re.compile(r"\.\s*reserve\s*\("), "reserve"),
    (re.compile(r"\.\s*insert\s*\("), "insert"),
]

# The annotation must *start* the comment ("// NEXUS_HOT_PATH ..."), so
# prose that merely mentions the marker mid-sentence does not annotate.
HOT_PATH_RE = re.compile(r"^[\s/*]*NEXUS_HOT_PATH\b")

USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
GUARD_RE = re.compile(r"^\s*#\s*ifndef\s+\w+")

RULES = {
    "atomic-order":
        "explicit std::memory_order on every atomic op "
        "(src/exec, src/runtime, src/bank, src/obs)",
    "hot-path-alloc":
        "no allocation inside // NEXUS_HOT_PATH functions",
    "header-hygiene":
        "#pragma once / include guard; no `using namespace` in headers",
    "obs-hot-path":
        "record-path definitions in src/obs carry // NEXUS_HOT_PATH",
    "chk-instrumented-sync":
        "src/exec and src/runtime use chk:: sync wrappers, never raw "
        "std::atomic / std::mutex / std::condition_variable",
}

OBS_RECORD_DEF_RE = re.compile(r"\b(record\w*|now_ns)\s*\(")

# Raw synchronization primitives that must be chk:: wrappers in src/exec
# and src/runtime.
# std::atomic_signal_fence / _thread_fence are deliberately not matched:
# fences have no address to race on and stay raw.
CHK_SYNC_RES = [
    (re.compile(r"\bstd\s*::\s*atomic\s*<"), "std::atomic",
     "chk::Atomic"),
    (re.compile(r"\bstd\s*::\s*mutex\b"), "std::mutex", "chk::Mutex"),
    (re.compile(r"\bstd\s*::\s*condition_variable(?:_any)?\b"),
     "std::condition_variable", "chk::CondVar"),
]


class Violation:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(lines):
    """Returns (code_lines, comment_lines): code with comments and
    string/char literals blanked to spaces (column positions preserved),
    and the comment text per line (allow() markers and NEXUS_HOT_PATH
    annotations live in comments)."""
    code_lines = []
    comment_lines = []
    in_block = False
    for raw in lines:
        code = []
        comment = []
        i = 0
        n = len(raw)
        while i < n:
            ch = raw[i]
            if in_block:
                if raw.startswith("*/", i):
                    in_block = False
                    comment.append("*/")
                    code.append("  ")
                    i += 2
                else:
                    comment.append(ch)
                    code.append(" ")
                    i += 1
            elif raw.startswith("//", i):
                comment.append(raw[i:])
                code.append(" " * (n - i))
                break
            elif raw.startswith("/*", i):
                in_block = True
                comment.append("/*")
                code.append("  ")
                i += 2
            elif ch in "\"'":
                quote = ch
                code.append(quote)
                i += 1
                while i < n:
                    if raw[i] == "\\" and i + 1 < n:
                        code.append("  ")
                        i += 2
                        continue
                    if raw[i] == quote:
                        code.append(quote)
                        i += 1
                        break
                    code.append(" ")
                    i += 1
            else:
                code.append(ch)
                i += 1
        code_lines.append("".join(code))
        comment_lines.append("".join(comment))
    return code_lines, comment_lines


def allowed(comment_lines, idx, rule):
    """True when the rule is escaped at line idx: an allow() on the line
    itself or on the line directly above."""
    for j in (idx, idx - 1):
        if 0 <= j < len(comment_lines):
            m = ALLOW_RE.search(comment_lines[j])
            if m and rule in {r.strip() for r in m.group(1).split(",")}:
                return True
    return False


# --- atomic-order -------------------------------------------------------------

def in_scope_for_atomics(path):
    parts = os.path.normpath(path).split(os.sep)
    return any(p in parts for p in ("exec", "bank", "obs", "runtime"))


def check_atomic_order(path, code_lines, comment_lines, out):
    if not in_scope_for_atomics(path):
        return
    for idx, code in enumerate(code_lines):
        for m in ATOMIC_OP_RE.finditer(code):
            args = collect_call_args(code_lines, idx, m.end() - 1)
            if "memory_order" in args:
                continue
            if allowed(comment_lines, idx, "atomic-order"):
                continue
            out.append(Violation(
                path, idx + 1, "atomic-order",
                f"atomic .{m.group(1)}() without an explicit "
                f"std::memory_order (defaulted seq_cst hides intent)"))


def collect_call_args(code_lines, idx, open_pos, max_lines=12):
    """Returns the text of a call's argument list. `open_pos` indexes the
    opening '(' in code_lines[idx]; the scan follows nested parentheses
    across up to max_lines lines."""
    depth = 0
    args = []
    for line in range(idx, min(idx + max_lines, len(code_lines))):
        text = code_lines[line][open_pos:] if line == idx else code_lines[line]
        for ch in text:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "".join(args)
            elif depth >= 1:
                args.append(ch)
    return "".join(args)


# --- hot-path-alloc -----------------------------------------------------------

def check_hot_path_alloc(path, code_lines, comment_lines, out):
    idx = 0
    n = len(code_lines)
    while idx < n:
        if not HOT_PATH_RE.search(comment_lines[idx]):
            idx += 1
            continue
        # The annotation precedes (or trails the first line of) a function
        # signature; the body starts at the next '{'.
        body = None
        for line in range(idx, min(idx + 8, n)):
            if "{" in code_lines[line]:
                body = line
                break
        if body is None:
            idx += 1
            continue
        idx = scan_allocs(path, code_lines, comment_lines, body, out) + 1


def scan_allocs(path, code_lines, comment_lines, start, out):
    """Flags allocation calls inside the brace-balanced region starting at
    the first '{' on code_lines[start]; returns the region's last line."""
    depth = 0
    started = False
    n = len(code_lines)
    for line in range(start, n):
        code = code_lines[line]
        if started and depth > 0:
            for pattern, what in ALLOC_RES:
                if pattern.search(code):
                    if not allowed(comment_lines, line, "hot-path-alloc"):
                        out.append(Violation(
                            path, line + 1, "hot-path-alloc",
                            f"{what} inside a // NEXUS_HOT_PATH function"))
                    break
        for ch in code:
            if ch == "{":
                depth += 1
                started = True
            elif ch == "}":
                depth -= 1
        if started and depth <= 0:
            return line
    return n - 1


# --- obs-hot-path -------------------------------------------------------------

def in_scope_for_obs(path):
    parts = os.path.normpath(path).split(os.sep)
    return "obs" in parts


def matching_close_paren(code_lines, idx, open_pos, max_lines=12):
    """Returns (line, col) of the ')' closing the '(' at
    code_lines[idx][open_pos], following nesting across lines; (None, None)
    when unbalanced within max_lines."""
    depth = 0
    n = len(code_lines)
    for line in range(idx, min(idx + max_lines, n)):
        text = code_lines[line]
        col = open_pos if line == idx else 0
        while col < len(text):
            ch = text[col]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return line, col
            col += 1
    return None, None


def is_function_definition(code_lines, end_line, end_col, max_lines=4):
    """True when the text after a parameter list's closing paren reaches a
    '{' before a ';' or '=' — i.e. the signature introduces a body, not a
    declaration / deleted function."""
    n = len(code_lines)
    rest = code_lines[end_line][end_col + 1:]
    for line in range(end_line, min(end_line + max_lines, n)):
        text = rest if line == end_line else code_lines[line]
        for ch in text:
            if ch == "{":
                return True
            if ch in ";=":
                return False
    return False


def check_obs_hot_path(path, code_lines, comment_lines, out):
    if not in_scope_for_obs(path):
        return
    n = len(code_lines)
    for idx, code in enumerate(code_lines):
        for m in OBS_RECORD_DEF_RE.finditer(code):
            open_pos = code.find("(", m.start())
            end_line, end_col = matching_close_paren(code_lines, idx,
                                                     open_pos)
            if end_line is None:
                continue
            if not is_function_definition(code_lines, end_line, end_col):
                continue
            annotated = any(
                HOT_PATH_RE.search(comment_lines[j])
                for j in range(max(0, idx - 3), idx + 1))
            if annotated or allowed(comment_lines, idx, "obs-hot-path"):
                continue
            out.append(Violation(
                path, idx + 1, "obs-hot-path",
                f"record-path function '{m.group(1)}' defined without a "
                f"// NEXUS_HOT_PATH annotation"))


# --- chk-instrumented-sync ----------------------------------------------------

def in_scope_for_chk(path):
    parts = os.path.normpath(path).split(os.sep)
    return "exec" in parts or "runtime" in parts


def check_chk_instrumented_sync(path, code_lines, comment_lines, out):
    if not in_scope_for_chk(path):
        return
    for idx, code in enumerate(code_lines):
        for pattern, what, wrapper in CHK_SYNC_RES:
            if not pattern.search(code):
                continue
            if allowed(comment_lines, idx, "chk-instrumented-sync"):
                continue
            out.append(Violation(
                path, idx + 1, "chk-instrumented-sync",
                f"raw {what} in src/exec is invisible to the schedule "
                f"explorer / race checker; use {wrapper}"))


# --- header-hygiene -----------------------------------------------------------

def check_header_hygiene(path, code_lines, comment_lines, out):
    if not path.endswith(HEADER_EXTS):
        return
    guarded = False
    for code in code_lines:
        if PRAGMA_ONCE_RE.match(code) or GUARD_RE.match(code):
            guarded = True
            break
        if code.strip():
            break  # first real code line reached without a guard
    if not guarded and not allowed(comment_lines, 0, "header-hygiene"):
        out.append(Violation(
            path, 1, "header-hygiene",
            "header has no #pragma once / include guard before its first "
            "code line"))
    for idx, code in enumerate(code_lines):
        if USING_NAMESPACE_RE.match(code):
            if allowed(comment_lines, idx, "header-hygiene"):
                continue
            out.append(Violation(
                path, idx + 1, "header-hygiene",
                "`using namespace` in a header leaks into every includer"))


# --- driver -------------------------------------------------------------------

def lint_file(path, selected):
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        print(f"nexus_lint: cannot read {path}: {err}", file=sys.stderr)
        return [Violation(path, 0, "io", "unreadable file")]
    code_lines, comment_lines = strip_code(lines)
    out = []
    if "atomic-order" in selected:
        check_atomic_order(path, code_lines, comment_lines, out)
    if "hot-path-alloc" in selected:
        check_hot_path_alloc(path, code_lines, comment_lines, out)
    if "header-hygiene" in selected:
        check_header_hygiene(path, code_lines, comment_lines, out)
    if "obs-hot-path" in selected:
        check_obs_hot_path(path, code_lines, comment_lines, out)
    if "chk-instrumented-sync" in selected:
        check_chk_instrumented_sync(path, code_lines, comment_lines, out)
    return out


def collect_files(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTS):
                        files.append(os.path.join(root, name))
        elif os.path.isfile(path):
            files.append(path)
        else:
            print(f"nexus_lint: no such path: {path}", file=sys.stderr)
            return None
    return files


def main(argv):
    parser = argparse.ArgumentParser(
        prog="nexus_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument("--rule", action="append", choices=sorted(RULES),
                        help="run only this rule (repeatable)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            print(f"{name}: {RULES[name]}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        return 2

    selected = set(args.rule) if args.rule else set(RULES)
    files = collect_files(args.paths)
    if files is None:
        return 2

    violations = []
    for path in files:
        violations.extend(lint_file(path, selected))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"nexus_lint: {len(violations)} violation(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
