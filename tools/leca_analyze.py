#!/usr/bin/env python3
"""Tier-2 semantic analysis for the LeCA simulator (stdlib only).

Where tools/leca_lint.py matches single lines, this tool understands
just enough C++ structure — function bodies, call edges, lock scopes,
enclosing classes — to check cross-line invariants:

  unordered-iteration  range-for over a std::unordered_{map,set,...}
                       anywhere in the analyzed tree. Hash-order
                       iteration feeding tensors or serve output breaks
                       the bit-reproducibility contract; the repo
                       standardises on ordered containers or explicit
                       index order.
  hidden-alloc         heap-allocation constructs (new, std::function
                       construction, make_unique/make_shared, sized
                       std::vector / std::string locals, push_back /
                       emplace_back / reserve / resize growth) in any
                       function reachable from a hot-path entry point
                       (blocked GEMM, serve submit/dispatch, pool task
                       claiming) through the textual call graph. The
                       warm hot paths are allocation-free by contract
                       (enforced at runtime by DenyAllocScope; this is
                       the static half).
  arena-escape         a pointer obtained from Arena/ArenaScope alloc
                       that is returned or stored into a member. Arena
                       storage rewinds when the enclosing ArenaScope
                       dies, so any escape is a use-after-rewind.
  lock-order-cycle     a cycle in the directed graph of nested lock
                       acquisitions (mutex names qualified by their
                       enclosing class). Acquiring A then B in one
                       function and B then A in another is a latent
                       deadlock even if it has never fired.
  detached-thread      any .detach() call. Every thread in this repo
                       is joined (ServiceThread / the pool), so
                       shutdown is deterministic and sanitizer-clean.
  unreached            a src/ function or class that no production
                       root reaches. The roots are every function
                       defined under bench/, perfbench/ and examples/,
                       every operator overload and `main`, and every
                       definition marked `// leca-analyze: keep:
                       <reason>`, where the reason starts with `test
                       hook`, `test reference` (a reference a test
                       compares against) or `checkpoint API`; a keep
                       on a class keeps its methods too. Any identifier
                       in a reached body counts as a use, and so do the
                       identifiers of a named macro's body and of a
                       named namespace-scope initializer. A class is
                       live only when a reached body, or a live class's
                       members, names it outside a `*_cast<>`; its
                       methods are reached when their name is used
                       (constructors, destructors and
                       lock/unlock/try_lock implicitly). A keep marker
                       without one of the three reasons is a finding.
                       Tests are never roots: code only tests call is
                       dead unless kept.

One engine: a hand-rolled lexer indexes functions, classes, macros
and namespace-scope initializers, so a run needs nothing beyond the
Python standard library and gives the same findings on every machine.

Usage:
  tools/leca_analyze.py [DIR-or-FILE ...]       analyze (default: src)
  tools/leca_analyze.py --fixtures DIR          self-test against
                                                known-bad fixtures with
                                                `// expect: <check>`
                                                annotations; a line
                                                marked `// expect-here:
                                                <check>` must be flagged
                                                and one marked
                                                `// expect-none:
                                                <check>` must not be.
                                                Each fixture is its own
                                                program: only its main,
                                                operators and keeps are
                                                roots.
  --format text|json                            output format

Exits 0 when clean (or all fixtures behave), 1 on findings (or a
fixture miss), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

CXX_SUFFIXES = {".cc", ".cpp", ".cxx", ".hh", ".hpp", ".h"}

# Functions whose transitive callees must not allocate. Fixture and
# project files can add more with a `// leca-analyze: entry` comment on
# the line directly above a function definition.
DEFAULT_ENTRY_POINTS = {
    "gemmBlocked",      # blocked GEMM kernel (tensor/kernels.cc)
    "submit",           # Server::submit — client-side serve hot path
    "dispatchLoop",     # Server::dispatchLoop — dispatcher hot loop
    "collectBatch",     # Server::collectBatch — batch staging
    "stageRequest",     # Server::stageRequest — frame copy into staging
    "claimChunks",      # ThreadPool::claimChunks — per-task work loop
    "runChunks",        # parallel entry that fans a task body out
    # Resident int8 serving hot path (tensor/quant.cc, DESIGN.md §13):
    # the packed-gather conv over codes, the quantize/dequantize
    # boundary crossings, and the global pool that reads codes directly.
    "convForwardResident",
    "quantizeActivationNchw",
    "dequantizeActivationNchw",
    "globalAvgPoolResident",
}

# Checks that are skipped for these repo-relative paths (the files that
# implement the machinery the check polices).
CHECK_EXEMPT_PATHS = {
    # The arena implementation hands out its own storage by design.
    "arena-escape": re.compile(r"^src/util/arena\.(hh|cc)$"),
    # The pool implementation owns the worker threads (always joined).
    "detached-thread": re.compile(r"^src/util/parallel\.(hh|cc)$"),
}

KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "do", "else", "new", "delete", "throw", "case", "default",
    "alignof", "alignas", "static_assert", "decltype", "noexcept",
    "operator", "template", "typename", "using", "namespace",
}

COMMENT_OR_STRING = re.compile(
    r"//[^\n]*"
    r"|/\*.*?\*/"
    r"|\"(?:[^\"\\]|\\.)*\""
    r"|'(?:[^'\\]|\\.)*'",
    re.DOTALL,
)


class Finding:
    def __init__(self, check: str, path: pathlib.Path, line: int,
                 message: str):
        self.check = check
        self.path = path
        self.line = line
        self.message = message

    def text(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "path": str(self.path),
            "line": self.line,
            "message": self.message,
        }


class Function:
    """One function definition: name, span, body text."""

    def __init__(self, name: str, qualifier: str | None,
                 path: pathlib.Path, line: int, body: str,
                 body_line: int, refs: str = "",
                 span: tuple[int, int] = (0, 0)):
        self.name = name
        self.qualifier = qualifier  # class name, or None for free fns
        self.path = path
        self.line = line            # line of the signature
        self.body = body            # stripped body text (no comments)
        self.body_line = body_line  # line the body's '{' is on
        self.refs = refs            # return type, parameters, init list
        self.span = span            # body offsets in the stripped file
        self.cold = False           # `// leca-analyze: cold` marked

    @property
    def qualified(self) -> str:
        return f"{self.qualifier}::{self.name}" if self.qualifier \
            else self.name


def strip_noise(text: str) -> str:
    """Blank comments and string/char literals, preserving newlines."""
    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))
    return COMMENT_OR_STRING.sub(blank, text)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def repo_relative(path: pathlib.Path) -> str | None:
    try:
        return path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return None


def check_exempt(check: str, path: pathlib.Path) -> bool:
    pattern = CHECK_EXEMPT_PATHS.get(check)
    if pattern is None:
        return False
    rel = repo_relative(path)
    return rel is not None and bool(pattern.match(rel))


# --------------------------------------------------------------------
# Function extraction
# --------------------------------------------------------------------

# identifier( or operator@( ... with optional Class:: qualifier; the
# closing paren is found by matching, not by this regex.
SIGNATURE = re.compile(
    r"(?:([A-Za-z_]\w*)\s*::\s*)?"
    r"(operator\s*(?:\(\s*\)|\[\s*\]|(?:new|delete)\b(?:\s*\[\s*\])?"
    r"|[^\s\w()\[\]{};]+|[A-Za-z_][\w:]*(?:\s*[*&])*)"
    r"|~?[A-Za-z_]\w*)\s*\(")

# What may legally sit between the parameter list and the body.
BETWEEN_PARAMS_AND_BODY = re.compile(
    r"^(?:\s|const|noexcept|override|final|mutable|&&|&"
    r"|->\s*[\w:<>,*&\s]+?"
    r"|LECA_\w+\s*(?:\([^()]*\))?"
    r"|__attribute__\s*\(\([^()]*\)\)"
    r"|:\s*[^{;]*"          # constructor init list
    r")*$")


def match_brace(text: str, open_idx: int) -> int:
    """Index just past the brace matching text[open_idx] ('{' or '(')."""
    opener = text[open_idx]
    closer = {"{": "}", "(": ")"}[opener]
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == opener:
            depth += 1
        elif c == closer:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def enclosing_classes(text: str) -> list[tuple[int, int, str]]:
    """(start, end, name) spans of class/struct bodies in text."""
    spans = []
    for match in re.finditer(
            r"\b(?:class|struct)\s+(?:LECA_\w+\s*(?:\([^()]*\))?\s*)?"
            r"([A-Za-z_]\w*)[^;{(]*\{", text):
        open_idx = match.end() - 1
        spans.append((open_idx, match_brace(text, open_idx),
                      match.group(1)))
    return spans


def extract_functions(path: pathlib.Path,
                            text: str) -> list[Function]:
    stripped = strip_noise(text)
    classes = enclosing_classes(stripped)
    functions: list[Function] = []
    pos = 0
    while True:
        match = SIGNATURE.search(stripped, pos)
        if match is None:
            break
        pos = match.end()
        name = match.group(2)
        if name.startswith("operator"):
            name = re.sub(r"\s+", "", name)
        if name in KEYWORDS or match.group(1) in KEYWORDS:
            continue
        paren_open = match.end() - 1
        paren_close = match_brace(stripped, paren_open)
        # Scan forward for the body '{'; give up at ';' (declaration)
        # or anything BETWEEN_PARAMS_AND_BODY does not allow.
        brace = stripped.find("{", paren_close)
        semi = stripped.find(";", paren_close)
        if brace < 0 or (0 <= semi < brace):
            continue
        between = stripped[paren_close:brace]
        if not BETWEEN_PARAMS_AND_BODY.match(between):
            continue
        body_end = match_brace(stripped, brace)
        qualifier = match.group(1)
        if qualifier is None:
            for start, end, cls in classes:
                if start < match.start() < end:
                    qualifier = cls
        # The return type runs back to the previous statement or brace.
        head = max(stripped.rfind(c, 0, match.start()) for c in ";{}")
        functions.append(Function(
            name, qualifier, path,
            line_of(stripped, match.start()),
            stripped[brace:body_end],
            line_of(stripped, brace),
            stripped[head + 1:match.start()]
            + stripped[paren_open:brace],
            (brace, body_end)))
        pos = body_end
    return functions


# --------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------

UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{}=]*?>\s*"
    r"&?\s*([A-Za-z_]\w*)")
RANGE_FOR = re.compile(
    r"\bfor\s*\([^();]*?:\s*([A-Za-z_]\w*)\s*\)")


def check_unordered_iteration(path: pathlib.Path,
                              stripped: str) -> list[Finding]:
    names = set(UNORDERED_DECL.findall(stripped))
    findings = []
    for match in RANGE_FOR.finditer(stripped):
        name = match.group(1)
        if name in names:
            findings.append(Finding(
                "unordered-iteration", path,
                line_of(stripped, match.start()),
                f"range-for over unordered container '{name}': hash "
                f"order is not deterministic; iterate a sorted copy "
                f"or an ordered container"))
    return findings


ALLOC_PATTERNS = [
    (re.compile(r"(?<![\w.])new\s+[A-Za-z_(]"), "new expression"),
    (re.compile(r"\bstd::function\s*<"),
     "std::function construction (capture-heavy lambdas heap-allocate; "
     "use leca::FunctionRef for synchronous calls)"),
    (re.compile(r"\bstd::make_(?:unique|shared)\b"),
     "make_unique/make_shared"),
    (re.compile(r"\bstd::vector\s*<[^;{}()]*>\s+[A-Za-z_]\w*\s*"
                r"(?:\([^)]|\{[^}]|=)"),
     "sized std::vector local"),
    (re.compile(r"\bstd::string\s+[A-Za-z_]\w*\s*(?:\([^)]|\{[^}]|=)"),
     "std::string local"),
    (re.compile(r"\.(?:push_back|emplace_back|reserve|resize)\s*\("),
     "container growth"),
]

CALL = re.compile(r"\b([A-Za-z_]\w*)\s*\(")


def body_calls(body: str) -> set[str]:
    return {name for name in CALL.findall(body)
            if name not in KEYWORDS and not name.startswith("LECA_")}


def check_hidden_alloc(functions: list[Function],
                       entries: set[str]) -> list[Finding]:
    # Functions marked `// leca-analyze: cold` are allocation-allowed
    # by contract (construction, configuration, checkpoint I/O, the
    # arena's own growth path); they neither get flagged nor extend
    # the reachable set — everything below a cold boundary is cold.
    by_name: dict[str, list[Function]] = {}
    for fn in functions:
        if fn.cold:
            continue
        by_name.setdefault(fn.name, []).append(fn)
        by_name.setdefault(fn.qualified, []).append(fn)

    # BFS over the textual call graph from the entry points.
    reached: dict[str, str] = {}  # function name -> entry it came from
    queue: list[tuple[str, str]] = [(e, e) for e in sorted(entries)]
    while queue:
        name, entry = queue.pop(0)
        if name in reached:
            continue
        reached[name] = entry
        for fn in by_name.get(name, []):
            for callee in sorted(body_calls(fn.body)):
                if callee not in reached and callee in by_name:
                    queue.append((callee, entry))

    findings = []
    seen: set[tuple[str, int]] = set()
    for fn in functions:
        if fn.cold:
            continue
        entry = reached.get(fn.name) or reached.get(fn.qualified)
        if entry is None:
            continue
        for pattern, what in ALLOC_PATTERNS:
            for match in pattern.finditer(fn.body):
                line = fn.body_line + fn.body.count(
                    "\n", 0, match.start())
                key = (str(fn.path), line)
                if key in seen:
                    continue
                seen.add(key)
                via = "" if fn.name == entry \
                    else f" (reachable from entry '{entry}')"
                findings.append(Finding(
                    "hidden-alloc", fn.path, line,
                    f"{what} in hot-path function "
                    f"'{fn.qualified}'{via}: warm steady state must "
                    f"not touch the heap (DenyAllocScope contract)"))
    return findings


ARENA_BIND = re.compile(
    r"[*&]\s*([A-Za-z_]\w*)\s*=\s*[\w:.()\->]*\balloc\s*[<(]")
ARENA_DIRECT_RETURN = re.compile(
    r"\breturn\s+[\w:.()\->]*\balloc\s*[<(]")


def check_arena_escape(functions: list[Function]) -> list[Finding]:
    findings = []
    for fn in functions:
        if check_exempt("arena-escape", fn.path):
            continue
        body = fn.body
        for match in ARENA_DIRECT_RETURN.finditer(body):
            findings.append(Finding(
                "arena-escape", fn.path,
                fn.body_line + body.count("\n", 0, match.start()),
                f"'{fn.qualified}' returns arena storage directly: it "
                f"is rewound when the enclosing ArenaScope dies"))
        for bind in ARENA_BIND.finditer(body):
            var = bind.group(1)
            after = body[bind.end():]
            escape = re.search(
                rf"\breturn\s+{var}\b"
                rf"|\b(?:this->|_)\w*\s*=\s*{var}\b", after)
            if escape:
                findings.append(Finding(
                    "arena-escape", fn.path,
                    fn.body_line
                    + body.count("\n", 0, bind.end() + escape.start()),
                    f"arena pointer '{var}' escapes '{fn.qualified}' "
                    f"(returned or stored to a member): arena storage "
                    f"is rewound when the enclosing ArenaScope dies"))
    return findings


LOCK_ACQ = re.compile(
    r"\b(?:MutexLock|UniqueLock"
    r"|std::lock_guard\s*<[^>]*>"
    r"|std::unique_lock\s*<[^>]*>"
    r"|std::scoped_lock(?:\s*<[^>]*>)?)\s+"
    r"[A-Za-z_]\w*\s*[({]\s*(?:this->)?([A-Za-z_]\w*)"
    r"|(?:this->)?([A-Za-z_]\w*)\s*\.\s*lock\s*\(\s*\)")


def lock_edges(fn: Function) -> list[tuple[str, str, int]]:
    """(held, acquired, line) pairs for nested acquisitions in fn."""
    owner = fn.qualifier or f"{fn.path.stem}::{fn.name}"

    def qualify(raw: str) -> str:
        return f"{owner}::{raw}"

    held: list[tuple[str, int]] = []  # (qualified name, brace depth)
    edges = []
    depth = 0
    pos = 0
    body = fn.body
    events = sorted(
        [(m.start(), "acq", qualify(m.group(1) or m.group(2)))
         for m in LOCK_ACQ.finditer(body)]
        + [(i, "open", "") for i, c in enumerate(body) if c == "{"]
        + [(i, "close", "") for i, c in enumerate(body) if c == "}"])
    for offset, kind, name in events:
        if kind == "open":
            depth += 1
        elif kind == "close":
            depth -= 1
            held = [(n, d) for n, d in held if d <= depth]
        else:
            line = fn.body_line + body.count("\n", 0, offset)
            for prior, _ in held:
                if prior != name:
                    edges.append((prior, name, line))
            held.append((name, depth))
        pos = offset
    del pos
    return edges


def check_lock_order(functions: list[Function]) -> list[Finding]:
    graph: dict[str, dict[str, tuple[pathlib.Path, int]]] = {}
    for fn in functions:
        for held, acquired, line in lock_edges(fn):
            graph.setdefault(held, {}).setdefault(
                acquired, (fn.path, line))

    findings = []
    reported: set[frozenset] = set()

    def dfs(node: str, stack: list[str], visiting: set[str],
            done: set[str]) -> None:
        visiting.add(node)
        stack.append(node)
        for nxt in sorted(graph.get(node, {})):
            if nxt in visiting:
                cycle = stack[stack.index(nxt):] + [nxt]
                key = frozenset(cycle)
                if key not in reported:
                    reported.add(key)
                    path, line = graph[node][nxt]
                    findings.append(Finding(
                        "lock-order-cycle", path, line,
                        "lock acquisition cycle: "
                        + " -> ".join(cycle)
                        + " (two threads taking these in opposite "
                          "order deadlock)"))
            elif nxt not in done:
                dfs(nxt, stack, visiting, done)
        stack.pop()
        visiting.discard(node)
        done.add(node)

    done: set[str] = set()
    for node in sorted(graph):
        if node not in done:
            dfs(node, [], set(), done)
    return findings


DETACH = re.compile(r"\.\s*detach\s*\(\s*\)")


def check_detached_thread(path: pathlib.Path,
                          stripped: str) -> list[Finding]:
    if check_exempt("detached-thread", path):
        return []
    return [Finding(
        "detached-thread", path, line_of(stripped, m.start()),
        "detached thread: every thread must be joined (use "
        "leca::ServiceThread or the util/parallel pool) so shutdown "
        "is deterministic and sanitizer-clean")
        for m in DETACH.finditer(stripped)]


ENTRY_MARKER = re.compile(r"//\s*leca-analyze:\s*entry\b")
COLD_MARKER = re.compile(r"//\s*leca-analyze:\s*cold\b")


def marker_lines(pattern: re.Pattern, text: str) -> set[int]:
    """Line numbers (1-based) carrying the marker."""
    return {text.count("\n", 0, m.start()) + 1
            for m in pattern.finditer(text)}


def near_marker(fn: Function, markers: set[int]) -> bool:
    """True when a marker sits on or just above the signature (the
    signature line itself, or up to 3 lines above it, covering the
    separate return-type line of the repo's definition style)."""
    return any(line in markers
               for line in range(fn.line - 3, fn.line + 1))


# --------------------------------------------------------------------
# unreached: every src/ definition has a production caller
# --------------------------------------------------------------------

# Repo-relative directories whose definitions are the production roots.
ROOT_DIRS = ("bench", "perfbench", "examples")

# Called by the language, not by name (std::lock_guard and friends).
IMPLICIT_METHODS = {"lock", "unlock", "try_lock"}

KEEP_MARKER = re.compile(r"//\s*leca-analyze:\s*keep\b:?(.*)")
# The only reasons a definition may stay without a production caller.
KEEP_REASONS = ("test hook", "test reference", "checkpoint API")
IDENT = re.compile(r"\b[A-Za-z_]\w*")
# A name inside dynamic_cast<...> (or any *_cast) tests for a class; it
# does not make one.
CAST = re.compile(r"\b\w+_cast\s*<(?:[^<>]|<[^<>]*>)*>")
CLASS_DEF = re.compile(
    r"\b(?:class|struct)\s+(?:LECA_\w+\s*(?:\([^()]*\))?\s*)?"
    r"([A-Za-z_]\w*)(?:\s+final)?\s*(?::[^;{}()]*)?\{")
MACRO_DEF = re.compile(r"^[ \t]*#[ \t]*define[ \t]+([A-Za-z_]\w*)"
                       r"((?:[^\n]*\\\n)*[^\n]*)", re.MULTILINE)
# NAME = ..., NAME{...}, NAME[...] = ... or `using NAME = ...`.
NAMED_INIT = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?(=(?!=)|\{)")
# `namespace a::b {`, `enum class E : T {` and the like name a scope.
SCOPE_NAME = re.compile(r"\b(?:namespace|enum|class|struct|union)\b[\w\s:]*$")
NOT_A_VARIABLE = KEYWORDS | {
    "class", "struct", "enum", "union", "const", "constexpr", "override",
    "final", "mutable", "try", "extern", "public", "private", "protected"}


class ClassDef:
    """One class/struct definition and the text its members name."""

    def __init__(self, name: str, line: int, span: tuple[int, int]):
        self.name = name
        self.line = line
        self.span = span   # class keyword .. closing brace
        self.members = ""  # head + member declarations, no bodies


class Unit:
    """The unreached check's index of one file."""

    def __init__(self, path: pathlib.Path, functions: list[Function],
                 text: str, stripped: str):
        self.path = path
        self.functions = functions
        self.classes: list[ClassDef] = []
        self.macros: list[tuple[str, str]] = []
        self.inits: list[tuple[str, str]] = []
        self.keeps: list[tuple[int, str]] = [
            (line_of(text, m.start()), m.group(1).strip())
            for m in KEEP_MARKER.finditer(text)]

        bodies = sorted(fn.span for fn in functions)

        def in_body(offset: int) -> bool:
            return any(a <= offset < b for a, b in bodies)

        for m in CLASS_DEF.finditer(stripped):
            before = stripped[:m.start()].rstrip()
            if before.endswith(("enum", "<", ",")) or in_body(m.start()):
                continue
            end = match_brace(stripped, m.end() - 1)
            self.classes.append(ClassDef(
                m.group(1), line_of(stripped, m.start()), (m.start(), end)))
        for cls in self.classes:
            # Member text: the class minus method bodies and nested
            # classes (each of those is judged on its own).
            cut = [s for s in bodies if cls.span[0] < s[0] < cls.span[1]]
            cut += [o.span for o in self.classes if o is not cls
                    and cls.span[0] < o.span[0] < cls.span[1]]
            chars = list(stripped[cls.span[0]:cls.span[1]])
            for a, b in cut:
                for i in range(a - cls.span[0], b - cls.span[0]):
                    chars[i] = " "
            cls.members = "".join(chars)

        for m in MACRO_DEF.finditer(stripped):
            self.macros.append((m.group(1), m.group(2)))

        # Namespace-scope initializers: outside every body and class.
        opens = {fn.span[0] for fn in functions}
        opens |= {stripped.index("{", c.span[0]) for c in self.classes}
        scopes = bodies + [c.span for c in self.classes]
        for m in NAMED_INIT.finditer(stripped):
            name = m.group(1)
            if name in NOT_A_VARIABLE or SCOPE_NAME.search(
                    stripped, max(0, m.start() - 80), m.start()):
                continue
            if any(a <= m.start() < b for a, b in scopes):
                continue
            if m.group(2) == "{":
                brace = m.end() - 1
                if brace in opens:
                    continue
                self.inits.append((name, stripped[brace:match_brace(
                    stripped, brace)]))
            else:
                end = m.end()
                depth = 0
                while end < len(stripped):
                    c = stripped[end]
                    if c in "({[":
                        depth += 1
                    elif c in ")}]":
                        depth -= 1
                    elif c == ";" and depth <= 0:
                        break
                    end += 1
                self.inits.append((name, stripped[m.end():end]))


def definition_keeps(unit: Unit) -> tuple[dict[int, str], list[int]]:
    """Map each keep marker to the definition it annotates: the first
    function or class whose signature is on the marker's line or within
    four lines below it. Returns ({definition line: reason}, [lines of
    markers that annotate nothing])."""
    lines = sorted({fn.line for fn in unit.functions}
                   | {c.line for c in unit.classes})
    attached: dict[int, str] = {}
    orphans = []
    for marker, reason in unit.keeps:
        target = next((ln for ln in lines if marker <= ln <= marker + 4),
                      None)
        if target is None:
            orphans.append(marker)
        else:
            attached[target] = reason
    return attached, orphans


def check_unreached(units: list[Unit], flagged: set[pathlib.Path],
                    roots: set[pathlib.Path]) -> tuple[list[Finding], int]:
    """Findings for definitions in @p flagged files that no root
    reaches, plus the number of keep markers with a reason."""
    classes: dict[str, list[ClassDef]] = {}
    for unit in units:
        for cls in unit.classes:
            classes.setdefault(cls.name, []).append(cls)
    free: dict[str, list[Function]] = {}
    methods: dict[str, list[Function]] = {}
    by_class: dict[str, list[Function]] = {}
    macros: dict[str, list[str]] = {}
    inits: dict[str, list[str]] = {}
    for unit in units:
        for fn in unit.functions:
            if fn.qualifier in classes:
                methods.setdefault(fn.name, []).append(fn)
                by_class.setdefault(fn.qualifier, []).append(fn)
            else:
                free.setdefault(fn.name, []).append(fn)
        for name, body in unit.macros:
            macros.setdefault(name, []).append(body)
        for name, body in unit.inits:
            inits.setdefault(name, []).append(body)

    named: set[str] = set()       # every identifier a reached text uses
    live: set[str] = set()        # classes a reached text names
    reached: set[int] = set()     # id() of reached functions
    work: list = []               # Function, or (kind, name or text)

    def reach_class(name: str) -> None:
        if name in live:
            return
        live.add(name)
        for cls in classes[name]:
            work.append(("members", cls.members))
        for fn in by_class.get(name, []):
            if fn.name in named or fn.name in IMPLICIT_METHODS \
                    or fn.name.lstrip("~") == name:
                work.append(fn)

    def scan(text: str, members_only: bool) -> None:
        for name in set(IDENT.findall(CAST.sub(" ", text))):
            if name in classes:
                reach_class(name)
        if members_only:
            return
        for name in set(IDENT.findall(text)) - named:
            named.add(name)
            work.extend(free.get(name, []))
            work.extend(fn for fn in methods.get(name, [])
                        if fn.qualifier in live)
            work.extend(("text", body) for body in macros.get(name, []))
            work.extend(("text", body) for body in inits.get(name, []))

    markers = {unit.path: definition_keeps(unit) for unit in units}
    for unit in units:
        kept = {line for line, reason in markers[unit.path][0].items()
                if reason.startswith(KEEP_REASONS)}
        is_root = unit.path in roots
        for fn in unit.functions:
            if is_root or fn.name == "main" \
                    or fn.name.startswith("operator") or fn.line in kept:
                work.append(fn)
        for cls in unit.classes:
            if is_root or cls.line in kept:
                work.append(("class", cls.name))
                work.extend(by_class.get(cls.name, []))
        if is_root:
            work.extend(("text", body) for _, body in unit.inits)

    while work:
        item = work.pop()
        if isinstance(item, Function):
            if id(item) not in reached:
                reached.add(id(item))
                scan(item.refs + item.body, False)
        elif item[0] == "class":
            reach_class(item[1])
        else:
            scan(item[1], item[0] == "members")

    keeps = 0
    findings: list[Finding] = []
    # A dead class is reported once, not once per method.
    dead_classes = set(classes) - live
    for unit in units:
        if unit.path not in flagged:
            continue
        attached, orphans = markers[unit.path]
        keeps += sum(1 for reason in attached.values()
                     if reason.startswith(KEEP_REASONS))
        for line in orphans:
            findings.append(Finding(
                "unreached", unit.path, line,
                "keep marker annotates no definition"))
        defs = [(c.line, c.name, c.name in live) for c in unit.classes]
        defs += [(fn.line, fn.qualified, id(fn) in reached)
                 for fn in unit.functions
                 if fn.qualifier not in dead_classes]
        for line, name, ok in sorted(defs):
            reason = attached.get(line)
            if reason is not None and not reason.startswith(KEEP_REASONS):
                findings.append(Finding(
                    "unreached", unit.path, line,
                    f"keep marker on '{name}' gives no valid reason: "
                    f"write `// leca-analyze: keep: <reason>` where the "
                    f"reason starts with "
                    f"{', '.join(repr(r) for r in KEEP_REASONS)}"))
            elif not ok and reason is None:
                findings.append(Finding(
                    "unreached", unit.path, line,
                    f"'{name}' has no production caller: nothing under "
                    f"{', '.join(d + '/' for d in ROOT_DIRS)} reaches "
                    f"it; delete it, or mark it `// leca-analyze: keep: "
                    f"<reason>`"))
    return findings, keeps


# --------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------

def collect(targets: list[str]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for target in targets:
        path = pathlib.Path(target)
        if not path.is_absolute():
            path = REPO_ROOT / path
        if path.is_dir():
            files.extend(p for p in sorted(path.rglob("*"))
                         if p.suffix in CXX_SUFFIXES and p.is_file())
        elif path.is_file():
            files.append(path)
        else:
            print(f"leca_analyze: no such target: {target}",
                  file=sys.stderr)
            sys.exit(2)
    return files


def index_file(path: pathlib.Path
               ) -> tuple[list[Function], str, str] | None:
    """(functions, text, stripped text) for one file."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return None
    stripped = strip_noise(text)
    return extract_functions(path, stripped), text, stripped


def analyze(files: list[pathlib.Path], tree: bool = True
            ) -> tuple[list[Finding], int]:
    """Run every check over @p files. In tree mode the unreached check
    also indexes src/ and the root directories and flags only src/
    definitions; otherwise (a fixture) the files stand alone.
    Returns (findings, keep markers with a reason)."""
    functions: list[Function] = []
    entries = set(DEFAULT_ENTRY_POINTS)
    findings: list[Finding] = []
    units: list[Unit] = []
    for path in files:
        indexed = index_file(path)
        if indexed is None:
            findings.append(Finding("io", path, 0, "cannot read"))
            continue
        fns, text, stripped = indexed
        functions.extend(fns)
        units.append(Unit(path, fns, text, stripped))

        # `// leca-analyze: entry` above a definition promotes it to a
        # hot-path entry point; `// leca-analyze: cold` exempts it (and
        # its callees) from the hidden-alloc walk.
        entry_marks = marker_lines(ENTRY_MARKER, text)
        cold_marks = marker_lines(COLD_MARKER, text)
        for fn in fns:
            if near_marker(fn, entry_marks):
                entries.add(fn.name)
            if near_marker(fn, cold_marks):
                fn.cold = True

        findings.extend(check_unordered_iteration(path, stripped))
        findings.extend(check_detached_thread(path, stripped))

    findings.extend(check_hidden_alloc(functions, entries))
    findings.extend(check_arena_escape(functions))
    findings.extend(check_lock_order(functions))

    if tree:
        targets = {u.path.resolve() for u in units}
        for path in collect(["src", *ROOT_DIRS]):
            if path.resolve() in targets:
                continue
            indexed = index_file(path)
            if indexed is not None:
                units.append(Unit(path, indexed[0], indexed[1],
                                  indexed[2]))
        flagged = {u.path for u in units if u.path.resolve() in targets
                   and (repo_relative(u.path) or "").startswith("src/")}
        roots = {u.path for u in units
                 if (repo_relative(u.path) or "").split("/")[0]
                 in ROOT_DIRS}
    else:
        flagged = {u.path for u in units}
        roots = set()
    unreached, keeps = check_unreached(units, flagged, roots)
    findings.extend(unreached)
    findings.sort(key=lambda f: (str(f.path), f.line, f.check))
    return findings, keeps


def run_fixtures(fixture_dir: pathlib.Path) -> int:
    files = collect([str(fixture_dir)])
    if not files:
        print(f"leca_analyze: no fixtures under {fixture_dir}",
              file=sys.stderr)
        return 2
    failures = 0
    checked = 0
    for path in files:
        text = path.read_text(encoding="utf-8", errors="replace")
        expected = set(re.findall(r"//\s*expect:\s*([\w-]+)", text))
        if not expected and "lint-expect:" in text:
            # Lint fixture: tools/leca_lint.py --fixtures owns it.
            continue
        checked += 1
        if not expected:
            print(f"FIXTURE {path.name}: no '// expect:' annotations",
                  file=sys.stderr)
            failures += 1
            continue
        findings, _ = analyze([path], tree=False)
        found = {f.check for f in findings}
        at = {(f.check, f.line) for f in findings}
        missing = sorted(expected - found)
        for kind, want in (("here", True), ("none", False)):
            for m in re.finditer(rf"//\s*expect-{kind}:\s*([\w-]+)",
                                 text):
                line = line_of(text, m.start())
                if ((m.group(1), line) in at) != want:
                    missing.append(f"{m.group(1)} {kind} at line {line}")
        if missing:
            failures += 1
            print(f"FIXTURE {path.name}: MISSED "
                  f"{', '.join(missing)} "
                  f"(found: {', '.join(sorted(found)) or 'nothing'})")
            for f in findings:
                print(f"    {f.text()}")
        else:
            print(f"FIXTURE {path.name}: ok "
                  f"({', '.join(sorted(expected))})")
    if failures:
        print(f"leca_analyze: {failures} fixture(s) missed their "
              f"expected findings", file=sys.stderr)
        return 1
    print(f"leca_analyze: all {checked} fixtures flagged as "
          f"expected", file=sys.stderr)
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="leca_analyze.py",
        description="Tier-2 semantic analysis (see module docstring)")
    parser.add_argument("targets", nargs="*", default=None)
    parser.add_argument("--fixtures", metavar="DIR")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    args = parser.parse_args(argv)

    if args.fixtures:
        return run_fixtures(pathlib.Path(args.fixtures))

    targets = args.targets or ["src"]
    files = collect(targets)
    findings, keeps = analyze(files)
    if args.format == "json":
        print(json.dumps({
            "files": len(files),
            "keeps": keeps,
            "findings": [f.as_dict() for f in findings],
        }, indent=2))
    else:
        for finding in findings:
            print(finding.text())
        status = f"{len(findings)} finding(s)" if findings else "OK"
        print(f"leca_analyze: {status} ({len(files)} files, "
              f"{keeps} keep markers)",
              file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
