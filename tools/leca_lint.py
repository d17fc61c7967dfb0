#!/usr/bin/env python3
"""Repo-specific lint for the LeCA simulator (stdlib only).

Enforces invariants clang-tidy cannot express:

  raw-allocation     no raw `new` / `malloc` / `free` in src/ — the
                     simulator owns everything through containers and
                     smart pointers (scoped to src/ only; tests may
                     exercise whatever they need).
  nondeterminism     no `std::rand`, bare `rand()`, `srand`,
                     `time(nullptr)` seeds, or `std::random_device` —
                     every stochastic component draws from leca::Rng so
                     experiments replay bit-for-bit.
  narrowing-cast     no float->int narrowing via `static_cast<int>` or
                     C-style casts wrapped around std::round/lround/
                     floor/ceil/trunc — use the leca:: rounding helpers
                     in util/numeric.hh, which name the rounding mode
                     and bound the value in Debug builds.
  header-guard       include guards follow LECA_<PATH>_<FILE>_HH
                     derived from the file location.
  build-include      no #include of anything under build/ — generated
                     trees are not part of the source interface.
  concurrency-primitive
                     no raw `std::thread` / `std::jthread` /
                     `std::async` / `#pragma omp` outside
                     src/util/parallel.* — all concurrency flows
                     through the one audited deterministic pool
                     (parallelFor).
  tensor-at-in-kernel
                     no per-element `.at(...)` indexing inside the hot
                     kernel and layer files (src/tensor/{ops,kernels}.cc
                     and the forward/backward hot loops in src/nn/ and
                     src/data/augment.cc) — inner loops there must walk
                     raw pointers; bounds are checked once at the op
                     boundary, not per element.
  tensor-vector-partials
                     no `std::vector<Tensor>` in backward hot files —
                     per-item gradient partials go into thread-local
                     Arena scratch and are folded serially in ascending
                     item order (see DESIGN.md), not into heap-allocated
                     per-item tensors.
  serve-unbounded-queue
                     no growable standard queues (`std::queue`,
                     `std::deque`, `std::list`, `std::forward_list`,
                     `std::priority_queue`) in src/serve/ — the serve
                     runtime admits work only through the bounded ring
                     in serve/queue.hh, so overload surfaces as
                     backpressure or shedding, never as queue growth.
  bitstream-unvalidated-read
                     every raw byte read (`std::memcpy` /
                     `reinterpret_cast`) in src/bitstream/ decode paths
                     must sit behind ContainerReader's up-front section
                     length + checksum validation, and must say so with
                     a reviewed '// leca-lint: bitstream-validated'
                     marker on or above the line — untrusted wire bytes
                     are never indexed on faith.

Usage:  tools/leca_lint.py [DIR-or-FILE ...]
        (defaults to: src tests bench examples)
        --format text|json|sarif   output format (default text)
        --fixtures DIR             self-test: lint the known-bad
                                   fixtures under DIR and require each
                                   '// lint-expect: <rule>' line to be
                                   flagged, and nothing else

Exits 0 when clean, 1 when any finding is reported.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

CXX_SUFFIXES = {".cc", ".cpp", ".cxx", ".hh", ".hpp", ".h"}
HEADER_SUFFIXES = {".hh", ".hpp", ".h"}

# Rule name -> (regex, message, src_only, scan_raw)
LINE_RULES = [
    (
        "raw-allocation",
        re.compile(r"(?<![\w.])new\s+[A-Za-z_:][\w:<>, ]*[({]"
                   r"|(?<![\w.])new\s+[A-Za-z_:][\w:]*\s*\["
                   r"|\bstd::malloc\b|(?<![\w.:])malloc\s*\("
                   r"|\bstd::free\b|(?<![\w.:])free\s*\("
                   r"|(?<![\w.])delete\s"),
        "raw allocation; use containers or std::unique_ptr",
        True,
        False,
    ),
    (
        "nondeterminism",
        re.compile(r"\bstd::rand\b|(?<![\w.:])s?rand\s*\("
                   r"|\btime\s*\(\s*(nullptr|NULL|0)\s*\)"
                   r"|\bstd::random_device\b|\bstd::mt19937"),
        "nondeterministic source; draw from leca::Rng (util/rng.hh)",
        False,
        False,
    ),
    (
        "narrowing-cast",
        re.compile(r"static_cast<\s*(?:unsigned\s+)?(?:int|long|short)"
                   r"(?:\s+long)?\s*>\s*\(\s*"
                   r"(?:std::)?l?l?(?:round|floor|ceil|trunc)\b"
                   r"|\(\s*(?:unsigned\s+)?(?:int|long|short)\s*\)\s*"
                   r"(?:std::)?l?l?(?:round|floor|ceil|trunc)\b"),
        "float->int narrowing; use leca::roundToInt, or leca::truncToInt "
        "of std::floor / std::ceil (util/numeric.hh)",
        False,
        False,
    ),
    (
        "build-include",
        re.compile(r"#\s*include\s*[\"<][^\">]*\bbuild/"),
        "do not include generated files from build/",
        False,
        True,  # the include path is a string literal strip_noise blanks
    ),
    (
        "concurrency-primitive",
        re.compile(r"\bstd::j?thread\b|\bstd::async\b"
                   r"|#\s*pragma\s+omp\b"),
        "raw concurrency primitive; use parallelFor (util/parallel.hh)",
        False,
        False,
    ),
    (
        "tensor-at-in-kernel",
        re.compile(r"\.at\s*\("),
        "per-element Tensor::at in a hot kernel file; walk raw "
        "pointers (bounds are checked once at the op boundary)",
        True,
        False,
    ),
    (
        "tensor-vector-partials",
        re.compile(r"\bstd::vector<\s*Tensor\s*>"),
        "per-item std::vector<Tensor> partials in a backward hot file; "
        "use thread-local Arena scratch folded in ascending item order",
        True,
        False,
    ),
    (
        "serve-unbounded-queue",
        re.compile(r"\bstd::(queue|deque|list|forward_list"
                   r"|priority_queue)\b"),
        "unbounded standard queue in the serve runtime; use the "
        "bounded ring in serve/queue.hh so overload sheds instead of "
        "growing",
        True,
        False,
    ),
    (
        "precision-boundary",
        re.compile(r"\bdequantizeActivationNchw\s*\("
                   r"|\bdequantizeRowMajor\s*\("),
        "fp32 materialisation of resident int8 codes in a quantized "
        "Eval hot path; keep the activation resident (DESIGN.md §13) "
        "or mark a planner-sanctioned boundary with "
        "'// leca-lint: precision-boundary' on or above the line",
        True,
        False,
    ),
    (
        "bitstream-unvalidated-read",
        re.compile(r"\bstd::memcpy\s*\(|\breinterpret_cast<"),
        "raw byte read in the wire-format decoder; hoist it behind "
        "ContainerReader's section length + checksum validation and "
        "mark the reviewed site with '// leca-lint: "
        "bitstream-validated' on or above the line — untrusted wire "
        "bytes are never indexed on faith",
        True,
        False,
    ),
    (
        "kernel-tu-container",
        re.compile(r"\bstd::(vector|string|map|unordered_map|deque"
                   r"|list|set|unordered_set)\b"),
        "allocating standard container in a SIMD kernel TU; kernels "
        "take raw pointers and stage scratch on the stack or the "
        "caller's Arena",
        True,
        False,
    ),
]

# Rule name -> repo-relative paths where the rule does not apply.
RULE_EXEMPT_PATHS = {
    # The audited pool implementation is the one place allowed to own
    # threads.
    "concurrency-primitive": re.compile(r"^src/util/parallel\.(hh|cc)$"),
    # The allocation-guard TU replaces global operator new/delete, so
    # it must call malloc/free directly (anything else would recurse
    # into the hooks it implements).
    "raw-allocation": re.compile(r"^src/util/alloc_guard\.cc$"),
}

# Files skipped entirely: the static-analysis fixtures are known-bad
# snippets by design (tools/leca_analyze.py must flag them; linting
# them would just restate the intent).
SKIP_PATHS = re.compile(r"^tests/analysis/fixtures/")

# Rule name -> repo-relative paths the rule is restricted to (the rule
# applies only there; everywhere else it is silent).
RULE_ONLY_PATHS = {
    # The files holding the hot inner loops: the tensor kernels (fp32,
    # int8, and every per-ISA TU) plus every layer forward/backward on
    # the training path.
    "tensor-at-in-kernel": re.compile(
        r"^src/(tensor/(ops|kernels|quant|kernels_[a-z0-9]+)\.cc"
        r"|nn/(conv|conv_transpose|activation|batchnorm|pool|loss"
        r"|optimizer)\.cc"
        r"|data/augment\.cc)$"),
    # Dispatched SIMD kernel TUs stay container-free end to end.
    "kernel-tu-container": re.compile(
        r"^src/tensor/kernels_[a-z0-9]+\.cc$"),
    # Gradient-partial storage on the training path.
    "tensor-vector-partials": re.compile(
        r"^src/nn/.*\.cc$|^src/core/encoder\.cc$"),
    # The serve runtime must stay bounded-memory.
    "serve-unbounded-queue": re.compile(r"^src/serve/.*$"),
    # The quantized Eval executors and the serving layer: the files
    # where a stray dequantize would silently re-materialise fp32
    # planes mid-chain. The implementation TU (tensor/quant.cc) and a
    # quantized conv's per-call weight dequantize (nn/conv.cc) are out
    # of scope — they define the boundary machinery or touch weights,
    # not activations.
    "precision-boundary": re.compile(
        r"^src/(nn/sequential\.cc|core/pipeline\.cc|serve/.*\.cc)$"),
    # The wire-format subsystem parses untrusted bytes; every raw read
    # there must be a reviewed, validated site.
    "bitstream-unvalidated-read": re.compile(r"^src/bitstream/.*$"),
}

# Rule name -> escape-marker name when it differs from the rule name.
# The default marker is the rule itself ('// leca-lint: <rule>'); a
# mapping here lets the marker state the reviewed *property* instead of
# restating the rule (reads better at the call site: the comment says
# the site IS validated, not that a check is being suppressed).
RULE_ESCAPE_MARKERS = {
    "bitstream-unvalidated-read": "bitstream-validated",
}

COMMENT_OR_STRING = re.compile(
    r"//[^\n]*"                 # line comment
    r"|/\*.*?\*/"               # one-line block comment
    r"|\"(?:[^\"\\]|\\.)*\""    # string literal
    r"|'(?:[^'\\]|\\.)*'"       # char literal
)


def strip_noise(line: str, in_block_comment: bool) -> tuple[str, bool]:
    """Blank out comments and string literals so rules see only code.

    Tracks /* ... */ continuation across lines via in_block_comment.
    """
    if in_block_comment:
        end = line.find("*/")
        if end < 0:
            return "", True
        line = " " * (end + 2) + line[end + 2:]
    line = COMMENT_OR_STRING.sub(lambda m: " " * len(m.group(0)), line)
    start = line.find("/*")
    if start >= 0:
        return line[:start], True
    return line, False


def repo_relative(path: pathlib.Path) -> pathlib.Path | None:
    """Path relative to the repo root, or None for external files."""
    try:
        return path.resolve().relative_to(REPO_ROOT)
    except ValueError:
        return None


def expected_guard(path: pathlib.Path) -> str:
    """LECA_<PATH>_<FILE>_HH with the leading src/ component dropped."""
    rel = repo_relative(path)
    if rel is None:
        # Outside the repo (ad-hoc invocation): only the file name is
        # meaningful.
        rel = pathlib.Path(path.name)
    parts = list(rel.parts)
    if parts[0] == "src":
        parts = parts[1:]
    parts[-1] = rel.stem
    cleaned = "_".join(re.sub(r"[^A-Za-z0-9]", "_", p) for p in parts)
    return "LECA_" + cleaned.upper() + "_HH"


def finding(path: pathlib.Path, line: int, rule: str,
            message: str, snippet: str = "") -> dict:
    return {"path": str(path), "line": line, "rule": rule,
            "message": message, "snippet": snippet}


def format_text(item: dict) -> str:
    snippet = f"'{item['snippet']}': " if item["snippet"] else ""
    return (f"{item['path']}:{item['line']}: [{item['rule']}] "
            f"{snippet}{item['message']}")


def check_header_guard(path: pathlib.Path,
                       lines: list[str]) -> list[dict]:
    guard = expected_guard(path)
    ifndef = f"#ifndef {guard}"
    define = f"#define {guard}"
    stripped = [ln.strip() for ln in lines]
    if ifndef not in stripped:
        return [finding(path, 1, "header-guard",
                        f"expected '{ifndef}'")]
    idx = stripped.index(ifndef)
    if idx + 1 >= len(stripped) or stripped[idx + 1] != define:
        return [finding(path, idx + 2, "header-guard",
                        f"expected '{define}' directly after "
                        f"'{ifndef}'")]
    # The guard's closing #endif must carry the canonical trailing
    # comment — `#endif // GUARD` — so the reader of a long header can
    # tell which conditional just closed without scrolling back up.
    endif_expected = f"#endif // {guard}"
    last_endif = None
    for lineno, ln in enumerate(stripped, start=1):
        if ln.startswith("#endif"):
            last_endif = (lineno, ln)
    if last_endif is None:
        return [finding(path, len(lines), "header-guard",
                        f"missing closing '{endif_expected}'")]
    lineno, ln = last_endif
    if ln != endif_expected:
        return [finding(path, lineno, "header-guard",
                        f"closing '#endif' must read exactly "
                        f"'{endif_expected}', got '{ln}'")]
    return []


KERNEL_TU = re.compile(r"^src/tensor/kernels_([a-z0-9]+)\.cc$")

# Per-ISA kernel TU -> a macro its ISA guard must test. The guard keeps
# the TU compiling (to nothing) on toolchains without that ISA, so the
# build never needs per-target source lists and tensor/isa.cc stays the
# single point of kernel selection. The scalar TU is the portable
# fallback and must NOT be guarded.
KERNEL_TU_GUARDS = {
    "avx2": "__AVX2__",
    "avx512": "__AVX512F__",
    "avx512vnni": "__AVX512VNNI__",
    "neon": "__aarch64__",
}


def check_kernel_tu(path: pathlib.Path, rel: pathlib.Path,
                    lines: list[str]) -> list[dict]:
    """Structural rules for src/tensor/kernels_<isa>.cc files."""
    match = KERNEL_TU.match(rel.as_posix())
    if match is None:
        return []
    isa = match.group(1)
    stripped = [ln.strip() for ln in lines]

    ns_line = None
    for lineno, ln in enumerate(stripped, start=1):
        if ln.startswith("namespace leca::simd::detail"):
            ns_line = lineno
            break
    findings = []
    if ns_line is None:
        findings.append(finding(
            path, 1, "kernel-tu-structure",
            "kernel TU must define its kernels in "
            "leca::simd::detail (see tensor/simd.hh)"))
    if isa == "scalar":
        return findings

    macro = KERNEL_TU_GUARDS.get(isa)
    guard_line = None
    for lineno, ln in enumerate(stripped, start=1):
        if ns_line is not None and lineno >= ns_line:
            break
        if ln.startswith("#if") and "defined(" in ln:
            guard_line = (lineno, ln)
            break
    if guard_line is None:
        findings.append(finding(
            path, 1, "kernel-tu-structure",
            f"per-ISA kernel TU must guard its whole body with an "
            f"'#if defined(...)' ISA test"
            + (f" covering {macro}" if macro else "")))
    elif macro is not None and macro not in guard_line[1]:
        findings.append(finding(
            path, guard_line[0], "kernel-tu-structure",
            f"ISA guard must test {macro}", guard_line[1]))
    return findings


def lint_file(path: pathlib.Path,
              rel_override: pathlib.Path | None = None) -> list[dict]:
    """Lint one file; rel_override makes it lint AS IF it lived at that
    repo-relative path (used by --fixtures so a known-bad snippet under
    tests/analysis/fixtures/ can exercise path-scoped rules)."""
    findings: list[dict] = []
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        return [finding(path, 0, "io", f"cannot read: {err}")]
    lines = text.splitlines()

    rel = rel_override if rel_override is not None else repo_relative(path)
    if (rel_override is None and rel is not None
            and SKIP_PATHS.match(rel.as_posix())):
        return []
    in_src = rel is not None and rel.parts[0] == "src"

    in_block = False
    for lineno, raw in enumerate(lines, start=1):
        code, in_block = strip_noise(raw, in_block)
        if not code.strip() and "#" not in raw:
            continue
        for name, pattern, message, src_only, scan_raw in LINE_RULES:
            if src_only and not in_src:
                continue
            exempt = RULE_EXEMPT_PATHS.get(name)
            if (exempt and rel is not None
                    and exempt.match(rel.as_posix())):
                continue
            only = RULE_ONLY_PATHS.get(name)
            if only and (rel is None or not only.match(rel.as_posix())):
                continue
            match = pattern.search(raw if scan_raw else code)
            if match:
                # Inline escape: '// leca-lint: <rule>' on the flagged
                # line or the one above acknowledges a reviewed,
                # intentional use (e.g. a planner-sanctioned precision
                # boundary) and silences exactly that rule there.
                mark = ("leca-lint: "
                        f"{RULE_ESCAPE_MARKERS.get(name, name)}")
                prev = lines[lineno - 2] if lineno >= 2 else ""
                if mark in raw or mark in prev:
                    continue
                findings.append(finding(
                    path, lineno, name, message,
                    match.group(0).strip()))

    if path.suffix in HEADER_SUFFIXES:
        findings.extend(check_header_guard(path, lines))
    if rel is not None:
        findings.extend(check_kernel_tu(path, rel, lines))
    return findings


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
            print(f"leca_lint: no such target: {target}", file=sys.stderr)
            sys.exit(2)
    return files


def emit_json(findings: list[dict], file_count: int) -> None:
    print(json.dumps({"findings": findings,
                      "files_scanned": file_count,
                      "count": len(findings)}, indent=2))


def emit_sarif(findings: list[dict]) -> None:
    """Minimal SARIF 2.1.0 so CI annotation uploaders can ingest us."""
    rule_ids = sorted({item["rule"] for item in findings})
    results = []
    for item in findings:
        rel = repo_relative(pathlib.Path(item["path"]))
        uri = rel.as_posix() if rel is not None else item["path"]
        results.append({
            "ruleId": item["rule"],
            "level": "error",
            "message": {"text": item["message"]},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                    "region": {"startLine": max(1, item["line"])},
                },
            }],
        })
    sarif = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "leca_lint",
                "informationUri":
                    "https://example.invalid/leca/tools/leca_lint.py",
                "rules": [{"id": rid} for rid in rule_ids],
            }},
            "results": results,
        }],
    }
    print(json.dumps(sarif, indent=2))


# Fixture directives (see tests/analysis/fixtures/lint/): 'lint-expect'
# pins a finding of that rule to its line; 'lint-path' makes the whole
# file lint as if it lived at that repo-relative path, so path-scoped
# rules fire on a snippet that deliberately lives outside their scope.
LINT_EXPECT = re.compile(r"//\s*lint-expect:\s*([\w-]+)")
LINT_PATH = re.compile(r"//\s*lint-path:\s*(\S+)")


def run_lint_fixtures(target: str) -> int:
    """Self-test: every '// lint-expect: <rule>' line in a fixture must
    be reported, and nothing else may be. Fixtures without lint-expect
    annotations belong to tools/leca_analyze.py and are skipped."""
    root = pathlib.Path(target)
    if not root.is_absolute():
        root = REPO_ROOT / target
    failures = 0
    checked = 0
    for path in sorted(root.rglob("*")):
        if path.suffix not in CXX_SUFFIXES or not path.is_file():
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        if "lint-expect:" not in text:
            continue
        checked += 1
        lines = text.splitlines()
        match = LINT_PATH.search(text)
        rel_override = pathlib.Path(match.group(1)) if match else None
        expected = set()
        for lineno, raw in enumerate(lines, start=1):
            for rule in LINT_EXPECT.findall(raw):
                expected.add((lineno, rule))
        got = {(item["line"], item["rule"])
               for item in lint_file(path, rel_override=rel_override)}
        for lineno, rule in sorted(expected - got):
            failures += 1
            print(f"FIXTURE {path.name}:{lineno}: expected [{rule}] "
                  f"was not reported", file=sys.stderr)
        for lineno, rule in sorted(got - expected):
            failures += 1
            print(f"FIXTURE {path.name}:{lineno}: unexpected [{rule}] "
                  f"finding", file=sys.stderr)
    if checked == 0:
        print("leca_lint: no lint fixtures found", file=sys.stderr)
        return 1
    if failures:
        print(f"leca_lint: {failures} fixture failure(s)",
              file=sys.stderr)
        return 1
    print(f"leca_lint: fixtures OK ({checked} file(s))",
          file=sys.stderr)
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="leca_lint.py",
        description="Repo-specific lint for the LeCA simulator.")
    parser.add_argument("targets", nargs="*",
                        default=["src", "tests", "bench", "examples"],
                        help="directories or files to lint")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", dest="fmt",
                        help="output format (default: text)")
    parser.add_argument("--fixtures", metavar="DIR",
                        help="self-test mode: verify '// lint-expect:' "
                             "annotated fixtures under DIR are flagged "
                             "exactly as annotated")
    args = parser.parse_args(argv)

    if args.fixtures:
        return run_lint_fixtures(args.fixtures)

    files = collect(args.targets)
    findings: list[dict] = []
    for path in files:
        findings.extend(lint_file(path))

    if args.fmt == "json":
        emit_json(findings, len(files))
    elif args.fmt == "sarif":
        emit_sarif(findings)
    else:
        for item in findings:
            print(format_text(item))

    if findings:
        print(f"leca_lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"leca_lint: OK ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
