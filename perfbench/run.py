#!/usr/bin/env python3
"""Build and run the LeCA benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_int8 --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the
library sources plus the benchmark binary) into .bench_build/perfbench;
later runs rebuild incrementally. The script prints a header with the
host and run identity, the binary's human-readable report, and as its
last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where "metrics" holds every `end_to_end` metric of BENCHMARK.json with
--trace 0 and every `per_layer` metric with --trace 1. The exit code is
0 only when every output check passed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "leca_perfbench")

# Pool threads of every workload. One compute thread: on a shared host a
# parallel loop waits for its slowest thread, so every extra thread adds
# run-to-run spread, and one busy thread leaves room for the serve
# workloads' submitting and completion threads on a small machine.
THREADS = 1

# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; raises on failure."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found under " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "--target",
                        "leca_perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    """HEAD of a git checkout at ROOT, read from .git; None otherwise."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", head[5:])
            if os.path.exists(ref):
                with open(ref) as f:
                    return f.read().strip()
            with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
                for line in f:
                    if line.strip().endswith(head[5:]):
                        return line.split()[0]
            return None
        return head
    except OSError:
        return None


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, extra=()):
    """Run the built binary; returns (exit code, report lines, RESULT)."""
    env = dict(os.environ)
    env["LECA_THREADS"] = str(THREADS)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("RESULT "):
        result = json.loads(lines[-1][len("RESULT "):])
        lines = lines[:-1]
    if proc.stderr:
        log(proc.stderr.rstrip())
    return proc.returncode, lines, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("run.py: unknown workload %r (have %s)" % (args.workload, names))
        return 2
    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]

    try:
        build()
        code, lines, result = run_binary(args.workload, args.seed,
                                         args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("run.py: %s" % e)
        return 2
    if result is None:
        log("run.py: the benchmark exited with %d and no result" % code)
        return 2

    sha = git_sha()
    print("# host: %s, nproc %d" % (cpu_model(), os.cpu_count() or 0))
    print("# git sha: %s; source digest: %s"
          % (sha or "unavailable (not a git checkout)", source_digest()))
    print("# LECA_THREADS: %d for every workload" % THREADS)
    for line in lines:
        print(line)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            log("run.py: metric %s missing or in the wrong unit" % m["name"])
            return 2
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        print("# gated: %s = %r %s (better %s, %d samples)"
              % (m["name"], got["value"], m["unit"], m["better"],
                 got["samples"]))
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
