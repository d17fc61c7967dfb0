#!/usr/bin/env python3
"""Short-mode self-test of the LeCA benchmark.

    python3 perfbench/selftest.py [--seconds 2]

Runs every workload briefly, untraced and traced, and asserts that:
  - every metric the benchmark defines is emitted, with a unit and a
    better-direction, and run.py's result line has exactly the
    contract's keys;
  - traced parts sum to their whole within 5%: encoder + decoder +
    backbone against the wrapped Backend call, queue + backend + wire
    against each frame's total, every step span against its train step;
  - the serve conservation law holds at every rate point:
    submitted == completed + shed + expired + rejectedClosed + errored;
  - every output check passes, and a corrupted reference fails the run;
  - run.py fails without a result when the library sources are absent.
Exits non-zero on the first failed assertion.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SERVE_E2E = ["setup_s", "setup_rss_mb", "peak_rss_mb", "failed_share",
             "latency_p50_ms", "latency_p90_ms", "latency_p99_ms",
             "latency_tail_ms", "max_rate_fps", "service_rate_fps",
             "service_rate_fps.median"]
SERVE_LAYER = ["serve.queue_wait_us.p50", "serve.queue_wait_us.p99",
               "serve.batch_size.mean", "serve.self_us.p50",
               "serve.generator_lateness_ms.p99", "serve.backend_ms",
               "core.encoder_ms", "core.decoder_ms", "nn.backbone_ms",
               "trace.overhead_pct"]
WIRE_LAYER = ["serve.wire_encode_us", "bitstream.encode_us",
              "bitstream.bytes_per_frame"]
MODALITIES = ["soft", "hard", "noisy"]
CHILDREN = ["stem", "bn", "relu", "res1", "res2", "res3", "res4", "res5",
            "gap", "fc"]
TRAIN_E2E = (["setup_s", "setup_rss_mb", "peak_rss_mb", "failed_share",
              "latency_p50_ms", "latency_p90_ms", "latency_tail_ms",
              "service_rate_fps", "chip_encode_ms"]
             + ["train_step_ms." + m for m in MODALITIES]
             + ["train_step_p90_ms." + m for m in MODALITIES])
TRAIN_LAYER = (["core.encoder_%s_ms.%s" % (d, m)
                for d in ("fwd", "bwd") for m in MODALITIES]
               + ["nn.backbone.%s.%s_ms" % (c, d)
                  for c in CHILDREN for d in ("fwd", "bwd")]
               + ["sensor.pixel_noise_ms", "core.decoder_fwd_ms",
                  "core.decoder_bwd_ms", "nn.loss_ms", "nn.adam_step_ms",
                  "hw.mac_ops_per_frame", "hw.adc_conversions_per_frame",
                  "hw.output_link_bits_per_frame",
                  "trace.overhead_pct"])

EXPECTED = {
    ("serve_int8", 0): SERVE_E2E + ["wire_bytes_per_frame"],
    ("serve_int8", 1): SERVE_LAYER + WIRE_LAYER,
    ("serve_tiny", 0): SERVE_E2E,
    ("serve_tiny", 1): SERVE_LAYER,
    ("train_analog", 0): TRAIN_E2E,
    ("train_analog", 1): TRAIN_LAYER,
}


def check(cond, what):
    if not cond:
        print("SELFTEST FAILED: " + what)
        sys.exit(1)


def details(result, section):
    return [d for d in result["details"] if d["section"] == section]


def check_run(workload, trace, seconds, spec):
    code, _, result = run.run_binary(workload, 1, seconds, trace)
    label = "%s trace %d" % (workload, trace)
    check(result is not None, label + ": no RESULT line")
    check(code == 0 and result["correct"] and result["failed"] == 0,
          label + ": output checks failed (exit %d)" % code)
    check(result["attempted"] >= 1, label + ": nothing attempted")
    metrics = result["metrics"]
    gated = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    for name in EXPECTED[(workload, trace)] + [m["name"] for m in gated]:
        check(name in metrics, "%s: metric %s not emitted" % (label, name))
    for name, m in metrics.items():
        check(m["unit"] and m["better"] in ("lower", "higher"),
              "%s: %s lacks a unit or direction" % (label, name))
        check(m["value"] is not None, "%s: %s is not finite" % (label, name))
    for m in gated:
        check(metrics[m["name"]]["unit"] == m["unit"]
              and metrics[m["name"]]["better"] == m["better"],
              "%s: %s disagrees with BENCHMARK.json" % (label, m["name"]))
        check(metrics[m["name"]]["value"] > 0,
              "%s: gated metric %s is not positive" % (label, m["name"]))

    for point in details(result, "rate_point"):
        terminal = (point["serve.ok"] + point["serve.shed"]
                    + point["serve.expired"] + point["serve.errored"]
                    + point["serve.closed"])
        check(point["conserved"] == 1 and point["serve.sent"] == terminal,
              "%s: conservation law broken at %r fps"
              % (label, point["offered_fps"]))
    if workload.startswith("serve"):
        check(len(details(result, "rate_point")) >= 3,
              label + ": fewer than three rate points")
    if trace == 1:
        parts = details(result, "parts")
        check(len(parts) == 1, label + ": no parts section")
        p = parts[0]
        if workload.startswith("serve"):
            check(0.95 <= p["backend_parts_ratio"] <= 1.05,
                  "%s: encoder+decoder+backbone = %.3f x backend"
                  % (label, p["backend_parts_ratio"]))
            check(p["serve_parts_ratio"] <= 1.05,
                  "%s: queue+backend+wire = %.3f x total"
                  % (label, p["serve_parts_ratio"]))
            check(metrics["serve.self_us.p50"]["value"] >= 0,
                  label + ": negative serve self time")
        else:
            check(0.95 <= p["train_step_parts_ratio_min"]
                  and p["train_step_parts_ratio_max"] <= 1.05,
                  "%s: step spans sum to %.3f..%.3f of the step"
                  % (label, p["train_step_parts_ratio_min"],
                     p["train_step_parts_ratio_max"]))
    print("ok   %-14s trace %d  attempted %d" % (workload, trace,
                                                 result["attempted"]))


def check_corrupt(workload, seconds):
    code, _, result = run.run_binary(workload, 1, seconds, 0,
                                     ["--corrupt-reference"])
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] > 0,
          workload + ": a corrupted reference did not fail the run")
    print("ok   %-14s corrupted reference fails (%d failed)"
          % (workload, result["failed"]))


def check_contract_line(seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         "serve_int8", "--seed", "3", "--seconds", str(seconds), "--trace",
         "0"], cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
        timeout=run.RUN_TIMEOUT_S)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    check(proc.returncode == 0, "run.py exited %d" % proc.returncode)
    check(sorted(last) == ["attempted", "correct", "failed", "metrics"],
          "run.py result line has keys %s" % sorted(last))
    check(all(sorted(v) == ["unit", "value"]
              for v in last["metrics"].values()),
          "run.py metrics carry more than value and unit")
    print("ok   run.py result line")


def check_without_sources():
    isolated = os.path.join(run.BUILD, "selftest_isolated")
    shutil.rmtree(isolated, ignore_errors=True)
    os.makedirs(isolated)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), isolated)
    shutil.copytree(run.HERE, os.path.join(isolated, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_int8",
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=isolated,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=run.RUN_TIMEOUT_S)
    shutil.rmtree(isolated, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode != 0 and not (lines and lines[-1].startswith("{")),
          "run.py printed a result without the library sources")
    print("ok   no result without the library sources")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    spec = run.load_spec()
    run.build()
    # serve_tiny is not in BENCHMARK.json (see README.md) but the binary
    # still serves it, so it is checked here too.
    for workload in [w["name"] for w in spec["workloads"]] + ["serve_tiny"]:
        for trace in (0, 1):
            check_run(workload, trace, args.seconds, spec)
    check_corrupt("serve_tiny", args.seconds)
    check_corrupt("train_analog", args.seconds)
    check_contract_line(args.seconds)
    check_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
