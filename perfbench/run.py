#!/usr/bin/env python3
"""Fenrir's end-to-end benchmark: build the harness, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The harness (perfbench/*.cpp) is built
from source with CMake into $CARGO_TARGET_DIR (default .bench_build) on the
first run. The workload's scenario seed is its default seed plus N, so seed 0
is the paper configuration and the exact paper values are checked there.

stdout: the build identity, the generated sizes, every recorded metric by
name with its unit, sample count and statistic, and as the last line one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end ones, with --trace 1 its per_layer
ones (0 for a layer the workload does not exercise). Percentiles are exact
nearest-rank order statistics of the raw samples.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

# Metrics run.py derives from raw per-observation samples:
# name -> (sample series, quantile).
PERCENTILES = {
    "observe_p50_ms": ("observe_ms", 0.50),
    "observe_p99_ms": ("observe_ms", 0.99),
}

# The calibration loop's time on an idle 4-vCPU AVX-512 VM. op_cpu_s is the
# run's median CPU seconds of a pass times this over the median CPU seconds
# of the calibration loops run next to the passes; setup_s is the same over
# set-ups with wall seconds. Both read as seconds on a machine running at
# that speed, so a shared host's slowdown cancels.
REFERENCE_CALIBRATION_S = 0.25
# metric -> (raw seconds, calibration seconds)
REFERENCE_SCALED = {"op_cpu_s": ("pass_cpu_s", "calibration_cpu_s"),
                    "setup_s": ("setup_wall_s", "setup_calibration_s")}


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def order_stat(values, q):
    """Nearest-rank order statistic: the ceil(q*n)-th smallest sample."""
    ranked = sorted(values)
    k = min(max(math.ceil(q * len(ranked)), 1), len(ranked))
    return ranked[k - 1]


def build(build_dir):
    if "-fsanitize" in os.environ.get("CXXFLAGS", "") + os.environ.get(
            "LDFLAGS", ""):
        log("refusing to time a sanitizer build (CXXFLAGS/LDFLAGS)")
        sys.exit(3)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "fenrir_perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed:", " ".join(cmd))
            sys.exit(2)
    return build_dir / "fenrir_perfbench"


def run_harness(binary, args, workdir):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
            sys.exit(4)
    if proc.returncode != 0:
        log(f"harness exited with {proc.returncode}")
        sys.exit(proc.returncode if proc.returncode > 0 else 5)
    return json.loads(out.strip().splitlines()[-1])


def summarize(raw):
    """name -> (value, unit, sample count, statistic) for every metric."""
    out = {}
    for name, m in raw["metrics"].items():
        samples = m["samples"]
        if len(samples) == 1:
            out[name] = (samples[0], m["unit"], 1, "value")
        else:
            out[name] = (order_stat(samples, 0.5), m["unit"], len(samples),
                         "median")
    for name, (series, q) in PERCENTILES.items():
        if series in raw["metrics"]:
            samples = raw["metrics"][series]["samples"]
            out[name] = (order_stat(samples, q), "ms", len(samples),
                         f"p{round(q * 100)}")
    if "traced_wall_s" in raw["metrics"]:
        traced = raw["metrics"]["traced_wall_s"]["samples"]
        untraced = raw["metrics"]["pass_wall_s"]["samples"]
        out["trace_overhead"] = (order_stat(traced, 0.5) /
                                 order_stat(untraced, 0.5), "ratio",
                                 len(traced) + len(untraced),
                                 "median traced / median untraced")
    for name, (series, calibration) in REFERENCE_SCALED.items():
        if calibration in raw["metrics"]:
            samples = raw["metrics"][series]["samples"]
            speed = order_stat(raw["metrics"][calibration]["samples"], 0.5)
            out[name] = (order_stat(samples, 0.5) * REFERENCE_CALIBRATION_S /
                         speed, "s", len(samples), "calibrated median")
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir / "perfbench")
    workdir = build_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        raw = run_harness(binary, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, value in raw["info"].items():
        print(f"build {key}: {value}")
    for key, value in raw["sizes"].items():
        print(f"size {key}: {value:.15g}")
    summary = summarize(raw)
    for name, (value, unit, n, stat) in sorted(summary.items()):
        print(f"metric {name} = {value:.6g} {unit} ({stat} of n={n})")
    for failure in raw["failures"]:
        print(f"FAILED: {failure}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in summary:
            value = summary[m["name"]][0]
        elif args.trace:
            value = 0.0  # this workload does not exercise the layer
        else:
            log(f"end-to-end metric {m['name']} was not recorded")
            sys.exit(6)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
