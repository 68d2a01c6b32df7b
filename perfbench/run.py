#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Every run configures and builds
perfbench/ (and the library sources it compiles) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; only the first run compiles everything. Build output goes to stderr.

The run prints context lines and one "metric <name> <value> <unit>" line per
metric, and as its last line one JSON object with the keys correct,
attempted, failed and metrics. Untraced runs (--trace 0) report the
end-to-end metrics of BENCHMARK.json, traced runs (--trace 1) its per-layer
metrics and write their spans next to the build. The result line is checked
against BENCHMARK.json before it is printed; exit status is 0 only when the
build, the run and every correctness check succeed.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("round_trace", "metadata_stream", "hot_skewed")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last output line is not JSON: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("nothing attempted")
    expected = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(expected):
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(expected) - set(got))}, extra "
             f"{sorted(set(got) - set(expected))}")
    for name, metric in got.items():
        if not NAME_RE.match(name):
            fail("invalid metric name " + name)
        if metric.get("unit") != expected[name]:
            fail(f"unit of {name} is {metric.get('unit')}, "
                 f"expected {expected[name]}")
        if not isinstance(metric.get("value"), (int, float)):
            fail(f"value of {name} is not a number")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    spans = os.path.join(build_dir,
                         f"spans-{args.workload}-{args.seed}.jsonl")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans", spans]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    result = check_result(lines[-1], args.trace == 1)
    print(lines[-1])
    if run.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
