#!/usr/bin/env python3
"""Build and run the host wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cifarnet-redundant --seed 1 \
        --seconds 24 --trace 0

Builds perfbench/ (which compiles the libraries in src/) into
.bench_build/perfbench, runs the benchmark binary, and ends standard
output with one JSON line holding the metrics BENCHMARK.json names:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Per-layer metrics of a layer the workload does not have (the Fire convs
on CifarNet, the serving layers on a batch-1 loop) are reported as 0.
The exit code is non-zero when the build, the run or an output check
fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
CACHE_DIR = os.path.join(".bench_build", "perfbench-cache")
# The first run in a checkout builds the libraries and trains the models.
TOTAL_TIMEOUT_S = 880


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def build(deadline):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("src/ not found: run from the repository root")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.time()))
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def source_id():
    """The commit when the checkout is a git repository, else a digest
    of the library sources."""
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def conform(result, traced):
    """Report exactly the metrics BENCHMARK.json lists for this mode."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if traced else "end_to_end"]
    got = result["metrics"]
    out = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                log(f"metric {name}: unit {got[name]['unit']} != {unit}")
                return None
            out[name] = got[name]
        elif traced:
            out[name] = {"value": 0, "unit": unit}
        else:
            log(f"end-to-end metric {name} missing")
            return None
    for name in got:
        if name not in out:
            log(f"metric {name} is not in BENCHMARK.json")
    result["metrics"] = out
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rates")
    parser.add_argument("--latency-limit-ms")
    args = parser.parse_args()

    deadline = time.time() + TOTAL_TIMEOUT_S
    if not build(deadline):
        return 2

    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache-dir", CACHE_DIR, "--commit", source_id()]
    if args.rates:
        cmd += ["--rates", args.rates]
    if args.latency_limit_ms:
        cmd += ["--latency-limit-ms", args.latency_limit_ms]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 3

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        log(f"no result line (exit code {proc.returncode})")
        return proc.returncode or 4
    result = conform(result, args.trace == 1)
    if result is None:
        return 5
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
