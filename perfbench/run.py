#!/usr/bin/env python3
"""Build and run the host wall-clock launch benchmark.

    python3 perfbench/run.py --workload cold_boot|warm_serve|cache_churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs
the harness.

With --trace 0 the run is split over three harness processes, each
setting up from scratch and measuring S/3 seconds on its own inputs
(derived from the seed). launches_per_s divides all completed launches
by all timed seconds; every other metric is the median of the three
processes' values, so one process that ran through a slow spell of the
host does not set a metric. With --trace 1 one process measures S
seconds (half untraced, half traced) and reports the per-layer metrics.

The harness reports go to stdout; the last line is one JSON object with
the keys correct, attempted, failed and metrics, where metrics holds
exactly the BENCHMARK.json section for the mode (end_to_end or
per_layer). Exit status: 0 when every timed launch passed the
correctness gate, 1 when some did not, 2 when the benchmark could not
run.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_boot", "warm_serve", "cache_churn")
PROCESSES = 3
RUN_BUDGET_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_rev():
    """git revision when available, plus a digest of the benchmarked sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    rev = "src-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True)
            rev = "git:" + head.stdout.strip() + " " + rev
        except (OSError, subprocess.SubprocessError):
            pass
    return rev


def build(build_dir):
    """Configure once, then build incrementally; returns the binary path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def run_harness(binary, args, deadline):
    """Run the harness; forward its report; return (exit code, last-line JSON)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before the harness could run")
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_BUDGET_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"harness did not end with a JSON result (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    return proc.returncode, result


def combined_end_to_end(results):
    """End-to-end metrics over several harness processes (see module doc)."""
    completed = sum(r["completed_in_window"] for r in results)
    seconds = sum(r["window_s"] for r in results)
    print(f"over {len(results)} processes: latency samples "
          f"{' + '.join(str(r['samples']) for r in results)}, "
          f"{completed} launches in {seconds:.3f} timed s")
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    metrics["launches_per_s"]["value"] = completed / seconds
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "launch.h")):
        fail(f"program sources not found under {ROOT}/src")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        section = json.load(f)["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--trace", str(args.trace),
              "--rev", source_rev()]

    if args.trace:
        code, result = run_harness(
            binary, common + ["--seed", str(args.seed), "--seconds", str(args.seconds)],
            deadline)
        results, metrics = [result], result.get("metrics", {})
        codes = [code]
    else:
        results, codes = [], []
        for part in range(PROCESSES):
            code, result = run_harness(
                binary, common + ["--seed", str(args.seed * PROCESSES + part),
                                  "--seconds", str(args.seconds / PROCESSES)],
                deadline)
            codes.append(code)
            results.append(result)
        metrics = combined_end_to_end(results)

    selected = {}
    for m in section:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} [{m['unit']}] missing from the harness output")
        selected[m["name"]] = got
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(int(r["attempted"]) for r in results),
                      "failed": sum(int(r["failed"]) for r in results),
                      "metrics": selected}))
    sys.exit(0 if correct and not any(codes) else 1)


if __name__ == "__main__":
    main()
