#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the repository root. For each workload, a one-second run
(untraced and traced) through run.py must print exactly the metric
names and units of BENCHMARK.json, with no failed launch. The traced
run must show the layer activity each workload is defined by. Finally
a run whose reference digest is corrupted must count every launch of
that key as failed and exit non-zero: a negative test of the gate.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_boot", "warm_serve", "cache_churn")
SECONDS = "1"

# Layer facts per workload: (metric, expected value) from the traced run.
LAYER_FACTS = {
    "cold_boot": [("cache.hit_frac", 0), ("cache.lookup_ms", 0),
                  ("cache.publish_ms", 0), ("cache.capture_ms", 0),
                  ("service.submit_us", 0), ("service.peak_queue_depth", 0)],
    "warm_serve": [("cache.hit_frac", 1), ("compress.lz4_decompress_mb", 0),
                   ("verifier.pages_validated", 0), ("cache.capture_ms", 0)],
    "cache_churn": [],
}

failures = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, last_json(proc.stdout), proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = os.path.join(os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")), "perfbench")

    for wl in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, proc = run([sys.executable, "perfbench/run.py",
                                      "--workload", wl, "--seed", "7",
                                      "--seconds", SECONDS, "--trace", str(trace)])
            tag = f"{wl} trace={trace}"
            if result is None:
                check(False, f"{tag}: no JSON result (exit {code})\n{proc.stderr[-2000:]}")
                continue
            check(code == 0, f"{tag}: exit status 0 (got {code})")
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{tag}: result keys are correct/attempted/failed/metrics")
            check(result.get("correct") is True and result.get("failed") == 0
                  and result.get("attempted", 0) >= 1,
                  f"{tag}: correct, failed == 0, attempted >= 1 ({result.get('attempted')})")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            check(got == want, f"{tag}: metric names and units match BENCHMARK.json {section}")

        # Full traced table straight from the harness (every layer metric).
        code, result, proc = run([binary, "--workload", wl, "--seed", "7",
                                  "--seconds", SECONDS, "--trace", "1"])
        metrics = (result or {}).get("metrics", {})
        for name, expected in LAYER_FACTS[wl]:
            value = metrics.get(name, {}).get("value")
            check(value == expected, f"{wl}: {name} == {expected} (got {value})")
        if wl == "cache_churn":
            check(0 < metrics.get("cache.hit_frac", {}).get("value", 0) < 1,
                  f"{wl}: both cache hits and misses")
        check(metrics.get("bench.reconcile_error_frac", {}).get("value", 1) <= 0.05,
              f"{wl}: layer table reconciles within 5%")

        # Negative test: a corrupted reference digest must fail the gate.
        code, result, proc = run([binary, "--workload", wl, "--seed", "7",
                                  "--seconds", SECONDS, "--trace", "0",
                                  "--corrupt-reference"])
        failed = (result or {}).get("failed", 0)
        check(code != 0 and failed > 0 and (result or {}).get("correct") is False,
              f"{wl}: corrupted reference counts failures ({failed}) and exits non-zero ({code})")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
