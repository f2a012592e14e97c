#!/usr/bin/env python3
"""Smoke test for the benchmark, at tiny sizes (--smoke).

For every workload in BENCHMARK.json it checks that:
  * the untraced run prints every end-to-end metric with its unit, and the
    traced run every per-layer metric with its unit, in a last stdout line
    that has exactly the keys correct/attempted/failed/metrics;
  * both runs pass their correctness checks and the traced run writes a
    trace-event JSON file;
  * a run with one response flipped (--plant-flip) fails its correctness
    check and exits non-zero.

    python3 perfbench/smoke_test.py                 # builds via run.py
    python3 perfbench/smoke_test.py --binary PATH --out-dir DIR
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(args, workload, trace, flip=False):
    if args.binary:
        command = [args.binary, "--out-dir", args.out_dir]
    else:
        command = [sys.executable, str(HERE / "run.py")]
    command += ["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke"]
    if flip:
        command.append("--plant-flip")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def check_metrics(result, expected, failures, label):
    metrics = result.get("metrics", {})
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            failures.append(f"{label}: metric {spec['name']} missing")
        elif set(got) != {"value", "unit"} or got["unit"] != spec["unit"]:
            failures.append(f"{label}: metric {spec['name']} is {got}, "
                            f"want unit {spec['unit']}")
        elif not isinstance(got["value"], (int, float)):
            failures.append(f"{label}: metric {spec['name']} not a number")
    extra = set(metrics) - {spec["name"] for spec in expected}
    if extra:
        failures.append(f"{label}: unexpected metrics {sorted(extra)}")


def main():
    parser = argparse.ArgumentParser(description="benchmark smoke test")
    parser.add_argument("--binary", help="fm_perfbench (default: run.py)")
    parser.add_argument("--benchmark-json",
                        default=str(HERE.parent / "BENCHMARK.json"))
    parser.add_argument("--out-dir")
    args = parser.parse_args()
    if args.binary and not args.out_dir:
        args.out_dir = str(HERE.parent / ".bench_build" / "smoke")
    spec = json.loads(Path(args.benchmark_json).read_text())

    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            label = f"{workload} trace={trace}"
            code, result, stderr = run(args, workload, trace)
            if result is None or code != 0:
                failures.append(f"{label}: exit {code}\n{stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed"):
                failures.append(f"{label}: not correct: {result}")
            if not result.get("attempted", 0) >= 1:
                failures.append(f"{label}: nothing attempted")
            check_metrics(result, expected, failures, label)
            if trace == 1:
                out_dir = Path(args.out_dir or
                               HERE.parent / ".bench_build" / "run")
                trace_file = out_dir / f"trace-{workload}.json"
                try:
                    events = json.loads(trace_file.read_text())["traceEvents"]
                    if not any(e.get("ph") == "X" for e in events):
                        failures.append(f"{label}: {trace_file} has no spans")
                except (OSError, ValueError, KeyError) as error:
                    failures.append(f"{label}: {trace_file}: {error}")
        code, result, _ = run(args, workload, 0, flip=True)
        if code == 0 or result is None or result.get("correct") is not False:
            failures.append(f"{workload}: a flipped response went unnoticed "
                            f"(exit {code}, result {result})")
        print(f"{workload}: checked", flush=True)

    for failure in failures:
        print("FAIL:", failure)
    print("smoke test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
