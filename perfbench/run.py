#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload serve-mixed --seed 7 --seconds 15 \
        --trace 0

`--workload all` runs the three workloads one after another, each in its
own process. The build (Release, CMake) goes to .bench_build/ at the
repository root and is incremental after the first run; build output goes
to stderr. Scratch files (WAL, snapshots), the full report and the trace
file go to .bench_build/run/. The benchmark's stdout passes through
unchanged: its last line is the JSON result. The exit code is the
benchmark's (1 when a correctness check fails; the highest over the
workloads with `all`), or 2 when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-mixed", "serve-churn-wal", "offline-cv")


def build(build_dir: Path) -> Path:
    """Configures (once) and builds fm_perfbench; returns the binary path."""
    def attempt() -> bool:
        if not (build_dir / "CMakeCache.txt").is_file():
            configured = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr)
            if configured.returncode != 0:
                return False
        built = subprocess.run(
            ["cmake", "--build", str(build_dir), "--target", "fm_perfbench",
             "-j", str(min(os.cpu_count() or 1, 8))],
            stdout=sys.stderr, stderr=sys.stderr)
        return built.returncode == 0

    if not attempt():
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(build_dir, ignore_errors=True)
        if not attempt():
            raise RuntimeError("build failed")
    return build_dir / "fm_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the smoke test)")
    parser.add_argument("--plant-flip", action="store_true",
                        help="flip one response; the run must then fail")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("run.py: no repository sources next to perfbench/; "
              "nothing to build", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build"
    try:
        binary = build(work / "cmake")
    except (OSError, RuntimeError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2

    exit_code = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        command = [str(binary), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out-dir", str(work / "run")]
        if args.smoke:
            command.append("--smoke")
        if args.plant_flip:
            command.append("--plant-flip")
        sys.stdout.flush()
        exit_code = max(exit_code, subprocess.run(command).returncode)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
