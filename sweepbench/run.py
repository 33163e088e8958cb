#!/usr/bin/env python3
"""Build and run the craysim sweep benchmark.

    python3 sweepbench/run.py --workload idle_sweep --seed 0 --seconds 20 --trace 0
    python3 sweepbench/run.py --self-test

Run from the repository root (or any checkout of it). The first call
configures and builds the benchmark package (sweepbench/CMakeLists.txt, which
compiles the library sources under src/) into .bench_build/sweepbench; later
calls only rebuild what changed. All arguments are passed to the benchmark
binary, whose last line of output is the JSON result. See sweepbench/README.md.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "sweepbench"
OUT = ROOT / ".bench_build" / "out"


def fail(message):
    print(f"sweepbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no craysim sources under {ROOT / 'src'}; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "--target", "sweepbench", "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(ROOT / "sweepbench"), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed: {' '.join(step)} (log: {log_path})")


def commit():
    """The git commit of the checkout, or 'unknown' outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    build()
    OUT.mkdir(parents=True, exist_ok=True)
    argv = [str(BUILD / "sweepbench"), *sys.argv[1:], "--commit", commit(),
            "--out-dir", str(OUT)]
    sys.stdout.flush()
    sys.exit(subprocess.run(argv, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
