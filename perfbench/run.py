#!/usr/bin/env python3
"""The simulator's benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/main.exe from
source with dune (into .bench_build), times a memory-bound
calibration loop in its own process before and after the workload,
runs the workload, and prints the workload's notes, a box line (CPU
model, processor count, calibration) and, last, the result as one
JSON object. With --trace 0 the result holds the end-to-end metrics,
with --trace 1 the per-layer metrics; see perfbench/NOTES.md.

Exits 1 without a result if the build or a run fails, and 1 after the
result if an instance failed its output check.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ["stream-n128", "oneshot-n1024", "mix-fig1"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env=None):
    """Run cmd to completion in its own process group; on timeout the
    whole group is killed and reaped, and the benchmark fails."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         env=env, start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("timed out: " + " ".join(cmd))
    return subprocess.CompletedProcess(cmd, p.returncode, out, err)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    if not os.path.isfile(os.path.join("perfbench", "dune")):
        fail("run from the root of a checkout")
    p = run([dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--display", "quiet",
             "-j", "2", "./perfbench/main.exe"], 880,
            env=dict(os.environ, DUNE_CACHE="disabled"))
    if p.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed")


def calibrate():
    p = run([EXE, "calibrate"], 20)
    if p.returncode != 0:
        fail("calibration failed: " + p.stderr.strip())
    return float(p.stdout.strip())


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def expected_names(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    before = calibrate()
    # With the two calibrations, a run ends within 180 s of the build.
    p = run([EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], 130)
    after = calibrate()
    lines = p.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(p.stdout + p.stderr)
        fail("the workload printed no result (exit %d)" % p.returncode)
    if args.trace:
        result["metrics"]["box.calib_ns_per_read"] = {
            "value": (before + after) / 2, "unit": "ns"}

    names = expected_names(args.trace)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        fail("metric names differ from BENCHMARK.json: printed %s, declared %s"
             % (sorted(result["metrics"]), sorted(names)))

    for line in lines[:-1]:
        print(line)
    print("box: cpu=%r nproc=%d calib_ns_per_read before=%.3f after=%.3f"
          % (cpu_model(), len(os.sched_getaffinity(0)), before, after))
    sys.stderr.write(p.stderr)
    print(json.dumps(result))
    sys.exit(0 if p.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
