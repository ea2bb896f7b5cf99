#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload zoo-compile --seed 1 --seconds 30 --trace 0

The binary is built with CMake under $CARGO_TARGET_DIR (default
.bench_build) at the repository root. Each run gets a scratch directory
there for its sockets and cache tiers, removed on every exit path. The last
line of stdout is the run's result object, with the metrics BENCHMARK.json
lists (see README.md); build output goes to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("zoo-compile", "fleet-churn")
RUN_TIMEOUT_S = 170


def build_root():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def code_id():
    """Digest of the sources under test, so that records of one version are
    never compared with another's."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build(out):
    cmake_dir = out / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(cmake_dir), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return cmake_dir / "pimcomp_perfbench"


def run_binary(cmd, cwd):
    """Runs the benchmark binary, echoing its stdout, and returns its last
    line (the raw report). The process is killed past RUN_TIMEOUT_S and on
    any exit from here."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, end="", flush=True)
            last = line
        if proc.wait() != 0 or last is None:
            sys.exit(f"perfbench: benchmark exited with {proc.returncode}")
        return json.loads(last)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def check_repeat(path, exact):
    """Exact-repeat guard: the deterministic values must match the first
    run of this workload, seed, length and source version exactly."""
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(exact, indent=2) + "\n")
        print(f"repeat guard: recorded {len(exact)} exact values")
        return True
    first = json.loads(path.read_text())
    differing = sorted(k for k in exact if first.get(k) != exact[k])
    for name in differing:
        print(f"INCORRECT: repeat guard: {name} = {exact[name]!r}, "
              f"first run had {first.get(name)!r}")
    if not differing:
        print(f"repeat guard: {len(exact)} exact values match the first run")
    return not differing


def tracing_overhead(path, traced):
    """Prints the traced run's end-to-end figures against the last untraced
    run of the same workload, seed, length and source version."""
    if not path.exists():
        print("tracing overhead: no untraced run recorded for this run's "
              "workload, seed and sources")
        return
    untraced = json.loads(path.read_text())
    for name, base in sorted(untraced.items()):
        if name in traced and base:
            print(f"tracing overhead: {name:22s} untraced {base:<12.6g} "
                  f"traced {traced[name]:<12.6g} "
                  f"({100.0 * (traced[name] - base) / base:+.1f}%)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no library sources at {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    out = build_root()
    binary = build(out)
    tag = f"{args.workload}-seed{args.seed}-s{args.seconds}-{code_id()}"
    state = out / "state"
    runs = out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=runs)

    def interrupted(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)
    try:
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
        if args.trace:
            trace_file = state / "traces" / f"{tag}.trace.json"
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-file", str(trace_file)]
        report = run_binary(cmd, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = report["correct"]
    correct &= check_repeat(state / "repeat" / f"{tag}.json", report["exact"])
    untraced = state / "untraced" / f"{tag}.json"
    if args.trace:
        tracing_overhead(untraced, report["end_to_end"])
        print(f"chrome trace: {trace_file}")
    else:
        untraced.parent.mkdir(parents=True, exist_ok=True)
        untraced.write_text(json.dumps(report["end_to_end"], indent=2) + "\n")

    # Every listed metric, by name and unit. An end-to-end metric the run
    # did not measure breaks it; a per-layer one is a layer this workload
    # does not exercise, reported as 0.
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in spec[kind]:
        name = metric["name"]
        if name not in report[kind] and kind == "end_to_end":
            print(f"INCORRECT: {name} was not measured")
            correct = False
        value = report[kind].get(name, 0.0)
        metrics[name] = {"value": value, "unit": metric["unit"]}
        print(f"{name:24s} {value:16.6f} {metric['unit']}")
    print(f"operations: {report['failed']} failed of {report['attempted']} "
          "attempted")
    print(json.dumps({"correct": bool(correct), "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
