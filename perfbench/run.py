#!/usr/bin/env python3
"""End-to-end benchmark for naqc.

Builds naqc, naqcd and the benchmark runner from this checkout's sources
(into .bench_build/), runs one workload, and prints the runner's notes
followed by one JSON result line:

    python3 perfbench/run.py --workload daily-table2 --seed 1 \
        --seconds 10 --trace 0

With --trace 0 the result holds the end-to-end metrics, with --trace 1
the per-layer metrics of a traced replay. `--self-test` builds and runs
the tests of the benchmark's own statistics instead.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("daily-table2", "oneshot-portfolio", "daemon-mix")
RUNNER_TIMEOUT_S = 170


def metric_units(kind):
    """Metric name -> unit for "end_to_end" or "per_layer", as declared
    in BENCHMARK.json at the checkout root (the one list of names)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; False on failure."""
    if not (ROOT / "src" / "core" / "compiler.hpp").is_file():
        log("perfbench: naqc sources not found under", ROOT / "src")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                  "naqc", "naqcd", "perfbench_runner",
                  "perfbench_stats_test"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def run_workload(args):
    """Run the workload in its own process group; the runner's stdout or
    None."""
    work = BUILD.parent / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(BUILD / "perfbench_runner"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--bin-dir", str(BUILD),
           "--work-dir", os.path.relpath(work, ROOT)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: runner timed out")
        return None
    finally:
        # The runner kills its children; make sure of it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        log(f"perfbench: runner exited {proc.returncode}")
        return None
    return out


def result_line(out, trace):
    """The runner's RESULT line narrowed to this mode's metric list."""
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("RESULT "):
        log("perfbench: runner printed no result")
        return None
    raw = json.loads(lines[-1][len("RESULT "):])
    # Layers a workload does not load report 0.
    wanted = metric_units("per_layer" if trace else "end_to_end")
    metrics = {}
    for name, unit in wanted.items():
        m = raw["metrics"].get(name)
        if m is None:
            if not trace:
                log(f"perfbench: end-to-end metric {name} missing")
                return None
            m = {"value": 0, "unit": unit}
        if m["unit"] != unit:
            log(f"perfbench: {name} in {m['unit']}, expected {unit}")
            return None
        metrics[name] = {"value": m["value"], "unit": unit}
    for note in lines[:-1]:
        print(note)
    return json.dumps({"correct": raw["correct"],
                       "attempted": raw["attempted"],
                       "failed": raw["failed"], "metrics": metrics})


def on_sigterm(signum, frame):
    # Unwind through run_workload's cleanup, which kills the runner's
    # process group (and with it any naqc or naqcd it started).
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not build():
        return 1
    # The statistics self-test is cheap: run it every time.
    test = subprocess.run([str(BUILD / "perfbench_stats_test")],
                          stdout=sys.stderr)
    if args.self_test or test.returncode != 0:
        return test.returncode
    if args.workload is None:
        p.error("--workload is required")
    out = run_workload(args)
    if out is None:
        return 1
    line = result_line(out, args.trace == 1)
    if line is None:
        return 1
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
