#!/usr/bin/env python3
"""Self-tests of the benchmark, run from the root of a source checkout:

    python3 perfbench/selftest.py [--seconds S]

- BENCHMARK.json declares exactly the workloads (with their "why") and the
  metrics (with their units) that run.py defines;
- every workload, the undeclared ones too, passes every output
  check at the default seed 0, where the simulate reports are compared with
  the stored references, and at seed 1;
- the names and units printed with --trace 0 and --trace 1 equal the
  declared end-to-end and per-layer metrics;
- in a directory holding only BENCHMARK.json and perfbench/, the command
  exits non-zero without printing a result.

Takes several minutes: learn-linear-d2 and fit-csv run at least 100
commands per run whatever --seconds says.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from run import END_TO_END, RUN_DIR  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import EXTRA_WORKLOADS, WORKLOADS  # noqa: E402


def check_declaration(spec: dict) -> list[str]:
    problems = []
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    defined = {name: cls.why for name, cls in WORKLOADS.items()}
    if declared != defined:
        problems.append(f"workloads in BENCHMARK.json {declared} != run.py {defined}")
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if e2e != END_TO_END:
        problems.append(f"end_to_end {e2e} != run.py {END_TO_END}")
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layers != LAYER_METRICS:
        problems.append("per_layer in BENCHMARK.json differs from tracing.LAYER_METRICS")
    return problems


def run_once(spec: dict, workload: str, seed: int, trace: int, seconds: float) -> list[str]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    label = f"{workload} seed={seed} trace={trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
        problems.append(f"{label}: bad result {sorted(result)} correct={result.get('correct')}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = [(m["name"], m["unit"]) for m in declared]
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if got != want:
        problems.append(f"{label}: printed metrics {got} != declared {want}")
    print(f"{label}: {'ok' if not problems else 'FAILED'} "
          f"(attempted {result['attempted']}, failed {result['failed']})", flush=True)
    return problems


def check_without_program(spec: dict) -> list[str]:
    bare = os.path.join(RUN_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        cmd = [*spec["command"], "--workload", spec["workloads"][0]["name"],
               "--seed", "0", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/: exit {proc.returncode}, stdout {proc.stdout!r}"]
    print(f"without src/: exit {proc.returncode}, no result: ok")
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_declaration(spec)
    problems += check_without_program(spec)
    for workload in [*WORKLOADS, *EXTRA_WORKLOADS]:
        problems += run_once(spec, workload, 0, 0, args.seconds)
        problems += run_once(spec, workload, 1, 0, args.seconds)
        problems += run_once(spec, workload, 1, 1, args.seconds)
    for problem in problems:
        print(f"FAILED: {problem}")
    print("selftest:", "FAILED" if problems else "all passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
