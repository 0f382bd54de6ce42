#!/usr/bin/env python3
"""Benchmark of the `retarget` package, run from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: simulate, fit-csv, or `all`, which runs the two one after the
other, each in its own process. simulate-serial and learn-linear-d2 run the
same way but are not part of BENCHMARK.json (see README.md). Every
workload is a closed loop with one client: the next `retarget` command starts
when the previous one has returned. Commands run in-process through
`retarget.cli.main`, on inputs generated from --seed, and every output is
checked after the timed region.

On a shared host the vCPUs' speed drifts by up to 1.5x for minutes at a
time, and a command's time drifts with it. So end-to-end times are scaled
to a reference speed: a fixed pure-Python loop, timed on each CPU in turn,
runs before every command (and before and after every set-up process), and
each time is multiplied by REFERENCE_LOOP_S over the median loop time
around it. The times as measured are in the context line (`as_measured`).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
run that alternates untraced and traced commands (see tracing.py). The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Exit status: 0 when every output check passed, 1 when one
failed, 2 on a usage error, 3 when the package cannot be imported from
`src/` next to this directory.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
SETUP_REPEATS = 9
# What `host_loop_seconds` reads on the 2-vCPU Xeon (KVM) host the benchmark
# was defined on, in that host's fast spells. Speed-scaled times are in
# seconds of that host at that speed.
REFERENCE_LOOP_S = 1.25e-3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "RETARGET_THREADS")
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed seconds per run (at least the workload's minimum calls)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_call(call, tracer=None, op=None):
    """Run one command through retarget.cli.main; only the command is timed."""
    from retarget import cli
    from workloads import Outcome

    out = call.argv[call.argv.index("--out") + 1]
    if os.path.exists(out):
        os.remove(out)
    sink_out, sink_err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            if tracer is None:
                code = cli.main(call.argv)
            else:
                code = tracer.run("cli.main", op, cli.main, call.argv)
    except Exception as exc:  # a traceback escaping main is a failed op, not a crash
        code, error = None, repr(exc)
    seconds = time.perf_counter() - start
    text = None
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
    return Outcome(code, seconds, text, error or sink_err.getvalue().strip())


def _loop_seconds() -> float:
    """Least time of five runs of a fixed pure-Python loop."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def host_loop_seconds() -> float:
    """How fast the host runs Python code right now, measured with nothing of
    `retarget`: the loop's time on each CPU this process may use, pinned to
    it in turn, averaged over those CPUs."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_loop_seconds())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def speed_scales(loops: list[float]) -> list[float]:
    """One factor per command, from the loop times measured before each
    command and after the last: REFERENCE_LOOP_S over the median of the six
    loop times around the command, three before it and three after."""
    return [REFERENCE_LOOP_S / statistics.median(loops[max(0, k - 2):k + 4])
            for k in range(len(loops) - 1)]


def setup_probe(workload_cls, seed: int, workdir: str) -> int:
    """Child side of the set-up measurement: make the inputs, run the warm-up
    command, then say `ready`."""
    os.makedirs(workdir, exist_ok=True)
    workload = workload_cls(workdir, seed)
    workload.write_inputs()
    run_call(workload.warmup())
    print("ready", flush=True)
    return 0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to inputs ready, once per
    repeat, as measured and speed-scaled by loops run just before and after."""
    times, scaled_times = [], []
    for i in range(SETUP_REPEATS):
        before = host_loop_seconds()
        workdir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}-setup{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", workdir]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        shutil.rmtree(workdir, ignore_errors=True)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        after = host_loop_seconds()
        times.append(ready - start)
        scaled_times.append((ready - start) * 2 * REFERENCE_LOOP_S / (before + after))
    return times, scaled_times


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_context(args) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "retarget")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure(workload, args):
    """Timed phase. Returns (call, outcome, traced) records, the tracer, the
    traced-over-untraced time ratio minus one, and, with --trace 0, the
    loop times for speed_scales."""
    records = []
    loops = []
    timed = 0.0
    k = 0
    if not args.trace:
        while k < workload.min_calls or timed < args.seconds:
            call = workload.call(k)
            loops.append(host_loop_seconds())
            outcome = run_call(call)
            records.append((call, outcome, False))
            timed += outcome.seconds
            k += 1
        loops.append(host_loop_seconds())
        return records, None, None, loops

    from tracing import Tracer

    tracer = Tracer()
    plain = traced = 0.0
    while k < 1 or timed < args.seconds:
        call = workload.call(k)
        outcome = run_call(call)
        records.append((call, outcome, False))
        plain += outcome.seconds
        tracer.install()
        try:
            outcome = run_call(call, tracer, op=k)
        finally:
            tracer.uninstall()
        records.append((call, outcome, True))
        traced += outcome.seconds
        timed = plain + traced
        k += 1
    return records, tracer, traced / plain - 1.0, loops


def check_records(workload, records):
    """Output checks, outside the timed region. Returns (failed ops,
    problems, exit-code counts, error-line counts, IRLS runs that did not
    converge in traced calls)."""
    failed = 0
    problems = []
    codes = collections.Counter()
    errors = collections.Counter()
    irls = 0
    for call, outcome, traced in records:
        codes[str(outcome.code)] += 1
        if outcome.code != 0:
            failed += call.weight
            errors[(outcome.error.splitlines() or [""])[-1][:100]] += 1
            continue
        try:
            found = workload.check(call, outcome)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            found = [f"{call.argv}: unreadable output ({exc!r})"]
        if found:
            failed += call.weight
            problems += found
        if traced:
            irls += workload.irls_unconverged(call, outcome)
    return failed, problems, codes, errors, irls


def end_to_end(records, scales, setup_times, peak_rss_mb) -> dict:
    """The end-to-end metrics, each command's time multiplied by its scale."""
    seconds = [o.seconds * scale for (_, o, _), scale in zip(records, scales)]
    per_op_ms = [1000.0 * t / c.weight for (c, _, _), t in zip(records, seconds)]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": sum(c.weight for c, _, _ in records) / sum(seconds),
        "op_p50_ms": quantile(per_op_ms, 50),
        "op_p90_ms": quantile(per_op_ms, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def run_workload(args, workload_cls) -> int:
    from tracing import LAYER_METRICS, analyse, regret_mismatch

    setup_raw, setup_times = measure_setup(args)
    workdir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workload_cls(workdir, args.seed)
        workload.write_inputs()
        run_call(workload.warmup())
        records, tracer, overhead, loops = measure(workload, args)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, problems, codes, errors, irls = check_records(workload, records)
        problems += workload.final_checks(run_call)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(RUN_DIR)

    attempted = sum(call.weight for call, _, _ in records)
    context = run_context(args)
    context.update(calls=len(records), ops=attempted, failed=failed,
                   failed_share=failed / attempted, exit_codes=codes, errors=errors,
                   setup_runs_s=setup_raw)
    if not args.trace:
        values = end_to_end(records, speed_scales(loops), setup_times, peak_rss_mb)
        loop_ms = statistics.quantiles([1000.0 * t for t in loops], n=4, method="inclusive")
        context.update(as_measured=end_to_end(records, [1.0] * len(records), setup_raw,
                                              peak_rss_mb),
                       host_loop_ms_quartiles=loop_ms, scaled_setup_runs_s=setup_times)
        units = dict(END_TO_END)
    else:
        traced_ops = sum(call.weight for call, _, traced in records if traced)
        values, trace_problems, extra = analyse(tracer, traced_ops, irls, overhead)
        problems += trace_problems
        if tracer.reports:
            problems += regret_mismatch(tracer)
        coverage = extra["run_benchmark_child_coverage"]
        if workload.coverage_floor is not None and not coverage >= workload.coverage_floor:
            problems.append(f"child spans cover {coverage} of run_benchmark wall time, "
                            f"below {workload.coverage_floor}")
        context.update(extra)
        units = {name: unit for name, unit, _ in LAYER_METRICS}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("context: " + json.dumps(context, sort_keys=True))
    for name, value in values.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(f"  {'failed_share':40s} {failed / attempted:.6g} share ({failed} of {attempted} ops)")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args, names) -> int:
    worst = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    sys.path.insert(0, SRC)
    try:
        import retarget
        from workloads import EXTRA_WORKLOADS, WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import retarget from {SRC}: {exc}", file=sys.stderr)
        return 3
    if os.path.dirname(os.path.abspath(retarget.__file__)) != os.path.join(SRC, "retarget"):
        print(f"perfbench: retarget was imported from {retarget.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    known = {**WORKLOADS, **EXTRA_WORKLOADS}
    args = parse_args(argv, list(known))
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.setup_probe:
        return setup_probe(known[args.workload], args.seed, args.setup_probe)
    return run_workload(args, known[args.workload])


if __name__ == "__main__":
    sys.exit(main())
