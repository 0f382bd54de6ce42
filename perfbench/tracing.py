"""In-memory spans around the calls that `retarget.cli` and `retarget.simulation` make.

The tracer replaces, for the duration of a traced op, every public function
those two modules look up from the package (for example `cli.load_dataset`
or `simulation.generate`), plus `ScenarioSpec.sample_covariates`,
`ScenarioSpec.mean_matrix` and `LinearPolicy.act`, with a wrapper that
records a span: name, start, end, parent span and op id. Nothing in the
package itself is edited; `uninstall` puts the original callables back.

Spans stay in a list until the run ends. A span's parent is the innermost
open span of the same thread; a thread with no open span (a worker of the
`simulate` thread pool) attaches to the open `simulation.run_benchmark`
span. In `simulate` the op id is the replication seed that `generate` sees,
tracked per thread, so spans of one replication share it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

RUN_BENCHMARK = "simulation.run_benchmark"
HOOK = "trace.hook"  # time the tracer spends on its own checks inside a traced call
# Not a function of the package: the tracer opens this span when a replication
# draws its regret sample (sample_covariates called outside generate) and
# closes it after that replication's last policy.act. Its self time is the
# replication's inline regret arithmetic; the layer also takes the self time
# of the sample_covariates, mean_matrix and act calls directly inside it.
REGRET_EVAL = "simulation.regret_eval"
REGRET_EVAL_PARTS = ("simulation.sample_covariates", "simulation.mean_matrix", "policy.act")

# (name, unit, better) of every per-layer metric, in print order.
LAYER_METRICS = [
    ("policy.learn_linear.calls", "1/op", "lower"),
    ("policy.learn_linear.self_s", "s/op", "lower"),
    ("policy.learn_linear.failures", "1/op", "lower"),
    ("policy.learn_linear.exact_share", "share", "higher"),
    ("policy.learn_finite.self_s", "s/op", "lower"),
    ("policy.act.self_s", "s/op", "lower"),
    ("simulation.generate.self_s", "s/op", "lower"),
    ("simulation.regret_eval.self_s", "s/op", "lower"),
    ("simulation.run_benchmark.wall_s", "s/op", "lower"),
    ("nuisance.cross_fit.calls", "1/op", "lower"),
    ("nuisance.cross_fit.self_s", "s/op", "lower"),
    ("nuisance.cross_fit.failures", "1/op", "lower"),
    ("weights.make_weights.calls", "1/op", "lower"),
    ("weights.make_weights.self_s", "s/op", "lower"),
    ("pseudo.dr_pseudo_outcomes.self_s", "s/op", "lower"),
    ("data.load_dataset.calls", "1/op", "lower"),
    ("data.load_dataset.self_s", "s/op", "lower"),
    ("data.bytes_read", "B/op", "lower"),
    ("data.make_folds.self_s", "s/op", "lower"),
    ("regression.fit_best_fit.self_s", "s/op", "lower"),
    ("regression.fit_on_arm_precision.self_s", "s/op", "lower"),
    ("regression.fit_dv_overlap.self_s", "s/op", "lower"),
    ("regression.fit_cate.self_s", "s/op", "lower"),
    ("regression.irls_unconverged", "1/op", "lower"),
    ("cli.main.self_s", "s/op", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: object
    failed: bool


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.bytes_read = 0
        self.exact_results = 0
        self.reports = []   # BenchmarkReport returned by each traced run_benchmark
        self.regrets = []   # (scenario, seed, scheme index, regret) seen in regret evaluation
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: tuple[int, str] | None = None
        self._schemes = 0   # weight schemes per replication of the open run_benchmark
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _thread(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []        # open (span id, name) pairs of this thread
            loc.op = None
            loc.scenario = None
            loc.regret = None     # (span id, start, parent id) of the open regret_eval span
            loc.mu_eval = None
            loc.best_eval = None
            loc.scheme = 0
        return loc

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def _new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def run(self, name: str, op, fn, *args):
        """Call fn(*args) inside a span named `name` carrying op id `op`."""
        loc = self._thread()
        loc.op = op
        return self._span(loc, name, loc.stack[-1] if loc.stack else None, fn, args, {})

    def _span(self, loc, name, parent, fn, args, kwargs, sid=None):
        if sid is None:
            sid = self._new_id()
        depth = len(loc.stack)
        loc.stack.append((sid, name))
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            del loc.stack[depth:]
            self._record(Span(sid, name, start, end, parent and parent[0], loc.op, failed))

    def _open_regret(self, loc, parent) -> tuple[int, str]:
        sid = self._new_id()
        loc.regret = (sid, time.perf_counter(), parent[0])
        loc.stack.append((sid, REGRET_EVAL))
        loc.scheme = 0
        return (sid, REGRET_EVAL)

    def _close_regret(self, loc) -> None:
        sid, start, parent = loc.regret
        loc.regret = None
        if loc.stack and loc.stack[-1][0] == sid:
            loc.stack.pop()
            self._record(Span(sid, REGRET_EVAL, start, time.perf_counter(), parent, loc.op, False))

    def _wrap(self, name: str, fn):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            loc = tracer._thread()
            parent = loc.stack[-1] if loc.stack else tracer._root
            if name == "simulation.generate":
                if loc.regret is not None:  # an unfinished replication
                    tracer._close_regret(loc)
                    parent = loc.stack[-1] if loc.stack else tracer._root
                bound = signature.bind(*args, **kwargs).arguments
                loc.op, loc.scenario = bound["seed"], bound["scenario"].name
            elif (name == "simulation.sample_covariates" and parent is not None
                  and parent[1] == RUN_BENCHMARK):
                parent = tracer._open_regret(loc, parent)
            elif name == RUN_BENCHMARK:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer._schemes = len(tuple(bound.arguments["schemes"]))
                # Pool threads with no open span attach to this one.
                tracer._root = (tracer._new_id(), name)
                try:
                    result = tracer._span(loc, name, parent, fn, args, kwargs, tracer._root[0])
                finally:
                    tracer._root = None
                    loc.regret = None
                tracer.reports.append(result)
                return result
            result = tracer._span(loc, name, parent, fn, args, kwargs)
            hook_start = time.perf_counter()
            if tracer._after(name, loc, parent, args, result):
                # Work the tracer itself did; kept out of the parent's self time.
                tracer._record(Span(tracer._new_id(), HOOK, hook_start, time.perf_counter(),
                                    parent[0], loc.op, False))
            if name == "policy.act" and loc.regret is not None and loc.scheme == tracer._schemes:
                tracer._close_regret(loc)
            return result

        return traced

    def _after(self, name, loc, parent, args, result) -> bool:
        """Counts and values taken at a layer boundary, outside the span.
        Returns True when it did enough work to be recorded as a hook span."""
        if name == "data.load_dataset":
            self.bytes_read += os.path.getsize(args[0])
        elif name == "policy.learn_linear" and result.exact:
            with self._lock:
                self.exact_results += 1
        elif parent is not None and parent[1] == REGRET_EVAL:
            if name == "simulation.mean_matrix":
                loc.mu_eval = result
                # Equals result.max(axis=1) exactly, and is far cheaper for few arms.
                loc.best_eval = functools.reduce(np.maximum, result.T)
                return True
            if name == "policy.act":
                chosen = loc.mu_eval[np.arange(result.shape[0]), result]
                regret = float(np.mean(loc.best_eval - chosen))
                with self._lock:
                    self.regrets.append((loc.scenario, loc.op, loc.scheme, regret))
                loc.scheme += 1
                return True
        return False

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        from retarget import cli, simulation
        from retarget.policy import LinearPolicy
        from retarget.simulation import ScenarioSpec

        targets = []
        for module in (cli, simulation):
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__.startswith("retarget.")
                    and value.__module__ != "retarget.cli"
                ):
                    targets.append((module, attr, value, _layer_name(value)))
        targets.append((ScenarioSpec, "sample_covariates", ScenarioSpec.sample_covariates,
                        "simulation.sample_covariates"))
        targets.append((ScenarioSpec, "mean_matrix", ScenarioSpec.mean_matrix,
                        "simulation.mean_matrix"))
        targets.append((LinearPolicy, "act", LinearPolicy.act, "policy.act"))
        for owner, attr, original, name in targets:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- analysis ---------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def analyse(tracer: Tracer, traced_ops: int, irls_unconverged: int,
            overhead_share: float) -> tuple[dict, list[str], dict]:
    """Per-layer metrics per traced op, the trace self-check failures, and
    extra figures (coverage, self-time shares) for the run context."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    hooks = defaultdict(float)  # tracer hook time under each run_benchmark span
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
        if s.name == HOOK:
            up = by_id.get(s.parent)
            while up is not None and up.name != RUN_BENCHMARK:
                up = by_id.get(up.parent)
            if up is not None:
                hooks[up.id] += s.end - s.start
    calls = defaultdict(int)
    failures = defaultdict(int)
    self_s = defaultdict(float)
    wall_s = defaultdict(float)
    rb_covered = rb_traced = 0.0
    regret_eval = 0.0
    problems = []
    min_self = math.inf
    for s in spans:
        wall = s.end - s.start
        own = wall - _union_length(children.get(s.id, ()))
        min_self = min(min_self, own)
        calls[s.name] += 1
        failures[s.name] += s.failed
        self_s[s.name] += own
        wall_s[s.name] += wall
        if s.name == RUN_BENCHMARK:
            # Share of the program's time in run_benchmark that child spans account for.
            rb_traced += wall - hooks[s.id]
            rb_covered += wall - hooks[s.id] - own
        parent = by_id.get(s.parent)
        if s.name == REGRET_EVAL or (
            s.name in REGRET_EVAL_PARTS and parent is not None and parent.name == REGRET_EVAL
        ):
            regret_eval += own
    if min_self < -1e-9:
        problems.append(f"negative self time {min_self:.3g} s in the trace")

    ops = max(traced_ops, 1)
    learn_ok = calls["policy.learn_linear"] - failures["policy.learn_linear"]
    values = {
        "policy.learn_linear.calls": calls["policy.learn_linear"] / ops,
        "policy.learn_linear.self_s": self_s["policy.learn_linear"] / ops,
        "policy.learn_linear.failures": failures["policy.learn_linear"] / ops,
        "policy.learn_linear.exact_share": tracer.exact_results / learn_ok if learn_ok else 1.0,
        "policy.learn_finite.self_s": self_s["policy.learn_finite"] / ops,
        "policy.act.self_s": self_s["policy.act"] / ops,
        "simulation.generate.self_s": self_s["simulation.generate"] / ops,
        "simulation.regret_eval.self_s": regret_eval / ops,
        "simulation.run_benchmark.wall_s": wall_s[RUN_BENCHMARK] / ops,
        "nuisance.cross_fit.calls": calls["nuisance.cross_fit"] / ops,
        "nuisance.cross_fit.self_s": self_s["nuisance.cross_fit"] / ops,
        "nuisance.cross_fit.failures": failures["nuisance.cross_fit"] / ops,
        "weights.make_weights.calls": calls["weights.make_weights"] / ops,
        "weights.make_weights.self_s": self_s["weights.make_weights"] / ops,
        "pseudo.dr_pseudo_outcomes.self_s": self_s["pseudo.dr_pseudo_outcomes"] / ops,
        "data.load_dataset.calls": calls["data.load_dataset"] / ops,
        "data.load_dataset.self_s": self_s["data.load_dataset"] / ops,
        "data.bytes_read": tracer.bytes_read / ops,
        "data.make_folds.self_s": self_s["data.make_folds"] / ops,
        "regression.fit_best_fit.self_s": self_s["regression.fit_best_fit"] / ops,
        "regression.fit_on_arm_precision.self_s": self_s["regression.fit_on_arm_precision"] / ops,
        "regression.fit_dv_overlap.self_s": self_s["regression.fit_dv_overlap"] / ops,
        "regression.fit_cate.self_s": self_s["regression.fit_cate"] / ops,
        "regression.irls_unconverged": irls_unconverged / ops,
        "cli.main.self_s": self_s["cli.main"] / ops,
        "trace.overhead_share": overhead_share,
    }
    extra = {
        "traced_ops": traced_ops,
        "spans": len(spans),
        "run_benchmark_child_coverage": rb_covered / rb_traced if rb_traced else None,
        "self_s_per_op_by_span": {k: v / ops for k, v in sorted(self_s.items())},
    }
    return values, problems, extra


def regret_mismatch(tracer: Tracer) -> list[str]:
    """Rebuild each traced report's mean_regret from the regrets seen at the
    act calls of regret evaluation; return a message per cell that differs
    by more than 1e-12 or lacks replications."""
    by_cell = defaultdict(dict)
    for scenario, seed, scheme, regret in tracer.regrets:
        by_cell[(scenario, scheme)][seed] = regret
    problems = []
    for report in tracer.reports:
        schemes_seen = defaultdict(int)  # rows come scenario by scenario, in scheme order
        for row in report.rows:
            index = schemes_seen[row.scenario]
            schemes_seen[row.scenario] += 1
            seeds = range(row.seed, row.seed + row.reps)
            seen = by_cell[(row.scenario, index)]
            missing = [sd for sd in seeds if sd not in seen]
            if missing:
                problems.append(
                    f"trace missed {len(missing)} replications of {row.scenario}/{row.scheme}"
                )
                continue
            rebuilt = float(np.mean([seen[sd] for sd in seeds]))
            if abs(rebuilt - row.mean_regret) > 1e-12:
                problems.append(
                    f"traced regret of {row.scenario}/{row.scheme} is {rebuilt!r}, "
                    f"report says {row.mean_regret!r}"
                )
    return problems
