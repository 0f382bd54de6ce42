"""The benchmark workloads: their generated inputs, their calls into
`retarget.cli.main`, and the checks on every call's output.

A call is one `retarget` command run in-process. It holds `weight` ops: one
for `learn` and `fit` commands, and one per replication (scenario x seed,
all schemes) for `simulate`. Inputs depend only on the workload seed.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from retarget import cli
from retarget.data import load_dataset, make_folds
from retarget.nuisance import NuisanceConfig, cross_fit
from retarget.policy import LinearPolicy, learn_linear, load_policy_class, weighted_value
from retarget.pseudo import dr_pseudo_outcomes
from retarget.simulation import default_scenarios
from retarget.weights import make_weights

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
VALUE_RTOL = 1e-12


@dataclass(frozen=True)
class Call:
    argv: list[str]
    weight: int
    key: tuple = ()  # what the output check needs to know about the inputs


@dataclass
class Outcome:
    code: int | None  # None: an exception escaped cli.main
    seconds: float
    out_text: str | None
    error: str = ""


def write_csv(path: str, x: np.ndarray, a: np.ndarray, y: np.ndarray) -> None:
    """Dataset file in the documented `x1..xd,a,y` layout; floats in repr form."""
    header = [f"x{j + 1}" for j in range(x.shape[1])] + ["a", "y"]
    lines = [",".join(header)]
    for xi, ai, yi in zip(x.tolist(), a.tolist(), y.tolist()):
        lines.append(",".join([*map(repr, xi), str(ai), repr(yi)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_key_values(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, value = line.split("=", 1)
        out[key] = value
    return out


def report_body(text: str) -> str:
    """A simulate report without its `# config:` header, which records
    run options such as --threads that do not change the report."""
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))


class _Prepared:
    """Nuisances, scores and weights exactly as `retarget learn` builds them
    at its defaults (2 folds, fold seed 0), cached per (file, weights)."""

    def __init__(self):
        self._cache = {}

    def get(self, path: str, weights: str):
        key = (path, weights)
        if key not in self._cache:
            data = load_dataset(path)
            folds = make_folds(data.n, 2, seed=0)
            nuis = cross_fit(data, folds, NuisanceConfig(folds=2))
            pseudo = dr_pseudo_outcomes(data, nuis)
            self._cache[key] = (data, pseudo, make_weights(weights, nuis))
        return self._cache[key]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=VALUE_RTOL, abs_tol=VALUE_RTOL)


class Workload:
    name = ""
    why = ""
    min_calls = 1
    coverage_floor: float | None = None  # least share of run_benchmark wall time its child spans cover

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.out = os.path.join(workdir, "out.txt")

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_inputs(self) -> None:
        """Generate every input file from the seed."""

    def warmup(self) -> Call:
        raise NotImplementedError

    def call(self, k: int) -> Call:
        raise NotImplementedError

    def check(self, call: Call, outcome: Outcome) -> list[str]:
        """Problems with a call's output; called only for calls that exited 0."""
        raise NotImplementedError

    def final_checks(self, run_call) -> list[str]:
        return []

    def irls_unconverged(self, call: Call, outcome: Outcome) -> int:
        return 0


class Simulate(Workload):
    name = "simulate"
    why = ("retarget simulate at CLI defaults (3 scenarios x 6 schemes x 100 reps, n=500, "
           "--threads 0 = nproc): the d=1 exact search, regret evaluation and the thread pool")
    threads_flag: list[str] = []
    min_calls = 3  # the median of three commands is not moved by one slow command
    coverage_floor = 0.9

    def __init__(self, workdir: str, seed: int):
        super().__init__(workdir, seed)
        defaults = cli.build_parser().parse_args(["simulate"])
        self.rows = len(default_scenarios()) * len(defaults.schemes.split(","))
        self.weight = defaults.reps * len(default_scenarios())

    def base_seed(self, k: int) -> int:
        return self.seed * 10_000 + 100 * k

    def _argv(self, seed: int, *extra: str) -> list[str]:
        return ["simulate", "--seed", str(seed), *self.threads_flag, *extra, "--out", self.out]

    def warmup(self) -> Call:
        return Call(self._argv(self.seed * 10_000 + 9_999, "--reps", "1"), len(default_scenarios()))

    def call(self, k: int) -> Call:
        return Call(self._argv(self.base_seed(k)), self.weight, (self.base_seed(k),))

    def check(self, call: Call, outcome: Outcome) -> list[str]:
        rows = list(csv.DictReader(io.StringIO(report_body(outcome.out_text))))
        problems = []
        if len(rows) != self.rows:
            problems.append(f"report has {len(rows)} rows, expected {self.rows}")
        for row in rows:
            mean, std = float(row["mean_regret"]), float(row["std_regret"])
            if not (math.isfinite(mean) and math.isfinite(std)):
                problems.append(f"non-finite regret in {row}")
            elif mean < 0:
                problems.append(f"negative mean regret in {row}")
        if call.key == (0,) and outcome.out_text is not None:
            problems += self._against_reference(outcome.out_text, "simulate_seed0.csv")
        return problems

    def _against_reference(self, text: str, name: str) -> list[str]:
        with open(os.path.join(REFERENCE_DIR, name), encoding="utf-8") as fh:
            if report_body(text) != fh.read():
                return [f"report differs from reference/{name}"]
        return []

    def final_checks(self, run_call) -> list[str]:
        """run_benchmark promises a report that does not depend on threads:
        a short grid at this run's first seed must give the same bytes with
        --threads 0 and --threads 1, and at seed 0 must match the reference."""
        problems = []
        bodies = []
        for flag in ("0", "1"):
            argv = ["simulate", "--seed", str(self.base_seed(0)), "--reps", "4",
                    "--threads", flag, "--out", self.out]
            outcome = run_call(Call(argv, 0))
            if outcome.code != 0:
                return [f"short grid with --threads {flag} exited {outcome.code}"]
            bodies.append(report_body(outcome.out_text))
        if bodies[0] != bodies[1]:
            problems.append("report with --threads 0 differs from --threads 1")
        outcome = run_call(Call(self._argv(0, "--reps", "4"), 0))
        if outcome.code != 0:
            return problems + [f"reference grid exited {outcome.code}"]
        return problems + self._against_reference(outcome.out_text, "simulate_seed0_reps4.csv")


class SimulateSerial(Simulate):
    name = "simulate-serial"
    why = ("the same grid with --threads 1: the single-threaded baseline that bypasses "
           "the thread pool, so a pool change can be told from a layer change")
    threads_flag = ["--threads", "1"]


class LearnLinearD2(Workload):
    name = "learn-linear-d2"
    why = ("retarget learn --class linear on d=2 CSVs (n 40/60, half with covariates rounded "
           "to a 0.5 grid): the exact d>=2 enumeration and its failures on tied covariates")
    min_calls = 100
    SHAPES = [(40, False), (60, False), (40, True), (60, True)] * 6
    WEIGHTS = ("uniform", "w0", "w0_dp:1")

    def __init__(self, workdir: str, seed: int):
        super().__init__(workdir, seed)
        self.files = [self.path(f"d2_{i:02d}.csv") for i in range(len(self.SHAPES))]
        self.prepared = _Prepared()
        self.approx_values = {}

    def write_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        for path, (n, rounded) in zip(self.files, self.SHAPES):
            x = rng.standard_normal((n, 2))
            if rounded:
                x = np.round(2.0 * x) / 2.0
            a = (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.5 * x[:, 0] - 0.5 * x[:, 1])))).astype(int)
            effect = 0.8 * x[:, 0] + 0.6 * x[:, 1] - 0.2
            y = x[:, 0] - 0.5 * x[:, 1] + a * effect + rng.standard_normal(n)
            write_csv(path, x, a, y)

    def _argv(self, path: str, weights: str) -> list[str]:
        return ["learn", "--data", path, "--class", "linear", "--weights", weights,
                "--out", self.out]

    def warmup(self) -> Call:
        return Call(self._argv(self.files[0], self.WEIGHTS[0]), 1)

    def call(self, k: int) -> Call:
        """Pass r over the files runs each once; file i uses weights (i + r) mod 3."""
        i, r = k % len(self.files), k // len(self.files)
        path, weights = self.files[i], self.WEIGHTS[(i + r) % len(self.WEIGHTS)]
        return Call(self._argv(path, weights), 1, (path, weights))

    def check(self, call: Call, outcome: Outcome) -> list[str]:
        """best_value is the value of the returned theta, and no worse than
        the multi-start heuristic's value on the same inputs."""
        path, weights = call.key
        out = parse_key_values(outcome.out_text)
        data, pseudo, w = self.prepared.get(path, weights)
        theta = np.array([float(out[f"theta_{j}"]) for j in range(data.d + 1)])
        best = float(out["best_value"])
        value = weighted_value(LinearPolicy(theta=theta), w, pseudo, data)
        problems = []
        if not _close(best, value):
            problems.append(f"{call.argv}: best_value {best!r} but theta is worth {value!r}")
        if call.key not in self.approx_values:
            approx = learn_linear(w, pseudo, data, seed=0, force_approx=True)
            self.approx_values[call.key] = approx.best_value
        approx_value = self.approx_values[call.key]
        if best < approx_value and not _close(best, approx_value):
            problems.append(f"{call.argv}: best_value {best!r} below heuristic {approx_value!r}")
        return problems


class FitCsv(Workload):
    name = "fit-csv"
    why = ("retarget fit (best_fit, on_arm irls, dv, cate) and learn --class finite on "
           "n=20000 d=4 CSVs plus an m=3 file: CSV load, nuisances and regressions")
    min_calls = 100
    N = 20_000
    N_POLICIES = 200

    def __init__(self, workdir: str, seed: int):
        super().__init__(workdir, seed)
        self.binary = [self.path("fit_binary_a.csv"), self.path("fit_binary_b.csv")]
        self.three = self.path("fit_m3.csv")
        self.policies = self.path("policies.txt")
        self.prepared = _Prepared()
        fit = ["fit", "--equation"]
        self.kinds = [
            (fit + ["best_fit", "--features", "poly:3", "--weights", "w0"], False),
            (fit + ["on_arm", "--mode", "irls", "--features", "poly:2"], False),
            (fit + ["dv"], False),
            (fit + ["cate", "--weights", "w0_dp:1"], False),
            (["learn", "--class", f"finite:{self.policies}", "--weights", "w0"], False),
            (fit + ["best_fit", "--features", "poly:3", "--weights", "w0"], True),
            (fit + ["on_arm", "--mode", "irls", "--features", "poly:2"], True),
        ]

    def write_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        n = self.N
        for path in self.binary:
            x = rng.standard_normal((n, 4))
            logit = 0.6 * x[:, 0] - 0.4 * x[:, 1] + 0.3 * x[:, 2]
            a = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
            effect = 0.5 + 0.5 * x[:, 0] - 0.25 * x[:, 2] ** 2
            y = 0.5 + x[:, 0] - 0.5 * x[:, 1] + 0.25 * x[:, 2] * x[:, 3] + a * effect
            write_csv(path, x, a, y + rng.standard_normal(n))
        x = rng.standard_normal((n, 4))
        logits = np.column_stack([np.zeros(n), 0.5 * x[:, 0] + 0.3 * x[:, 1],
                                  -0.4 * x[:, 0] + 0.5 * x[:, 2]])
        prob = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        a = (prob.cumsum(axis=1) < rng.random(n)[:, None]).sum(axis=1)
        means = np.column_stack([x[:, 0], 0.5 + x[:, 1] - 0.3 * x[:, 0] ** 2, -0.2 + 0.8 * x[:, 3]])
        y = means[np.arange(n), a] + rng.standard_normal(n)
        write_csv(self.three, x, a, y)
        thetas = rng.standard_normal((self.N_POLICIES - 2, 5))
        lines = ["const,0", "const,1"] + [",".join(map(repr, t)) for t in thetas.tolist()]
        with open(self.policies, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def call(self, k: int) -> Call:
        argv, three = self.kinds[k % len(self.kinds)]
        path = self.three if three else self.binary[(k // len(self.kinds)) % len(self.binary)]
        return Call(argv + ["--data", path, "--out", self.out], 1, (argv[0], path))

    def warmup(self) -> Call:
        return self.call(0)

    def check(self, call: Call, outcome: Outcome) -> list[str]:
        out = parse_key_values(outcome.out_text)
        command, path = call.key
        if command == "learn":
            data, pseudo, w = self.prepared.get(path, "w0")
            policy = load_policy_class(self.policies).policies[int(out["best_index"])]
            best = float(out["best_value"])
            value = weighted_value(policy, w, pseudo, data)
            if not _close(best, value):
                return [f"{call.argv}: best_value {best!r} but policy is worth {value!r}"]
            return []
        betas = [float(v) for k, v in out.items() if k.startswith("beta_")]
        problems = []
        if not betas or not all(math.isfinite(b) for b in betas):
            problems.append(f"{call.argv}: missing or non-finite beta {betas}")
        if not float(out["residual_norm"]) <= float(out["residual_tol"]):
            problems.append(
                f"{call.argv}: residual_norm {out['residual_norm']} > tol {out['residual_tol']}"
            )
        return problems

    def irls_unconverged(self, call: Call, outcome: Outcome) -> int:
        if outcome.code != 0 or "irls" not in call.argv:
            return 0
        return int(parse_key_values(outcome.out_text).get("converged") == "False")


# The workloads BENCHMARK.json declares, and two that run the same way but are
# not declared: on a shared 2-vCPU host their timings swing more between runs
# than the bounds allow.
WORKLOADS = {w.name: w for w in (Simulate, FitCsv)}
EXTRA_WORKLOADS = {w.name: w for w in (SimulateSerial, LearnLinearD2)}
