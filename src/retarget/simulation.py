"""Synthetic data generating processes and the replicated regret benchmark."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .data import Dataset, _freeze, _input_file, _repeated, make_folds
from .errors import ValidationError
from .nuisance import VARIANCE_FLOOR, NuisanceConfig, NuisanceSet, _mean, _rows, _softmax, cross_fit
from .nuisance import add_intercept as _add_intercept
from .policy import _RegretSample, search_linear
from .pseudo import dr_pseudo_outcomes
from .weights import make_weights, parse_scheme

DEFAULT_SCHEMES = ("uniform", "w0", "w0_dp:1", "w0_dp:2", "w0_dp:-1", "w0_dp:-2")
_FOLD_SEED_OFFSET = 500_000_011
_REGRET_SEED_OFFSET = 900_000_007


def _integer(value) -> int:
    """int(value), refusing a bool and a number that int() would truncate,
    such as 1.5."""
    if isinstance(value, bool) or (not isinstance(value, str) and int(value) != value):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


# The conversion of a ScenarioSpec field, keyed by its annotation, a string
# under `from __future__ import annotations`.
_CONVERT = {"str": str, "int": _integer, "np.ndarray": lambda value: np.asarray(value, dtype=float)}


@dataclass(frozen=True, kw_only=True)
class ScenarioSpec:
    """Declared synthetic DGP, and the schema of a scenario JSON object: the
    fields give its keys, their types and the defaults of the optional ones.

    Covariates are drawn from a uniform box [-1, 1]^d or a standard normal;
    arm probabilities are a softmax of per-arm linear logits in [1, x]; arm
    means are polynomials in per-coordinate powers of x up to mean_degree;
    noise is Gaussian with a per-arm standard deviation.
    """

    name: str
    d: int
    m: int = 2
    covariate_law: str = "uniform"  # "uniform" | "normal"
    propensity_coef: np.ndarray  # (m, d+1) softmax logits
    mean_coef: np.ndarray        # (m, 1 + d*mean_degree)
    noise_sd: np.ndarray         # (m,)
    mean_degree: int = 1

    def __post_init__(self):
        for field in fields(self):
            try:
                object.__setattr__(self, field.name, _CONVERT[field.type](getattr(self, field.name)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"{field.name}: {exc}") from None
        pc, mc, sd = np.atleast_2d(self.propensity_coef), np.atleast_2d(self.mean_coef), self.noise_sd
        if self.covariate_law not in ("uniform", "normal"):
            raise ValidationError(f"covariate_law must be uniform or normal, got {self.covariate_law!r}")
        if self.d < 1 or self.m < 2 or self.mean_degree < 1:
            raise ValidationError("need d >= 1, m >= 2, mean_degree >= 1")
        if sd.ndim > 1 or sd.size not in (1, self.m):
            raise ValidationError(f"noise_sd must be a scalar or ({self.m},), got {sd.shape}")
        if pc.shape != (self.m, self.d + 1):
            raise ValidationError(f"propensity_coef must be ({self.m}, {self.d + 1}), got {pc.shape}")
        k = 1 + self.d * self.mean_degree
        if mc.shape != (self.m, k):
            raise ValidationError(f"mean_coef must be ({self.m}, {k}), got {mc.shape}")
        sd = np.broadcast_to(sd, (self.m,)).copy()  # once the shape checks have bounded m
        if np.any(sd < 0):
            raise ValidationError("noise_sd must be nonnegative")
        if not (np.all(np.isfinite(pc)) and np.all(np.isfinite(mc)) and np.all(np.isfinite(sd))):
            raise ValidationError("scenario coefficients must be finite")
        # mean_coef.T, C-ordered below 16 design columns: at n = 20,000 matmul
        # by the F-ordered view takes ~3x as long, for the same bits. From 16
        # columns on, BLAS rounds the C copy differently, so the view stays.
        coef_t = np.ascontiguousarray(mc.T) if k < 16 else mc.T
        _freeze(self, propensity_coef=pc, mean_coef=mc, noise_sd=sd, _mean_coef_t=coef_t)

    def sample_covariates(
        self, n: int, rng: np.random.Generator, out: np.ndarray | None = None
    ) -> np.ndarray:
        """n draws from the covariate law, written into `out` (a C-ordered
        (n, d) float array) when given. The uniform law scales rng.random
        by 2 and adds -1 in place, the bits of rng.uniform(-1, 1)."""
        if out is None:
            out = np.empty((n, self.d))
        if self.covariate_law == "uniform":
            rng.random(out=out)
            out *= 2.0
            out += -1.0
        else:
            rng.standard_normal(out=out)
        return out

    def mean_matrix(
        self, x: np.ndarray, out: np.ndarray | None = None, design: np.ndarray | None = None
    ) -> np.ndarray:
        """(n, m) arm means at the rows of x, written into `out` when given.
        They are add_intercept(x, mean_degree) @ mean_coef.T, with the design
        built in `design` when given and C-ordered otherwise."""
        x = np.ascontiguousarray(np.atleast_2d(x))
        # One row goes through gemv, whose bits depend on the layout of B.
        coef_t = self.mean_coef.T if x.shape[0] == 1 else self._mean_coef_t
        return np.matmul(_add_intercept(x, self.mean_degree, out=design), coef_t, out=out)

    def propensity_matrix(self, x: np.ndarray) -> np.ndarray:
        p = np.maximum(_softmax(_add_intercept(x) @ self.propensity_coef.T), 1e-12)
        return p / _rows(np.add, p)[:, None]

    def nuisances(self, x: np.ndarray) -> NuisanceSet:
        """The true nuisances at the rows of x, as an oracle set: the arm
        probabilities, the arm means, and noise_sd**2 floored at 1e-12."""
        with np.errstate(over="ignore", invalid="ignore"):  # NuisanceSet refuses what is not finite
            mu = self.mean_matrix(x)
            variance = np.maximum(np.broadcast_to(self.noise_sd**2, mu.shape), VARIANCE_FLOOR)
            propensity = self.propensity_matrix(x)
        return NuisanceSet(propensity=propensity, outcome_mean=mu, variance=variance, provenance="oracle")


def generate(scenario: ScenarioSpec, n: int, seed: int) -> Dataset:
    """Draw a dataset from the scenario; scenario.nuisances(x) gives its truth."""
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    x = scenario.sample_covariates(n, rng)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        prob = scenario.propensity_matrix(x)
        mu = scenario.mean_matrix(x)
        draws = rng.random(n)
        # The action is the number of the first m - 1 cumulative probabilities,
        # summed left to right as cumsum sums them, that fall below the draw:
        # the count over all m capped at m - 1, as the sums never decrease.
        cum = prob[:, 0]
        actions = (cum < draws).astype(int)
        for a in range(1, scenario.m - 1):
            cum = cum + prob[:, a]
            actions += cum < draws
        outcomes = mu[np.arange(n), actions] + rng.standard_normal(n) * scenario.noise_sd[actions]
    if not (np.isfinite(prob).all() and np.isfinite(mu).all() and np.isfinite(outcomes).all()):
        raise ValidationError(f"scenario {scenario.name!r} at seed {seed}: "
                              "arm probabilities, means or outcomes overflow")
    return Dataset(covariates=x, actions=actions, outcomes=outcomes, m=scenario.m)


def default_scenarios() -> list[ScenarioSpec]:
    """Three shipped binary scenarios with qualitatively different overlap.

    S-A places the optimal decision boundary where overlap is strongest, so
    retargeted weights should beat uniform ones; S-B places it deep in a
    weak-overlap region, reversing the ordering; S-C keeps propensities mild
    so the schemes should be close.
    """
    return [
        ScenarioSpec(
            name="S-A",
            d=1,
            m=2,
            covariate_law="uniform",
            propensity_coef=np.array([[0.0, 0.0], [0.0, 3.0]]),
            mean_coef=np.array([[0.0, 0.0], [0.0, 0.5]]),
            noise_sd=np.array([1.0, 1.0]),
            mean_degree=1,
        ),
        ScenarioSpec(
            name="S-B",
            d=1,
            m=2,
            covariate_law="uniform",
            propensity_coef=np.array([[0.0, 0.0], [3.0, 3.0]]),
            mean_coef=np.array([[0.0, 0.0], [-0.5, 1.0]]),
            noise_sd=np.array([0.75, 0.75]),
            mean_degree=1,
        ),
        ScenarioSpec(
            name="S-C",
            d=1,
            m=2,
            covariate_law="uniform",
            propensity_coef=np.array([[0.0, 0.0], [0.0, 0.5]]),
            mean_coef=np.array([[0.0, 0.0], [0.0, 0.6]]),
            noise_sd=np.array([1.0, 1.0]),
            mean_degree=1,
        ),
    ]


def load_scenarios(path: str) -> list[ScenarioSpec]:
    """Read scenarios from a JSON file holding a list of scenario objects."""
    with _input_file(path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also too deep, or an integer too long
            raise ValidationError(f"invalid scenario JSON: {exc}") from None
        if isinstance(raw, dict):
            raw = [raw]
        if not isinstance(raw, list) or not raw:
            raise ValidationError("expected a nonempty list of scenario objects")
        names = [field.name for field in fields(ScenarioSpec)]
        required = [field.name for field in fields(ScenarioSpec) if field.default is MISSING]
        out = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise ValidationError(
                    f"scenario {i}: expected an object, got {type(entry).__name__}"
                )
            for key in required:
                if key not in entry:
                    raise ValidationError(f"scenario missing key {key!r}")
            with _input_file(f"{path}: scenario {i}"):
                out.append(ScenarioSpec(**{key: entry[key] for key in names if key in entry}))
    return out


@dataclass(frozen=True)
class BenchmarkRow:
    scenario: str
    scheme: str
    mean_regret: float
    std_regret: float  # nan when reps < 2
    reps: int
    n: int
    seed: int


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[BenchmarkRow, ...]

    def cell(self, scenario: str, scheme: str) -> BenchmarkRow:
        for row in self.rows:
            if row.scenario == scenario and row.scheme == scheme:
                return row
        raise ValidationError(f"report has no row for scenario {scenario!r} and scheme {scheme!r}")


def _replicate(
    scenario: ScenarioSpec,
    schemes: tuple[str, ...],
    n: int,
    seed: int,
    oracle_nuisances: bool,
    nuisance_config: NuisanceConfig,
    sample: _RegretSample,
) -> np.ndarray:
    """One replication: generate, cross-fit, build every scheme's weights and
    search them in one stacked call each, then the true regret per scheme on
    the scenario's regret sample. The sample is drawn after every scheme is
    learned: the searches' small arrays stay in cache, and the draw has its
    own seed, so the order changes no result."""
    data = generate(scenario, n, seed)
    if oracle_nuisances:
        nuis = scenario.nuisances(data.covariates)
    else:
        folds = make_folds(n, nuisance_config.folds, seed=seed + _FOLD_SEED_OFFSET)
        nuis = cross_fit(data, folds, nuisance_config)
    pseudo = dr_pseudo_outcomes(data, nuis)
    weights = make_weights(schemes, nuis)
    policies = [policy for policy, _ in search_linear(weights, pseudo, data, seed=seed)]
    # One regret sample and loss table serve all of this replication's schemes.
    sample.draw(seed + _REGRET_SEED_OFFSET)
    return np.array([_mean(sample.shortfall(pi)) for pi in policies])


def run_benchmark(
    scenarios: list[ScenarioSpec],
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    reps: int = 100,
    n: int = 500,
    base_seed: int = 0,
    n_folds: int = 2,
    regret_draws: int = 20_000,
    oracle_nuisances: bool = False,
    threads: int = 1,
) -> BenchmarkReport:
    """Replicated policy-learning benchmark over scenarios and weight schemes.

    Replication r uses seed base_seed + r; replications run serially in seed
    order, so the report is a pure function of the arguments. Regret is
    evaluated on the unweighted population. `threads` is accepted for
    compatibility with older callers and ignored. Scheme names are options,
    checked before the first replication: a bad or repeated one, or a
    repeated scenario name, raises its own error however the replications
    would fail.
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if regret_draws < 1:
        raise ValidationError(f"regret_draws must be >= 1, got {regret_draws}")
    if not scenarios:
        raise ValidationError("need at least one scenario")
    schemes = tuple(schemes)
    if not schemes:
        raise ValidationError("need at least one weight scheme")
    for scheme in schemes:
        parse_scheme(scheme)
    for kind, names in (("weight schemes", schemes), ("scenario names", [s.name for s in scenarios])):
        repeated = _repeated(names)
        if repeated:
            raise ValidationError(f"repeated {kind} {repeated}")
    config = NuisanceConfig(folds=n_folds)
    rows = []
    for scenario in scenarios:
        sample = _RegretSample(scenario, regret_draws)  # one set of buffers per scenario
        regrets = np.empty((reps, len(schemes)))
        for r in range(reps):
            regrets[r] = _replicate(scenario, schemes, n, base_seed + r, oracle_nuisances, config, sample)
        del sample  # so the next scenario's buffers are not made beside these
        for s, scheme in enumerate(schemes):
            col = regrets[:, s]
            rows.append(
                BenchmarkRow(
                    scenario=scenario.name,
                    scheme=scheme,
                    mean_regret=float(col.mean()),
                    std_regret=float(col.std(ddof=1)) if reps >= 2 else math.nan,
                    reps=reps,
                    n=n,
                    seed=base_seed,
                )
            )
    return BenchmarkReport(rows=tuple(rows))


def _cell_text(mean: float, std: float) -> str:
    std_text = "n/a" if math.isnan(std) else f"{std:.3f}"
    return f"{mean:.3f} ({std_text})"


def render_report(report: BenchmarkReport, fmt: str = "csv") -> str:
    """Serialize a report: `csv` (long form, 6-significant-digit numbers) or
    `markdown` (scenario-by-scheme grid of `mean (std)` cells; every pair
    needs a row)."""
    if not report.rows:
        raise ValidationError("cannot render an empty report")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scenario", "scheme", "mean_regret", "std_regret", "R", "n", "seed"])
        for row in report.rows:
            writer.writerow(
                [
                    row.scenario,
                    row.scheme,
                    format(row.mean_regret, ".6g"),
                    "" if math.isnan(row.std_regret) else format(row.std_regret, ".6g"),
                    row.reps,
                    row.n,
                    row.seed,
                ]
            )
        return buf.getvalue()
    if fmt == "markdown":
        scenarios = list(dict.fromkeys(row.scenario for row in report.rows))
        schemes = list(dict.fromkeys(row.scheme for row in report.rows))
        lines = ["| scenario | " + " | ".join(schemes) + " |"]
        lines.append("|" + " --- |" * (len(schemes) + 1))
        for scn in scenarios:
            cells = []
            for scheme in schemes:
                row = report.cell(scn, scheme)
                cells.append(_cell_text(row.mean_regret, row.std_regret))
            lines.append(f"| {scn} | " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unknown report format {fmt!r}; expected csv or markdown")


def load_report(path: str) -> BenchmarkReport:
    """Read back a CSV report written by render_report (comment lines allowed)."""
    with _input_file(path):
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        rows = []
        for rec in csv.DictReader(io.StringIO("".join(lines))):
            if None in rec.values():  # DictReader fills a short row's missing fields with None
                raise ValidationError(f"malformed report row {rec!r}: too few fields")
            try:
                rows.append(
                    BenchmarkRow(
                        scenario=rec["scenario"],
                        scheme=rec["scheme"],
                        mean_regret=float(rec["mean_regret"]),
                        std_regret=float(rec["std_regret"]) if rec["std_regret"] else math.nan,
                        reps=int(rec["R"]),
                        n=int(rec["n"]),
                        seed=int(rec["seed"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"malformed report row {rec!r}: {exc}") from None
        if not rows:
            raise ValidationError("no report rows")
        repeated = _repeated((row.scenario, row.scheme) for row in rows)
        if repeated:
            scenario, scheme = repeated[0]
            raise ValidationError(f"repeated row for scenario {scenario!r} and scheme {scheme!r}")
    return BenchmarkReport(rows=tuple(rows))
