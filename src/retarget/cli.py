"""Command-line entry point: simulate | fit | learn | report.

Every run writes its resolved configuration (including the seed) into the
output header so results can be replayed exactly. Exit codes: 0 success,
2 usage error, 3 invalid input or configuration (or a failed allocation),
4 estimation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .data import _check_binary, load_dataset, make_folds
from .errors import EstimationError, ValidationError
from .nuisance import NuisanceConfig, cross_fit, load_oracle_nuisances
from .policy import _check_linear, learn_linear, learn_finite, load_policy_class
from .pseudo import dr_pseudo_outcomes, dump_pseudo_outcomes
from .regression import (
    FeatureMap, _check_arm, fit_best_fit, fit_cate, fit_dv_overlap, fit_on_arm_precision,
)
from .simulation import (
    DEFAULT_SCHEMES,
    default_scenarios,
    load_report,
    load_scenarios,
    render_report,
    run_benchmark,
)
from .weights import DEFAULT_GAP_FLOOR, make_weights, parse_scheme

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_ESTIMATION = 4


def _config_header(command: str, args: argparse.Namespace) -> str:
    # The output destination does not influence results, so it stays out of
    # the replay config and identical runs emit identical bytes anywhere.
    resolved = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    resolved["command"] = command
    return "# config: " + json.dumps(resolved, sort_keys=True, default=str)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_nuisance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--folds", type=int, default=2, help="cross-fitting folds (default 2)")
    parser.add_argument("--ridge", type=float, default=0.0, help="unit-free ridge penalty of the outcome models")
    parser.add_argument("--clip", type=float, default=0.01, help="propensity clipping constant")
    parser.add_argument(
        "--variance", choices=["pooled", "per_arm"], default="pooled",
        help="residual variance mode",
    )
    parser.add_argument("--oracle", default=None, help="CSV of oracle nuisances (phi_*/mu_*[/var_*])")
    parser.add_argument("--seed", type=int, default=0, help="seed for fold assignment")
    parser.add_argument(
        "--weights", default="uniform",
        help="weight scheme: uniform, w0, or w0_dp:<p>",
    )
    parser.add_argument(
        "--delta-floor", type=float, default=DEFAULT_GAP_FLOOR,
        help="gap floor used by negative scaling powers",
    )
    parser.add_argument("--dump-psi", default=None, help="optionally dump the score matrix as CSV")


def _prepare(args: argparse.Namespace, check):
    """The dataset, getters of its nuisances and their doubly robust scores
    (each built on its first call and at most once) and check(data). Every
    option and input file is checked before any fit, the command's own ones
    by `check`; --dump-psi then builds and writes the scores at once."""
    data = load_dataset(args.data)
    config = NuisanceConfig(
        folds=args.folds,
        ridge_lambda=args.ridge,
        propensity_clip=args.clip,
        variance_mode=args.variance,
    )
    parse_scheme(args.weights, args.delta_floor)
    folds = make_folds(data.n, args.folds, seed=args.seed)
    checked = check(data)
    nuis = functools.cache(lambda: cross_fit(data, folds, config))
    if args.oracle:
        fixed = load_oracle_nuisances(args.oracle, data, args.variance)
        nuis = lambda: fixed
    pseudo = functools.cache(lambda: dr_pseudo_outcomes(data, nuis()))
    if args.dump_psi:
        dump_pseudo_outcomes(pseudo(), args.dump_psi)
    return data, nuis, pseudo, checked


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenarios = default_scenarios() if args.scenarios == "default" else load_scenarios(args.scenarios)
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    report = run_benchmark(
        scenarios,
        schemes=schemes,
        reps=args.reps,
        n=args.n,
        base_seed=args.seed,
        n_folds=args.folds,
        regret_draws=args.regret_draws,
        oracle_nuisances=args.oracle_nuisances,
    )
    body = render_report(report, fmt=args.format)
    _emit(_config_header("simulate", args) + "\n" + body, args.out)
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    zmap = FeatureMap.parse(args.features)

    def check(data):
        zmap._check_width(data.d)
        if args.equation != "cate":
            _check_arm(args.arm, data.m)
        binary_only = {"dv": "overlap-weighted regression", "cate": "effect regression"}
        if args.equation in binary_only:
            _check_binary(data.m, binary_only[args.equation])

    data, nuis, pseudo, _ = _prepare(args, check)
    if args.equation in ("best_fit", "cate"):
        # Scores before weights: weights that fail behind bad scores report the scores.
        psi, w = pseudo(), make_weights(args.weights, nuis(), gap_floor=args.delta_floor)
        del nuis, pseudo  # the regression reads only the scores and weights
    if args.equation == "best_fit":
        fit = fit_best_fit(psi.values[:, args.arm], w, zmap, data)
    elif args.equation == "on_arm":
        # The ols and irls on-arm fits read no nuisance.
        mode = {"known": "known_variance", "ols": "ols", "irls": "irls"}[args.mode]
        fit = fit_on_arm_precision(data, nuis() if mode == "known_variance" else None, args.arm,
                                   zmap, mode=mode)
    elif args.equation == "dv":
        fit = fit_dv_overlap(data, nuis(), args.arm, zmap)
    else:
        fit = fit_cate(data, psi, w, zmap)

    header = _config_header("fit", args)
    lines = [header]
    lines.append(f"equation={fit.equation}")
    lines.append(f"arm={'' if fit.arm is None else fit.arm}")
    lines.append(f"features={zmap.name}")
    for j, b in enumerate(fit.beta):
        lines.append(f"beta_{j}={float(b)!r}")
    lines.append(f"n_used={fit.n_used}")
    lines.append(f"residual_norm={fit.residual_norm!r}")
    lines.append(f"residual_tol={fit.residual_tol!r}")
    lines.append(f"iterations={fit.iterations}")
    lines.append(f"converged={fit.converged}")
    machine = "\n".join(lines) + "\n"
    if args.out:
        _emit(machine, args.out)
    text = [
        f"{fit.equation} regression" + (f" on arm {fit.arm}" if fit.arm is not None else ""),
        f"  features : {zmap.name}",
        f"  rows used: {fit.n_used}",
        "  beta     : " + ", ".join(f"{b:.6g}" for b in fit.beta),
        f"  residual : {fit.residual_norm:.3g} (tolerance {fit.residual_tol:.3g})",
    ]
    if fit.equation == "on_arm_precision":
        text.append(f"  iterations: {fit.iterations}, converged: {fit.converged}")
    sys.stdout.write("\n".join(text) + "\n")
    return EXIT_OK


def _cmd_learn(args: argparse.Namespace) -> int:
    def finite_class(data):  # None for the linear class
        if args.policy_class == "linear":
            _check_linear(data)
            return None
        if not args.policy_class.startswith("finite:"):
            raise ValidationError(
                f"unknown policy class {args.policy_class!r}; expected linear or finite:<file>"
            )
        return load_policy_class(args.policy_class.split(":", 1)[1], m=data.m, d=data.d)

    data, nuis, pseudo, policy_class = _prepare(args, finite_class)
    psi, w = pseudo(), make_weights(args.weights, nuis(), gap_floor=args.delta_floor)
    del nuis, pseudo  # the search reads only the scores and weights
    lines = [_config_header("learn", args)]
    if policy_class is None:
        result = learn_linear(w, psi, data, seed=args.seed)
        lines.append("class=linear")
        lines.append(f"exact={result.exact}")
        for j, t in enumerate(result.best.theta):
            lines.append(f"theta_{j}={float(t)!r}")
    else:
        result = learn_finite(policy_class, w, psi, data)
        lines.append(f"class=finite({len(policy_class.policies)})")
        lines.append(f"best_index={result.best_index}")
        lines.append(f"value_gap={result.value_gap!r}")
        lines.append(f"second_best_value={result.second_best_value!r}")
        lines.append(f"tied={result.tied}")
    lines.append(f"best_value={result.best_value!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    report = load_report(args.input)
    body = render_report(report, fmt=args.format)
    _emit(_config_header("report", args) + "\n" + body, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retarget",
        description=(
            "Retargeted policy learning and causal prediction regressions: "
            "simulate benchmarks, fit estimating equations, learn policies, "
            "and reformat reports."
        ),
        epilog=(
            "Exit codes: 0 success, 2 usage error, 3 invalid input/config, "
            "4 estimation failure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the replicated regret benchmark")
    p_sim.add_argument("--scenarios", default="default", help="'default' or a scenario JSON file")
    p_sim.add_argument("--schemes", default=",".join(DEFAULT_SCHEMES), help="comma-separated weight schemes")
    p_sim.add_argument("--reps", type=int, default=100, help="replications per scenario")
    p_sim.add_argument("--n", type=int, default=500, help="sample size per replication")
    p_sim.add_argument("--seed", type=int, default=0, help="base seed; replication r uses seed+r")
    p_sim.add_argument("--folds", type=int, default=2, help="cross-fitting folds")
    p_sim.add_argument("--regret-draws", type=int, default=20_000, help="MC draws for true regret")
    p_sim.add_argument("--oracle-nuisances", action="store_true", help="use true nuisances instead of cross-fitting")
    p_sim.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p_sim.add_argument("--out", default=None, help="output path (default stdout)")
    p_sim.add_argument("--threads", type=int, default=0, help="ignored; replications run serially")
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit one of the estimating equations")
    p_fit.add_argument("--data", required=True, help="dataset CSV (x1..xd, a, y)")
    p_fit.add_argument("--equation", choices=["best_fit", "on_arm", "dv", "cate"], required=True)
    p_fit.add_argument("--arm", type=int, default=1, help="arm for best_fit/on_arm/dv")
    p_fit.add_argument("--mode", choices=["known", "ols", "irls"], default="known",
                       help="on_arm weighting mode: known (inverse nuisance variances), ols, "
                            "or irls (two-stage feasible GLS: weights from a fit of the log "
                            "squared ols residuals)")
    p_fit.add_argument("--features", default="identity",
                       help="identity | subset:<idx-list> | poly:<deg>")
    _add_nuisance_flags(p_fit)
    p_fit.add_argument("--out", default=None, help="machine-readable key=value output path")
    p_fit.set_defaults(func=_cmd_fit)

    p_learn = sub.add_parser("learn", help="learn a policy by weighted value search")
    p_learn.add_argument("--data", required=True, help="dataset CSV (x1..xd, a, y)")
    p_learn.add_argument("--class", dest="policy_class", default="linear",
                         help="linear | finite:<policy file>")
    _add_nuisance_flags(p_learn)
    p_learn.add_argument("--out", default=None, help="output path (default stdout)")
    p_learn.set_defaults(func=_cmd_learn)

    p_rep = sub.add_parser("report", help="reformat a benchmark report")
    p_rep.add_argument("--in", dest="input", required=True, help="CSV report path")
    p_rep.add_argument("--format", choices=["csv", "markdown"], default="markdown")
    p_rep.add_argument("--out", default=None, help="output path (default stdout)")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:  # numpy raises its private subclass, _ArrayMemoryError
        print(f"error[MemoryError]: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (EstimationError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
