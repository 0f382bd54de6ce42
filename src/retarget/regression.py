"""Weighted estimating-equation regressions for treated outcomes and effects.

Four fitting routines share one weighted least-squares core:

- fit_best_fit: weighted regression of a doubly robust score column on the
  features (best-linear-fit target on the w-weighted population).
- fit_on_arm_precision: regression of the raw outcome on the features over one
  arm's rows, precision-weighted / plain / two-stage feasible GLS.
- fit_dv_overlap: other-arm-propensity-weighted regression of the raw outcome
  over one arm's rows (binary actions only).
- fit_cate: weighted regression of the effect score on the features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _check_binary, _repeated
from .errors import EstimationError, ValidationError
from .nuisance import NuisanceSet, _scaled_design, add_intercept
from .pseudo import PseudoOutcomes, effect_pseudo_outcome
from .weights import WeightScheme

RESIDUAL_REL_TOL = 1e-8
IRLS_RESIDUAL_FLOOR = 1e-6


@dataclass(frozen=True)
class FeatureMap:
    """Deterministic covariate reduction x -> z used as the regression design,
    built by parse: identity, a coordinate subset, or per-coordinate polynomial
    powers. Every design is add_intercept's [1, x, ..., x^degree], the layout
    of a scenario's mean_coef."""

    name: str
    indices: tuple[int, ...] | None = None  # None keeps every column
    degree: int = 1

    @classmethod
    def parse(cls, spec: str) -> "FeatureMap":
        """Parse a feature spec: identity | subset:<i,j,...> | poly:<deg>."""
        if spec == "identity":
            return cls(name="identity")
        if spec.startswith("subset:"):
            body = spec.split(":", 1)[1]
            try:
                indices = tuple(int(tok) for tok in body.split(",") if tok.strip() != "")
            except ValueError:
                raise ValidationError(f"bad subset indices in {spec!r}") from None
            repeated = _repeated(indices)
            if repeated:
                raise ValidationError(f"repeated subset indices {repeated} in {spec!r}")
            return cls(name="subset:" + ",".join(str(i) for i in indices), indices=indices)
        if spec.startswith("poly:"):
            try:
                degree = int(spec.split(":", 1)[1])
            except ValueError:
                raise ValidationError(f"bad polynomial degree in {spec!r}") from None
            if degree < 1:
                raise ValidationError(f"polynomial degree must be >= 1, got {degree}")
            return cls(name=f"poly:{degree}", degree=degree)
        raise ValidationError(
            f"unknown feature map {spec!r}; expected identity, subset:<idx-list>, or poly:<deg>"
        )

    def _check_width(self, d: int) -> None:
        """Reject subset indices outside d covariate columns."""
        bad = [i for i in self.indices or () if not 0 <= i < d]
        if bad:
            raise ValidationError(f"subset indices {bad} outside 0..{d - 1}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self._check_width(x.shape[1])
        if self.indices is not None:
            x = x[:, list(self.indices)]
        with np.errstate(over="ignore"):  # an overflowing power is rejected below
            z = add_intercept(x, self.degree)
        if not np.all(np.isfinite(z)):
            raise ValidationError("feature map produced non-finite values")
        return z


@dataclass(frozen=True)
class RegressionFit:
    """Solved coefficient vector plus estimating-equation diagnostics.

    residual_norm is the infinity norm of the estimating equation with the
    reported weights on the conditioned design the fit solves (_solve_wls);
    it must not exceed residual_tol (= 1e-8 * rows used * max(1, max|target|)),
    which scales with the target as the residual does.
    """

    beta: np.ndarray
    equation: str
    arm: int | None
    residual_norm: float
    residual_tol: float
    n_used: int
    iterations: int = 0
    converged: bool = True


def _solve_wls(zmap: FeatureMap, x: np.ndarray, rows: np.ndarray | None, target: np.ndarray,
               sample_w: np.ndarray, equation: str, arm: int | None, context: str,
               irls: bool = False) -> RegressionFit:
    """Solve sum_i w_i (target_i - beta ' z_i) z_i = 0 over z = zmap(x[rows])
    (x for rows=None; an arm needs as many rows as features): the one place a
    RegressionFit is built. Every solve, rank check and residual runs on
    [1, (z - c) / s], the _scaled_design of z's feature columns, and beta
    maps back as beta_j = beta'_j / s_j, beta_0 = beta'_0 - sum_j beta_j c_j,
    so z_j * 2^k gives beta_j * 2^-k bit for bit. Weights are rescaled by
    their maximum first (the solution is invariant), so constant weights
    reduce to the identical unweighted system. With irls (unit weights only),
    the fit is two-stage feasible GLS: gamma is the least-squares fit of
    log(max(r_i^2, 1e-6)) on the design for the plain fit's residuals r
    (computed as 2 log max(|r_i|, 1e-3), which cannot overflow), and the
    returned solve weights each row by exp(min(s) - s) for s = z @ gamma,
    its inverse fitted variance scaled to a maximum of 1. z goes before the
    first weighted copy, so at most one design and one weighted copy of it
    are held at once, plus row vectors. An overflow anywhere, the map-back's
    too, is an EstimationError naming the context.
    """
    z = zmap(x if rows is None else x[rows])
    if arm is not None and z.shape[0] < z.shape[1]:
        raise EstimationError(f"arm {arm} has {z.shape[0]} rows, fewer than the {z.shape[1]} features")
    z, shift, scale = _scaled_design(z[:, 1:])
    try:
        with np.errstate(over="raise"):
            beta, wz, gram = _weighted_solve(z, target, sample_w, context)
            if irls:
                # Unit weights leave wz = z, so gram is z'z and already rank-checked.
                # One row vector v holds log r^2, then s, then the weights in
                # turn, and the first wz goes before the second is built.
                v = _residual(z, beta, target)
                np.abs(v, out=v)
                np.log(np.maximum(v, np.sqrt(IRLS_RESIDUAL_FLOOR), out=v), out=v)
                v *= 2.0
                np.matmul(z, np.linalg.solve(gram, wz.T @ v), out=v)
                del wz
                np.exp(np.subtract(v.min(), v, out=v), out=v)
                beta, wz, _ = _weighted_solve(z, target, v, context)
                del v
            residual_norm = float(np.abs(wz.T @ _residual(z, beta, target)).max())
            beta[1:] /= scale
            beta[0] -= beta[1:] @ shift
    except FloatingPointError as exc:
        raise EstimationError(f"{context}: {exc}") from None
    target_scale = max(1.0, float(target.max()), -float(target.min()))
    return RegressionFit(
        beta=beta, equation=equation, arm=arm, residual_norm=residual_norm,
        residual_tol=RESIDUAL_REL_TOL * target.size * target_scale,
        n_used=target.size, iterations=int(irls), converged=True,
    )


def _residual(z: np.ndarray, beta: np.ndarray, target: np.ndarray) -> np.ndarray:
    """target - z @ beta in one new row vector."""
    r = z @ beta
    return np.subtract(target, r, out=r)


def _weighted_solve(z: np.ndarray, target: np.ndarray, sample_w: np.ndarray, context: str):
    """beta of one weighted solve, z times the weights rescaled to a maximum of 1,
    and the rank-checked Gram matrix of the two."""
    top = float(sample_w.max())
    if top <= 0:
        raise EstimationError(f"all regression weights are zero in {context}")
    if top != 1.0:  # dividing by 1 would only copy the weights
        sample_w = sample_w / top
    wz = z * sample_w[:, None]
    gram = wz.T @ z
    if np.linalg.matrix_rank(gram) < z.shape[1]:
        raise EstimationError(f"singular weighted design in {context} ({z.shape[0]} rows, "
                              f"{z.shape[1]} features); use a smaller feature map")
    return np.linalg.solve(gram, wz.T @ target), wz, gram


def _check_arm(arm: int, m: int) -> None:
    """Reject an arm outside {0..m-1}; numpy would read a negative one from the end."""
    if not 0 <= arm < m:
        raise ValidationError(f"arm {arm} outside {{0..{m - 1}}}")


def _arm_rows(data: Dataset, nuis: NuisanceSet | None, arm: int) -> np.ndarray:
    """One arm's row indices, once the nuisances conform to the dataset."""
    if nuis is not None and (nuis.n != data.n or nuis.m != data.m):
        raise ValidationError("nuisance matrices do not conform to the dataset")
    return np.flatnonzero(data.actions == arm)


def fit_best_fit(
    psi_col: np.ndarray, w: WeightScheme, zmap: FeatureMap, data: Dataset
) -> RegressionFit:
    """Weighted least squares of a doubly robust score column on z = zmap(x).

    Args:
        psi_col: length-n score column for the arm of interest.
        w: weight scheme defining the target population.
        zmap: feature map applied to the covariates.
        data: dataset providing the covariates.
    """
    psi_col = np.asarray(psi_col, dtype=float)
    if psi_col.shape != (data.n,) or w.n != data.n:
        raise ValidationError(
            f"score column ({psi_col.shape}) and weights ({w.n}) must both cover n={data.n}"
        )
    return _solve_wls(zmap, data.covariates, None, psi_col, w.weights, "best_fit", None,
                      "best-fit regression")


def fit_on_arm_precision(
    data: Dataset,
    nuis: NuisanceSet | None,
    arm: int,
    zmap: FeatureMap,
    mode: str = "known_variance",
) -> RegressionFit:
    """Regression of the raw outcome on z over one arm's rows.

    Modes: known_variance weights each row by 1/var_hat(arm|x); ols drops the
    weight; irls is two-stage feasible GLS, which fits the log squared
    residuals of the ols fit (floored at 1e-6) on z and weights each row by
    the inverse of its fitted variance (Romano & Wolf 2017). Only
    known_variance reads the nuisances; ols and irls accept nuis=None.
    """
    if mode not in ("known_variance", "ols", "irls"):
        raise ValidationError(f"mode must be known_variance, ols, or irls, got {mode!r}")
    _check_arm(arm, data.m)
    if nuis is None and mode == "known_variance":
        raise ValidationError("known_variance mode needs nuisance variances")
    rows = _arm_rows(data, nuis, arm)
    context = f"on-arm regression (arm {arm}, mode {mode})"
    # irls starts from the plain fit.
    sample_w = 1.0 / nuis.variance[rows, arm] if mode == "known_variance" else np.ones(rows.size)
    return _solve_wls(zmap, data.covariates, rows, data.outcomes[rows], sample_w,
                      "on_arm_precision", arm, context, irls=mode == "irls")


def fit_dv_overlap(
    data: Dataset, nuis: NuisanceSet, arm: int, zmap: FeatureMap
) -> RegressionFit:
    """Other-arm-propensity-weighted regression of the outcome on z over one
    arm's rows; consistent for the best linear fit of that arm's outcome on
    the population reweighted by the product of both propensities. Binary only.
    """
    _check_binary(data.m, "overlap-weighted regression")
    _check_arm(arm, data.m)
    rows = _arm_rows(data, nuis, arm)
    return _solve_wls(zmap, data.covariates, rows, data.outcomes[rows],
                      nuis.propensity[rows, 1 - arm], "dv_overlap", arm, "overlap-weighted regression")


def fit_cate(
    data: Dataset, pseudo: PseudoOutcomes, w: WeightScheme, zmap: FeatureMap
) -> RegressionFit:
    """Weighted least squares of the effect score (arm 1 minus arm 0) on z."""
    _check_binary(data.m, "effect regression")
    if pseudo.n != data.n or w.n != data.n:
        raise ValidationError("pseudo-outcomes and weights must cover the dataset")
    target = effect_pseudo_outcome(pseudo)
    return _solve_wls(zmap, data.covariates, None, target, w.weights, "cate", None,
                      "effect regression")
