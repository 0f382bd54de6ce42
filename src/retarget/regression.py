"""Weighted estimating-equation regressions for treated outcomes and effects.

Four fitting routines share one weighted least-squares core:

- fit_best_fit: weighted regression of a doubly robust score column on the
  features (best-linear-fit target on the w-weighted population).
- fit_on_arm_precision: regression of the raw outcome on the features over one
  arm's rows, precision-weighted / plain / iteratively reweighted.
- fit_dv_overlap: other-arm-propensity-weighted regression of the raw outcome
  over one arm's rows (binary actions only).
- fit_cate: weighted regression of the effect score on the features.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import EstimationError, ValidationError
from .nuisance import NuisanceSet, add_intercept
from .pseudo import PseudoOutcomes, effect_pseudo_outcome
from .weights import WeightScheme

RESIDUAL_REL_TOL = 1e-8
IRLS_RESIDUAL_FLOOR = 1e-6
IRLS_MAX_ITER = 50
IRLS_STEP_TOL = 1e-8


@dataclass(frozen=True)
class FeatureMap:
    """Deterministic covariate reduction x -> z used as the regression design.

    Kinds: identity, a coordinate subset, or per-coordinate polynomial powers.
    A constant-1 column is prepended unless intercept=False.
    """

    name: str
    kind: str
    indices: tuple[int, ...] = ()
    degree: int = 1
    intercept: bool = True

    @classmethod
    def identity(cls, intercept: bool = True) -> "FeatureMap":
        return cls(name="identity", kind="identity", intercept=intercept)

    @classmethod
    def subset(cls, indices: tuple[int, ...], intercept: bool = True) -> "FeatureMap":
        if len(indices) == 0 and not intercept:
            raise ValidationError("empty subset without intercept yields no features")
        return cls(
            name="subset:" + ",".join(str(i) for i in indices),
            kind="subset",
            indices=tuple(int(i) for i in indices),
            intercept=intercept,
        )

    @classmethod
    def polynomial(cls, degree: int, intercept: bool = True) -> "FeatureMap":
        if degree < 1:
            raise ValidationError(f"polynomial degree must be >= 1, got {degree}")
        return cls(name=f"poly:{degree}", kind="poly", degree=int(degree), intercept=intercept)

    @classmethod
    def parse(cls, spec: str) -> "FeatureMap":
        """Parse a CLI feature spec: identity | subset:<i,j,...> | poly:<deg>."""
        if spec == "identity":
            return cls.identity()
        if spec.startswith("subset:"):
            body = spec.split(":", 1)[1]
            try:
                indices = tuple(int(tok) for tok in body.split(",") if tok.strip() != "")
            except ValueError:
                raise ValidationError(f"bad subset indices in {spec!r}") from None
            return cls.subset(indices)
        if spec.startswith("poly:"):
            try:
                degree = int(spec.split(":", 1)[1])
            except ValueError:
                raise ValidationError(f"bad polynomial degree in {spec!r}") from None
            return cls.polynomial(degree)
        raise ValidationError(
            f"unknown feature map {spec!r}; expected identity, subset:<idx-list>, or poly:<deg>"
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "identity":
            cols = x
        elif self.kind == "subset":
            bad = [i for i in self.indices if not 0 <= i < x.shape[1]]
            if bad:
                raise ValidationError(f"subset indices {bad} outside 0..{x.shape[1] - 1}")
            cols = x[:, list(self.indices)]
        elif self.kind == "poly":
            cols = np.hstack([x**p for p in range(1, self.degree + 1)])
        else:
            raise ValidationError(f"unknown feature map kind {self.kind!r}")
        if self.intercept:
            cols = add_intercept(cols)
        if cols.shape[1] < 1:
            raise ValidationError("feature map must produce at least one column")
        if not np.all(np.isfinite(cols)):
            raise ValidationError("feature map produced non-finite values")
        return cols


@dataclass(frozen=True)
class RegressionFit:
    """Solved coefficient vector plus estimating-equation diagnostics.

    residual_norm is the infinity norm of the estimating equation at beta with
    the reported weights; it must not exceed residual_tol (= 1e-8 * rows used
    * max design-column magnitude).
    """

    beta: np.ndarray
    equation: str
    arm: int | None
    residual_norm: float
    residual_tol: float
    n_used: int
    iterations: int = 0
    converged: bool = True


def _solve_wls(z: np.ndarray, target: np.ndarray, sample_w: np.ndarray, context: str):
    """Solve sum_i w_i (target_i - beta ' z_i) z_i = 0 and report the residual.

    Weights are rescaled by their maximum first (the solution is invariant),
    so constant weights reduce to the literally identical unweighted system.
    """
    top = float(sample_w.max())
    if top <= 0:
        raise EstimationError(f"all regression weights are zero in {context}")
    sample_w = sample_w / top
    wz = z * sample_w[:, None]
    gram = wz.T @ z
    if np.linalg.matrix_rank(gram) < z.shape[1]:
        raise EstimationError(
            f"singular weighted design in {context} ({z.shape[0]} rows, "
            f"{z.shape[1]} features); use a smaller feature map or a ridge-"
            "regularized preprocessing"
        )
    beta = np.linalg.solve(gram, wz.T @ target)
    resid = wz.T @ (target - z @ beta)
    scale = max(1.0, float(np.abs(z).max()))
    tol = RESIDUAL_REL_TOL * z.shape[0] * scale
    return beta, float(np.abs(resid).max()), tol


def _arm_design(data: Dataset, nuis: NuisanceSet, arm: int, zmap: FeatureMap):
    """One arm's row indices and their design z, with at least as many rows as features."""
    if nuis.n != data.n or nuis.m != data.m:
        raise ValidationError("nuisance matrices do not conform to the dataset")
    rows = np.flatnonzero(data.actions == arm)
    z = zmap(data.covariates[rows])
    if rows.size < z.shape[1]:
        raise EstimationError(
            f"arm {arm} has {rows.size} rows, fewer than the {z.shape[1]} features"
        )
    return rows, z


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
    z = zmap(data.covariates)
    beta, norm, tol = _solve_wls(z, psi_col, w.weights, "best-fit regression")
    return RegressionFit(
        beta=beta, equation="best_fit", arm=None,
        residual_norm=norm, residual_tol=tol, n_used=data.n,
    )


def fit_on_arm_precision(
    data: Dataset,
    nuis: NuisanceSet,
    arm: int,
    zmap: FeatureMap,
    mode: str = "known_variance",
) -> RegressionFit:
    """Regression of the raw outcome on z over one arm's rows.

    Modes: known_variance weights each row by 1/var_hat(arm|x); ols drops the
    weight; irls refits with inverse squared-residual weights (floored at
    1e-6) until the coefficient step falls below 1e-8 or 50 iterations.
    """
    if mode not in ("known_variance", "ols", "irls"):
        raise ValidationError(f"mode must be known_variance, ols, or irls, got {mode!r}")
    if not 0 <= arm < data.m:
        raise ValidationError(f"arm {arm} outside {{0..{data.m - 1}}}")
    rows, z = _arm_design(data, nuis, arm, zmap)
    y = data.outcomes[rows]
    context = f"on-arm regression (arm {arm}, mode {mode})"
    # irls starts from the plain fit.
    sample_w = 1.0 / nuis.variance[rows, arm] if mode == "known_variance" else np.ones(rows.size)
    beta, norm, tol = _solve_wls(z, y, sample_w, context)
    iterations, converged = 0, mode != "irls"
    while not converged and iterations < IRLS_MAX_ITER:
        iterations += 1
        resid_sq = np.maximum((y - z @ beta) ** 2, IRLS_RESIDUAL_FLOOR)
        new_beta, norm, tol = _solve_wls(z, y, 1.0 / resid_sq, context)
        converged = float(np.abs(new_beta - beta).max()) < IRLS_STEP_TOL
        beta = new_beta
    if not converged:
        warnings.warn(
            f"IRLS did not converge within {IRLS_MAX_ITER} iterations for arm {arm}; "
            "returning the last iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    return RegressionFit(
        beta=beta, equation="on_arm_precision", arm=arm,
        residual_norm=norm, residual_tol=tol, n_used=rows.size,
        iterations=iterations, converged=converged,
    )


def fit_dv_overlap(
    data: Dataset, nuis: NuisanceSet, arm: int, zmap: FeatureMap
) -> RegressionFit:
    """Other-arm-propensity-weighted regression of the outcome on z over one
    arm's rows; consistent for the best linear fit of that arm's outcome on
    the population reweighted by the product of both propensities. Binary only.
    """
    if data.m != 2:
        raise ValidationError(f"overlap-weighted regression requires m=2, got m={data.m}")
    if not 0 <= arm < 2:
        raise ValidationError(f"arm {arm} outside {{0, 1}}")
    rows, z = _arm_design(data, nuis, arm, zmap)
    sample_w = nuis.propensity[rows, 1 - arm]
    beta, norm, tol = _solve_wls(z, data.outcomes[rows], sample_w, "overlap-weighted regression")
    return RegressionFit(
        beta=beta, equation="dv_overlap", arm=arm,
        residual_norm=norm, residual_tol=tol, n_used=rows.size,
    )


def fit_cate(
    data: Dataset, pseudo: PseudoOutcomes, w: WeightScheme, zmap: FeatureMap
) -> RegressionFit:
    """Weighted least squares of the effect score (arm 1 minus arm 0) on z."""
    if data.m != 2:
        raise ValidationError(f"effect regression requires m=2, got m={data.m}")
    if pseudo.n != data.n or w.n != data.n:
        raise ValidationError("pseudo-outcomes and weights must cover the dataset")
    target = effect_pseudo_outcome(pseudo)
    z = zmap(data.covariates)
    beta, norm, tol = _solve_wls(z, target, w.weights, "effect regression")
    return RegressionFit(
        beta=beta, equation="cate", arm=None,
        residual_norm=norm, residual_tol=tol, n_used=data.n,
    )
