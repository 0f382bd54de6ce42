"""Nuisance models: propensity, per-arm outcome means, residual variances.

All models are linear/logistic in [1, x]. `cross_fit` produces out-of-fold
predictions for every observation; `OracleNuisances` supplies known values
in its place.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, FoldAssignment, _freeze, _input_file, _read_csv
from .errors import EstimationError, ValidationError

VARIANCE_FLOOR = 1e-12
_NEWTON_TOL = 1e-8
_NEWTON_MAX_ITER = 100


def add_intercept(x: np.ndarray, degree: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """The design [1, x, x^2, ..., x^degree], one block of d columns per power
    computed as x**p computes it, written into `out` when given. A new design
    takes np.hstack's layout, F-ordered when x's rows are closer in memory than
    its columns (x[:, [2, 0]]): a BLAS product's bits depend on it."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    if out is None:
        f_order = d > 1 and abs(x.strides[0]) < abs(x.strides[1])
        out = np.empty((n, 1 + d * degree), order="F" if f_order else "C")
    out[:, 0] = 1.0
    np.copyto(out[:, 1 : 1 + d], x)
    for p in range(2, degree + 1):
        block = out[:, 1 + (p - 1) * d : 1 + p * d]
        if p == 2:
            np.square(x, out=block)
        else:
            np.power(x, p, out=block)
    return out


def _rows(op: np.ufunc, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """op.reduce(a, axis=1) for an (n, m) array, folded over its columns from
    left to right: one ufunc call per column instead of numpy's per-row loop
    over a short axis, which was 10-60x slower at m = 2, n = 20,000 (numpy
    2.4 on 2 vCPUs). Written into `out`, an (n,) buffer, when given.

    The values match op.reduce bit for bit, signed zeros included (a NaN's
    sign and payload may differ). Like op.reduce, a sum starts from op's
    identity, so a row of -0.0 sums to +0.0.
    """
    m = a.shape[1]
    if not 2 <= m < 8:
        # From 8 columns numpy reduces in unrolled blocks, whose order a left
        # fold does not reproduce.
        return op.reduce(a, axis=1, out=out)
    first = a[:, 0] if op.identity is None else op(op.identity, a[:, 0], out=out)
    out = op(first, a[:, 1], out=out)
    for j in range(2, m):
        out = op(out, a[:, j], out=out)
    return out


def _mean(a: np.ndarray) -> np.float64:
    """np.mean(a) of a float64 array, bit for bit, without np.mean's Python
    wrapper: the same pairwise sum over every entry, divided by the count."""
    return np.add.reduce(a, axis=None) / a.size


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's maximum so exp cannot overflow."""
    p = np.exp(scores - _rows(np.maximum, scores)[:, None])
    p /= _rows(np.add, p)[:, None]
    return p


@dataclass(frozen=True)
class NuisanceSet:
    """Per-observation, per-arm nuisance predictions.

    propensity rows are probability vectors (sum to 1 within 1e-9, entries in
    (0,1)); variance entries are nonnegative.
    """

    propensity: np.ndarray    # (n, m)
    outcome_mean: np.ndarray  # (n, m)
    variance: np.ndarray      # (n, m)
    provenance: str

    def __post_init__(self):
        p = np.asarray(self.propensity, dtype=float)
        mu = np.asarray(self.outcome_mean, dtype=float)
        v = np.asarray(self.variance, dtype=float)
        if p.ndim != 2 or p.shape != mu.shape or p.shape != v.shape:
            raise ValidationError(
                f"nuisance matrices must share an (n, m) shape, got "
                f"{p.shape}, {mu.shape}, {v.shape}"
            )
        if not (np.isfinite(p).all() and np.isfinite(mu).all() and np.isfinite(v).all()):
            raise ValidationError("nuisance matrices must be finite")
        if not ((p > 0.0) & (p < 1.0)).all():
            raise ValidationError("propensity entries must lie strictly inside (0, 1)")
        row_sums = _rows(np.add, p)
        if np.abs(row_sums - 1.0).max() > 1e-9:
            bad = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValidationError(f"propensity row {bad} sums to {float(row_sums[bad])!r}, not 1")
        if (v < 0.0).any():
            raise ValidationError("variance entries must be nonnegative")
        _freeze(self, propensity=p, outcome_mean=mu, variance=v)

    @property
    def n(self) -> int:
        return self.propensity.shape[0]

    @property
    def m(self) -> int:
        return self.propensity.shape[1]


@dataclass(frozen=True)
class OracleNuisances:
    """Known nuisance values supplied externally, used in place of cross-fitting."""

    propensity: np.ndarray
    outcome_mean: np.ndarray
    variance: np.ndarray | None = None

    def nuisance_set(self, data: Dataset, variance_mode: str) -> NuisanceSet:
        """The supplied values for `data`, unclipped, with variances floored at
        1e-12, or constant ones from the outcome means' residuals if absent."""
        prop = np.asarray(self.propensity, dtype=float)
        mu = np.asarray(self.outcome_mean, dtype=float)
        expected = (data.n, data.m)
        if prop.shape != expected or mu.shape != expected:
            if prop.ndim != 2 or prop.shape != mu.shape:
                raise ValidationError(
                    f"oracle matrices must have shape {expected}, got {prop.shape} and {mu.shape}"
                )
            rows, arms = prop.shape
            have, want = f"{rows} rows", f"{data.n}"
            if arms != data.m:
                have, want = f"{rows} rows and {arms} arms", f"{data.n} rows and {data.m} arms"
            raise ValidationError(f"oracle nuisances have {have}, the dataset {want}")
        if self.variance is not None:
            var = np.asarray(self.variance, dtype=float)
            if var.shape != expected:
                raise ValidationError(f"oracle variance must have shape {expected}, got {var.shape}")
            var = np.maximum(var, VARIANCE_FLOOR)
        else:
            resid = data.outcomes - mu[np.arange(data.n), data.actions]
            var = np.tile(_residual_variance(resid, data.actions, data.m, variance_mode),
                          (data.n, 1))
        return NuisanceSet(propensity=prop, outcome_mean=mu, variance=var, provenance="oracle")


@dataclass(frozen=True)
class NuisanceConfig:
    folds: int = 2
    ridge_lambda: float = 0.0
    propensity_clip: float = 0.01
    variance_mode: str = "pooled"  # "pooled" or "per_arm"

    def __post_init__(self):
        if self.variance_mode not in ("pooled", "per_arm"):
            raise ValidationError(
                f"variance_mode must be 'pooled' or 'per_arm', got {self.variance_mode!r}"
            )
        if not 0.0 < self.propensity_clip < 0.5:
            raise ValidationError(f"propensity_clip must be in (0, 0.5), got {self.propensity_clip}")
        if self.ridge_lambda < 0.0:
            raise ValidationError(f"ridge_lambda must be >= 0, got {self.ridge_lambda}")
        if not np.isfinite(self.ridge_lambda):
            raise ValidationError(f"ridge_lambda must be finite, got {self.ridge_lambda}")


def fit_propensity(z: np.ndarray, actions: np.ndarray, m: int) -> tuple[np.ndarray, bool]:
    """Multinomial logistic coefficients (d+1, m) on z = [1, x], last arm pinned
    to zero, and whether Newton steps on the log-likelihood met the gradient
    tolerance 1e-8 within 100 iterations (else the last iterate, flagged)."""
    counts = np.bincount(actions, minlength=m)
    if (counts == 0).any():
        missing = int(np.argmax(counts == 0))
        raise EstimationError(f"arm {missing} absent from training data")
    n, p = z.shape
    k = m - 1  # free classes
    onehot = np.zeros((n, k))
    for j in range(k):
        onehot[:, j] = actions == j

    coef = np.zeros((p, m))
    zt = z.T
    a = np.empty((k * p, k * p))  # the negated Hessian, refilled every step
    diag = a.reshape(-1)[:: k * p + 1]  # a view of its diagonal
    converged = False
    for _ in range(_NEWTON_MAX_ITER):
        prob = _softmax(z @ coef)
        grad = zt @ (onehot - prob[:, :k])  # (p, k)
        if np.abs(grad).max() < _NEWTON_TOL:
            converged = True
            break
        for j in range(k):
            for l in range(j, k):
                # p_j * (0 - p_l) is p_l * (0 - p_j) bit for bit: block (l, j) = (j, l).
                w = prob[:, j] * ((1.0 if j == l else 0.0) - prob[:, l])
                a[j * p:(j + 1) * p, l * p:(l + 1) * p] = block = (zt * w) @ z
                if l > j:
                    a[l * p:(l + 1) * p, j * p:(j + 1) * p] = block
        # Small damping keeps the step solvable when classes separate.
        diag += 1e-10 * (1.0 + a.trace() / a.shape[0])
        step = np.linalg.solve(a, grad.T.ravel()).reshape(k, p).T
        coef[:, :k] += step
    if not converged:
        warnings.warn(
            f"propensity Newton solver hit the {_NEWTON_MAX_ITER}-iteration cap without "
            "meeting the gradient tolerance; returning the last iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    return coef, converged


def _propensities(z: np.ndarray, coef: np.ndarray, clip: float) -> np.ndarray:
    """Arm probabilities on z, clipped into [clip, 1-clip] and renormalized."""
    p = np.minimum(np.maximum(_softmax(z @ coef), clip), 1.0 - clip)
    return p / _rows(np.add, p)[:, None]


def fit_outcome_regression(z: np.ndarray, y: np.ndarray, arm: int, ridge: float = 0.0) -> np.ndarray:
    """Least-squares fit of one arm's outcomes y on its rows z = [1, x], with
    an optional ridge penalty lambda * ||beta||^2 on all coefficients.
    """
    if not 0 <= ridge < np.inf:
        raise ValidationError(f"ridge penalty must be finite and >= 0, got {ridge}")
    gram = z.T @ z
    if ridge > 0:
        gram = gram + ridge * np.eye(z.shape[1])
    elif np.linalg.matrix_rank(gram) < z.shape[1]:
        raise EstimationError(
            f"singular Gram matrix for arm {arm} ({z.shape[0]} rows, "
            f"{z.shape[1]} coefficients); pass ridge_lambda > 0"
        )
    return np.linalg.solve(gram, z.T @ y)


def _residual_variance(resid: np.ndarray, actions: np.ndarray, m: int, mode: str) -> np.ndarray:
    """Length-m mean squared residuals, taken arm by arm (per_arm) or over all
    rows grouped by arm (pooled), floored at 1e-12."""
    sq_by_arm = [resid[actions == arm] ** 2 for arm in range(m)]
    if mode == "pooled":
        out = np.full(m, float(_mean(np.concatenate(sq_by_arm))))
    elif mode == "per_arm":
        for arm, sq in enumerate(sq_by_arm):
            if sq.size == 0:
                raise EstimationError(f"arm {arm} has no observations for variance estimation")
        out = np.array([float(_mean(sq)) for sq in sq_by_arm])
    else:
        raise ValidationError(f"variance mode must be 'pooled' or 'per_arm', got {mode!r}")
    return np.maximum(out, VARIANCE_FLOOR)


def cross_fit(data: Dataset, folds: FoldAssignment, config: NuisanceConfig = NuisanceConfig()) -> NuisanceSet:
    """Out-of-fold nuisance predictions for every observation.

    Each observation's predictions come from fits on the other folds' rows of
    one [1, x] design, so no row influences its own nuisances. An overflow in
    a fold's fits raises EstimationError naming the fold and the stage.
    """
    if folds.n != data.n:
        raise ValidationError(f"fold assignment covers {folds.n} rows, dataset has {data.n}")
    if folds.n_folds != config.folds:
        raise ValidationError(
            f"fold assignment has {folds.n_folds} folds, nuisance config asks for {config.folds}"
        )
    n, m = data.n, data.m
    z = add_intercept(data.covariates)
    prop = np.empty((n, m))
    mu = np.empty((n, m))
    var = np.empty((n, m))
    with np.errstate(over="raise"):
        for fold in range(folds.n_folds):
            held_out = folds.members(fold)
            train = folds.complement(fold)
            z_train, a_train, y_train = z[train], data.actions[train], data.outcomes[train]
            z_out = z[held_out]
            stage = "propensity model"
            try:
                coef, _ = fit_propensity(z_train, a_train, m)
                prop[held_out] = _propensities(z_out, coef, config.propensity_clip)
                resid = np.empty(train.size)
                for arm in range(m):
                    stage = f"outcome regression of arm {arm}"
                    rows = a_train == arm
                    z_arm, y_arm = z_train[rows], y_train[rows]
                    beta = fit_outcome_regression(z_arm, y_arm, arm, ridge=config.ridge_lambda)
                    resid[rows] = y_arm - z_arm @ beta
                    mu[held_out, arm] = z_out @ beta
                stage = "residual variance"
                var[held_out] = _residual_variance(resid, a_train, m, config.variance_mode)
            except FloatingPointError as exc:
                raise EstimationError(f"fold {fold}: {stage}: {exc}") from None
            except (ValidationError, EstimationError) as exc:
                raise type(exc)(f"fold {fold}: {exc}") from exc
    return NuisanceSet(
        propensity=prop,
        outcome_mean=mu,
        variance=var,
        provenance=f"fitted(K={folds.n_folds})",
    )


def _arm_columns(header: list[str], prefix: str) -> list[str]:
    """The header's columns named prefix + <arm number>, in arm order. The
    arm numbers must be 0..k-1 for a group of k columns, each once."""
    cols = [h for h in header if h.startswith(prefix)]
    arms = []
    for name in cols:
        try:
            arms.append(int(name[len(prefix):]))
        except ValueError:
            raise ValidationError(f"column {name!r} is not {prefix}<arm number>") from None
    if sorted(arms) != list(range(len(arms))):
        raise ValidationError(
            f"{prefix}* columns must number the arms 0..{len(arms) - 1} once each, "
            f"got {cols}"
        )
    return sorted(cols, key=lambda name: int(name[len(prefix):]))


def load_oracle_nuisances(path: str) -> OracleNuisances:
    """Read oracle nuisances from CSV with columns phi_0..phi_{m-1},
    mu_0..mu_{m-1}, and optionally var_0..var_{m-1}, under the dataset
    file's rules for rows and cells; other columns are not read.
    """
    groups = []

    def columns(header: list[str]) -> list[str]:
        groups.extend(_arm_columns(header, prefix) for prefix in ("phi_", "mu_", "var_"))
        phi_cols, mu_cols, var_cols = groups
        if not phi_cols or len(phi_cols) != len(mu_cols):
            raise ValidationError(f"need matching phi_*/mu_* column groups, got {header}")
        if var_cols and len(var_cols) != len(phi_cols):
            raise ValidationError("var_* columns must match phi_* count")
        return phi_cols + mu_cols + var_cols

    with _input_file(path):
        cols = _read_csv(path, columns)
    phi, mu, var = ([cols[c] for c in group] for group in groups)
    return OracleNuisances(
        propensity=np.column_stack(phi),
        outcome_mean=np.column_stack(mu),
        variance=np.column_stack(var) if var else None,
    )
