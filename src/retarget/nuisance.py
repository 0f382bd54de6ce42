"""Nuisance models: propensity, per-arm outcome means, residual variances.

All models are linear/logistic in one design, [1, (x - c) / s], x's columns
centred and scaled by powers of two, so the fits do not depend on the
covariates' units. `cross_fit` produces out-of-fold predictions for every
observation; `load_oracle_nuisances` supplies known values in its place.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, FoldAssignment, _freeze, _input_file, _read_csv
from .errors import EstimationError, ValidationError

VARIANCE_FLOOR = 1e-12
_NEWTON_TOL = 1e-8
_NEWTON_MAX_ITER = 100
# Folds fit their propensity models as one stack while it has at most this
# many design entries (folds x training rows x columns); see _fold_groups.
# Two stacked folds against two separate fits (2 vCPUs, numpy 2.4 with
# OpenBLAS): 0.6-0.7x the time at 1,000-5,000 entries (simulate's folds are
# 2 x 250 x 2), 0.8-0.9x at 10,000-20,000, and 0.9-1.1x from 40,000 on
# (fit-csv's are 2 x 10,000 x 5), where the stack no longer fits in cache.
_STACK_MAX_ENTRIES = 20_000


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
    """op.reduce(a, axis=-1) for an (..., m) array, folded over its last axis
    from left to right: one ufunc call per column instead of numpy's per-row
    loop over a short axis, which was 10-60x slower at m = 2, n = 20,000
    (numpy 2.4 on 2 vCPUs). Written into `out`, an (...,) buffer, when given.

    The values match op.reduce bit for bit, signed zeros included (a NaN's
    sign and payload may differ). Like op.reduce, a sum starts from op's
    identity, so a row of -0.0 sums to +0.0.
    """
    m = a.shape[-1]
    if not 2 <= m < 8:
        # From 8 columns numpy reduces in unrolled blocks, whose order a left
        # fold does not reproduce.
        return op.reduce(a, axis=-1, out=out)
    first = a[..., 0] if op.identity is None else op(op.identity, a[..., 0], out=out)
    out = op(first, a[..., 1], out=out)
    for j in range(2, m):
        out = op(out, a[..., j], out=out)
    return out


def _mean(a: np.ndarray) -> np.float64:
    """np.mean(a) of a float64 array, bit for bit, without np.mean's Python
    wrapper: the same pairwise sum over every entry, divided by the count."""
    return np.add.reduce(a, axis=None) / a.size


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by each row's maximum so exp
    cannot overflow."""
    p = np.exp(scores - _rows(np.maximum, scores)[..., None])
    p /= _rows(np.add, p)[..., None]
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


def fit_propensity(z: np.ndarray, actions: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Multinomial logistic fits on a stack of designs z (F, n, p) with their
    actions (F, n): the (F, p, m) coefficients, last arm pinned to zero, and
    the (F,) flags of the fits whose damped Newton steps from zero met the
    gradient tolerance 1e-8 within 100 iterations. The slices step together,
    and each leaves the stack on the iteration where its gradient meets the
    tolerance, so a slice gets the bits of fitting it alone. A fit that
    reaches the cap, as one on separated arms does, returns its last iterate,
    with one RuntimeWarning per such fit.
    """
    for slice_actions in actions:
        counts = np.bincount(slice_actions, minlength=m)
        if (counts == 0).any():
            missing = int(np.argmax(counts == 0))
            raise EstimationError(f"arm {missing} absent from training data")
    size, n, p = z.shape
    k = m - 1  # free classes
    onehot = np.zeros((size, n, k))
    for j in range(k):
        onehot[..., j] = actions == j
    coef = np.empty((size, p, m))
    converged = np.zeros(size, dtype=bool)
    live = np.arange(size)  # the slices still stepping, and their arrays below
    c = np.zeros((size, p, m))
    for _ in range(_NEWTON_MAX_ITER):
        prob = _softmax(z @ c)
        grad = z.transpose(0, 2, 1) @ (onehot - prob[..., :k])  # (live, p, k)
        done = np.abs(grad).max(axis=(1, 2)) < _NEWTON_TOL
        if done.any():
            coef[live[done]] = c[done]
            converged[live[done]] = True
            keep = ~done
            live, z, onehot, c, prob, grad = (
                live[keep], z[keep], onehot[keep], c[keep], prob[keep], grad[keep])
            if not live.size:
                break
        zt = z.transpose(0, 2, 1)
        a = np.empty((live.size, k * p, k * p))  # the negated Hessians
        for j in range(k):
            for l in range(j, k):
                # p_j * (0 - p_l) is p_l * (0 - p_j) bit for bit: block (l, j) = (j, l).
                w = prob[..., j] * ((1.0 if j == l else 0.0) - prob[..., l])
                a[:, j * p:(j + 1) * p, l * p:(l + 1) * p] = block = (zt * w[:, None, :]) @ z
                if l > j:
                    a[:, l * p:(l + 1) * p, j * p:(j + 1) * p] = block
        # Small damping keeps the step solvable when classes separate.
        diag = a.reshape(live.size, -1)[:, :: k * p + 1]  # a view of the diagonals
        diag += (1e-10 * (1.0 + diag.sum(axis=1) / (k * p)))[:, None]
        rhs = grad.transpose(0, 2, 1).reshape(live.size, k * p, 1)
        c[..., :k] += np.linalg.solve(a, rhs).reshape(live.size, k, p).transpose(0, 2, 1)
    coef[live] = c
    for _ in range(live.size):
        warnings.warn(
            f"propensity Newton solver hit the {_NEWTON_MAX_ITER}-iteration cap without "
            "meeting the gradient tolerance; returning the last iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    return coef, converged


def _propensities(z: np.ndarray, coef: np.ndarray, clip: float) -> np.ndarray:
    """Arm probabilities on z, or on a stack of designs, clipped into [clip, 1-clip]
    and renormalized."""
    p = np.minimum(np.maximum(_softmax(z @ coef), clip), 1.0 - clip)
    return p / _rows(np.add, p)[..., None]


def fit_outcome_regression(designs: list[np.ndarray], outcomes: list[np.ndarray],
                           arms: list[int], ridge: float = 0.0) -> np.ndarray:
    """Least-squares fits of outcome vectors on their designs z, with an
    optional ridge penalty lambda * ||beta||^2 on all coefficients.

    The designs share one column count, and arms holds the arm numbers that
    name them in errors. The coefficients come back as the rows of one array,
    from one stacked rank check and one stacked solve, the bits of fitting
    each entry alone. A singular Gram matrix is reported for the first entry
    that has one, after every entry's products are formed; under
    np.errstate(over="raise"), an overflow in them is reported for its entry,
    as EstimationError.
    """
    if not 0 <= ridge < np.inf:
        raise ValidationError(f"ridge penalty must be finite and >= 0, got {ridge}")
    p = designs[0].shape[1]
    gram, rhs = np.empty((len(designs), p, p)), np.empty((len(designs), p))
    for i, (d, v) in enumerate(zip(designs, outcomes)):
        try:
            np.matmul(d.T, d, out=gram[i])
            if ridge > 0:
                gram[i] += ridge * np.eye(p)
            np.matmul(d.T, v, out=rhs[i])
        except FloatingPointError as exc:
            raise EstimationError(f"outcome regression of arm {arms[i]}: {exc}") from None
    if ridge == 0:
        low = np.linalg.matrix_rank(gram) < p
        if low.any():
            i = int(np.argmax(low))
            raise EstimationError(
                f"singular Gram matrix for arm {arms[i]} ({designs[i].shape[0]} rows, "
                f"{p} coefficients); pass ridge_lambda > 0"
            )
    return np.linalg.solve(gram, rhs[..., None])[..., 0]


def _residual_variance(sq_by_arm: list[np.ndarray], mode: str) -> np.ndarray:
    """Length-m mean squared residuals from each arm's squares, taken arm by
    arm (per_arm) or over all of them in arm order (pooled), floored at 1e-12."""
    if mode == "pooled":
        out = np.full(len(sq_by_arm), float(_mean(np.concatenate(sq_by_arm))))
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

    Each observation's predictions come from fits on the other folds' rows,
    so no row influences its own nuisances. Both models fit on one design,
    [1, (x - c) / s], built once per call (see _scaled_design): x * 2^k
    gives the same bits, and the ridge penalty, on every coefficient, is
    unit-free. Folds of one training size fit their propensity models as one
    stacked Newton solve (see `_fold_groups`), and each group's (fold, arm)
    outcome regressions one stacked solve, the bits of fitting fold by fold.

    When a group fails, the same body runs again one fold at a time, so the
    error names the first failing fold in fold order. Within a fold the
    stages run in order: the propensity model, the arm regressions (their
    products, rank checks and residuals, each pass in arm order), then the
    residual variance. An overflow raises EstimationError naming the fold
    and the stage.
    """
    if folds.n != data.n:
        raise ValidationError(f"fold assignment covers {folds.n} rows, dataset has {data.n}")
    if folds.n_folds != config.folds:
        raise ValidationError(
            f"fold assignment has {folds.n_folds} folds, nuisance config asks for {config.folds}"
        )
    n, m = data.n, data.m
    z = _scaled_design(data.covariates)[0]
    held = [folds.members(fold) for fold in range(folds.n_folds)]
    train = [folds.complement(fold) for fold in range(folds.n_folds)]
    out = np.empty((n, m)), np.empty((n, m)), np.empty((n, m))  # propensity, mean, variance
    with np.errstate(over="raise"):
        try:
            for group in _fold_groups(train, z.shape[1]):
                _fit_folds(z, data, group, held, train, config, out)
        except (ValidationError, EstimationError, np.linalg.LinAlgError):
            # Fitted one at a time, the folds raise the first error in their order.
            for fold in range(folds.n_folds):
                _fit_folds(z, data, [fold], held, train, config, out)
    prop, mu, var = out
    return NuisanceSet(
        propensity=prop,
        outcome_mean=mu,
        variance=var,
        provenance=f"fitted(K={folds.n_folds})",
    )


def _scaled_design(x: np.ndarray):
    """The design [1, (x - c) / s] of the nuisance models, the d>=2 policy
    search and fit's regressions, with its column shifts c and scales s:
    each column moved by its midrange c and divided by s, the power of two
    above its half-range (1 for a constant column, and at most 2^1023). The
    halved midrange cannot overflow and leaves a constant column exactly 0,
    and dividing by a power of two rounds nothing, so x * 2^k gives the same
    design bit for bit. It is built column by column in F order, since numpy
    reduces and broadcasts over a C-ordered x's short rows one row at a time
    (5x slower at 20,000 x 4); the nuisance fits gather its rows (C order)."""
    z = np.empty((x.shape[0], x.shape[1] + 1), order="F")
    z[:, 0] = 1.0
    shift, scale = np.empty(x.shape[1]), np.empty(x.shape[1])
    for j, col in enumerate(x.T):
        low, high = col.min(), col.max()
        shift[j] = low / 2 + high / 2
        scale[j] = np.ldexp(1.0, min(np.frexp(high / 2 - low / 2)[1], 1023))
        np.subtract(col, shift[j], out=z[:, j + 1])
        z[:, j + 1] /= scale[j]
    return z, shift, scale


def _fold_groups(train: list[np.ndarray], p: int) -> list[list[int]]:
    """The folds, grouped for stacked propensity fits: folds of one training
    size go together while their stacked design has at most
    _STACK_MAX_ENTRIES entries, and one by one beyond that."""
    by_size: dict[int, list[int]] = {}
    for fold, rows in enumerate(train):
        by_size.setdefault(rows.size, []).append(fold)
    return [part for size, group in by_size.items()
            for part in ([group] if len(group) * size * p <= _STACK_MAX_ENTRIES
                         else [[fold] for fold in group])]


def _fit_folds(z, data, group, held, train, config, out) -> None:
    """The nuisances of a group of folds with one training size, and so one
    held-out size, written into out's rows: one stacked propensity fit, then
    one stacked solve for the group's (fold, arm) outcome regressions, both on
    z and its held-out rows. An error names the first fold, an overflow its stage."""
    prop, mu, var = out
    m = data.m
    stage = "propensity model"
    try:
        trains, helds = np.stack([train[f] for f in group]), np.stack([held[f] for f in group])
        z_held = z[helds]
        coefs = fit_propensity(z[trains], data.actions[trains], m)[0]
        prop[helds] = _propensities(z_held, coefs, config.propensity_clip)
        arm_rows = [rows[data.actions[rows] == arm] for rows in trains for arm in range(m)]
        designs = [z[rows] for rows in arm_rows]
        outcomes = [data.outcomes[rows] for rows in arm_rows]
        betas = fit_outcome_regression(designs, outcomes, list(range(m)) * len(group),
                                       ridge=config.ridge_lambda)
        for g, rows in enumerate(helds):
            resid = []
            for arm in range(m):
                stage, i = f"outcome regression of arm {arm}", g * m + arm
                resid.append(outcomes[i] - designs[i] @ betas[i])
                mu[rows, arm] = z_held[g] @ betas[i]
            stage = "residual variance"
            var[rows] = _residual_variance([r ** 2 for r in resid], config.variance_mode)
    except FloatingPointError as exc:
        raise EstimationError(f"fold {group[0]}: {stage}: {exc}") from None
    except (ValidationError, EstimationError) as exc:
        raise type(exc)(f"fold {group[0]}: {exc}") from exc


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


def _oracle_columns(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The (rows, arms) matrices of an oracle file's phi_0..phi_{m-1},
    mu_0..mu_{m-1} and, when present, var_0..var_{m-1} columns, read under
    the dataset file's rules for rows and cells; other columns are not read.
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

    cols = _read_csv(path, columns)
    phi, mu, var = ([cols[c] for c in group] for group in groups)
    return np.column_stack(phi), np.column_stack(mu), np.column_stack(var) if var else None


def load_oracle_nuisances(path: str, data: Dataset, variance_mode: str) -> NuisanceSet:
    """Known nuisances for `data`, used in place of cross-fitting, from a CSV
    file read by _oracle_columns: unclipped, with variances floored at 1e-12,
    or constant ones from the outcome means' residuals (see _residual_variance)
    when the file has no var_* columns. A ValidationError names the file.
    """
    with _input_file(path):
        prop, mu, var = _oracle_columns(path)
        if prop.shape != (data.n, data.m):
            rows, arms = prop.shape
            have, want = f"{rows} rows", f"{data.n}"
            if arms != data.m:
                have, want = f"{rows} rows and {arms} arms", f"{data.n} rows and {data.m} arms"
            raise ValidationError(f"oracle nuisances have {have}, the dataset {want}")
        if var is not None:
            var = np.maximum(var, VARIANCE_FLOOR)
        else:
            with np.errstate(over="ignore"):  # with finite means, an infinite variance is an overflow
                resid = data.outcomes - mu[np.arange(data.n), data.actions]
                sq_by_arm = [resid[data.actions == arm] ** 2 for arm in range(data.m)]
            var = np.tile(_residual_variance(sq_by_arm, variance_mode), (data.n, 1))
            if not np.isfinite(var[0]).all() and np.isfinite(mu).all():
                raise ValidationError("variances derived from the outcome means' residuals are not finite")
        return NuisanceSet(propensity=prop, outcome_mean=mu, variance=var, provenance="oracle")
