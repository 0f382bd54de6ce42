"""Policy search over weighted doubly robust values, plus regret evaluation.

Policies map covariates to actions. Finite classes are scored exhaustively;
the linear-threshold class exactly (for d=1 by an O(n log n) sweep over
sorted covariate values at any n, for d>=2 by a recursive search over the
cells of the rows' hyperplane arrangement while its ~n^(d+1) work stays
within EXACT_MAX_WORK) and by a seeded multi-start heuristic beyond that or
when the optimum cannot be realized.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .data import Dataset, _check_binary, _freeze, _input_file
from .errors import EstimationError, ValidationError
from .nuisance import _mean, _rows, _scaled_design, add_intercept
from .pseudo import PseudoOutcomes, effect_pseudo_outcome
from .weights import WeightScheme

EXACT_MAX_WORK = 500 ** 3  # n^(d+1) at d=2, n=500: about 1 s on 2 vCPUs
_BOUNDARY_TOL = 1e-12
# A margin or singular value below this share of its tolerance is rounding
# noise (on grid and duplicated covariates it stays below 1e-3); between the
# two, rows inside the band lie off the hyperplane and the search cannot
# certify its optimum.
_NOISE_SHARE = 1e-2
_RAYS_PER_BATCH = 512
# The heuristic: random starts besides the two constants, coordinate passes
# per start, and breakpoints scanned per coordinate.
_APPROX_STARTS = 32
_APPROX_MAX_PASSES = 20
_REFINE_MAX_GRID = 201
_LARGEST = np.finfo(float).max


@dataclass(frozen=True)
class ConstantPolicy:
    """Always plays one action."""

    action: int

    def __post_init__(self):
        a = self.action
        if isinstance(a, bool) or not isinstance(a, (int, np.integer)) or a < 0:
            raise ValidationError(f"constant action must be a nonnegative integer, got {a!r}")

    def act(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return np.full(x.shape[0], self.action, dtype=int)


@dataclass(frozen=True)
class LinearPolicy:
    """Binary threshold rule: action 1 when theta @ [1, x] > 0, else 0."""

    theta: np.ndarray  # (d+1,)

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        if t.ndim != 1 or t.size < 2 or not np.isfinite(t).all():
            raise ValidationError(f"theta must be a finite vector of length d+1, got {t!r}")
        _freeze(self, theta=t)

    def act(self, x: np.ndarray) -> np.ndarray:
        """Actions for the rows of x.

        One covariate column takes x[:, 0] * theta[1], a plain product: numpy
        runs an (n, 1) @ (1,) matmul through its non-BLAS loop, ~5x slower at
        n = 20,000, and a one-term sum has the product's sign, so the actions
        are the same (only the sign of a zero margin can differ). np.dot
        would call BLAS gemv instead, which OpenBLAS splits over its threads
        on long inputs: ~24 us against the product's ~12 us at n = 20,000
        (~15 us with one BLAS thread; numpy 2.4, 2 vCPUs).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.theta.size - 1:
            raise ValidationError(
                f"policy expects {self.theta.size - 1} covariates, got {x.shape[1]}"
            )
        if x.shape[1] == 1:
            margin = self.theta[0] + x[:, 0] * self.theta[1]
        else:
            margin = self.theta[0] + x @ self.theta[1:]
        return (margin > 0).astype(int)


Policy = ConstantPolicy | LinearPolicy


@dataclass(frozen=True)
class PolicyClass:
    """Finite searchable policy set: a nonempty tuple of policies."""

    policies: tuple

    def __post_init__(self):
        if not self.policies:
            raise ValidationError("finite policy class must be nonempty")


@dataclass(frozen=True)
class LearnResult:
    best: Policy
    best_value: float
    second_best_value: float | None = None
    value_gap: float | None = None
    tied: bool = False
    exact: bool = True
    best_index: int | None = None
    values: np.ndarray | None = None


def _scored(w: WeightScheme, pseudo: PseudoOutcomes, data: Dataset) -> np.ndarray:
    """Weighted scores in arm-major order: entry a * n + i is psi_i(a) * w_i."""
    if w.n != data.n or pseudo.n != data.n:
        raise ValidationError("weights and pseudo-outcomes must cover the dataset")
    return np.multiply(pseudo.values.T, w.weights, out=np.empty((pseudo.m, data.n))).ravel()


def _check_bounded(scored: np.ndarray) -> None:
    """Reject weighted scores whose absolute sum overflows: that sum bounds
    every sum a policy value takes."""
    with np.errstate(over="ignore"):
        if not np.isfinite(np.abs(scored).sum()):
            raise ValidationError("weighted scores too large: a policy value overflows")


def _at_actions(pi: Policy, x: np.ndarray, table: np.ndarray, m: int, rows: np.ndarray,
                out: np.ndarray | None) -> np.ndarray:
    """Row i's entry of a flat arm-major table at the action the policy takes
    on x_i: entry pi(x_i) * n + i, for the row numbers rows = 0..n-1. The
    actions must have shape (n,) and lie in 0..m-1. The indices go to out, an
    (n,) intp buffer, or to a new array when out is None."""
    actions = np.asarray(pi.act(x))
    if actions.shape != rows.shape:
        raise ValidationError(f"policy returned shape {actions.shape}, expected ({rows.size},)")
    # One pass checks both ends (read as unsigned, a negative action exceeds
    # any m); a non-integer action fails the safe cast; an empty sample passes.
    if actions.astype(np.intp, casting="safe", copy=False).view(np.uintp).max(initial=0) >= m:
        raise ValidationError("policy returned an action outside {0..m-1}")
    idx = np.multiply(actions, rows.size, out=out)
    idx += rows
    return table.take(idx)


def weighted_value(pi: Policy, w: WeightScheme, pseudo: PseudoOutcomes, data: Dataset) -> float:
    """Weighted sample mean of the score column the policy selects per row,
    mean_i w_i * psi_i(pi(x_i)): the one-policy case of learn_finite's scoring,
    so both give the same bits for the same policy.
    """
    scored, rows = _scored(w, pseudo, data), np.arange(data.n)
    return float(_mean(_at_actions(pi, data.covariates, scored, data.m, rows, None)))


def learn_finite(
    policy_class: PolicyClass, w: WeightScheme, pseudo: PseudoOutcomes, data: Dataset
) -> LearnResult:
    """Exhaustively score a finite class; ties go to the lowest index.

    Every policy is scored as in weighted_value, from one vector of weighted
    scores built once per call: a policy's value is the mean of that vector
    taken at its actions. The value gap is the best value minus the best value
    among policies strictly outside the argmax set; it is 0 (and flagged tied)
    when every policy attains the maximum. Scores whose absolute sum
    overflows are rejected, as in the linear search.
    """
    scored, rows = _scored(w, pseudo, data), np.arange(data.n)
    _check_bounded(scored)
    values = np.array([_mean(_at_actions(pi, data.covariates, scored, data.m, rows, None))
                       for pi in policy_class.policies])
    best_idx = int(np.argmax(values))
    best_value = float(values[best_idx])
    at_max = values == best_value
    tied = int(at_max.sum()) > 1
    outside = values[~at_max]
    gap = float(best_value - outside.max()) if outside.size else 0.0
    if values.size >= 2:
        second = float(np.partition(values, -2)[-2])
    else:
        second = None
    return LearnResult(
        best=policy_class.policies[best_idx],
        best_value=best_value,
        second_best_value=second,
        value_gap=gap,
        tied=tied,
        exact=True,
        best_index=best_idx,
        values=values,
    )


def _check_linear(data: Dataset) -> None:
    """Reject data a linear threshold policy cannot be searched on: an arm
    count other than 2, then a file without covariates."""
    _check_binary(data.m, "linear policy search")
    if data.d < 1:
        raise ValidationError("linear policy search needs at least one covariate")


def _gains(schemes: Sequence[WeightScheme], pseudo: PseudoOutcomes, data: Dataset):
    """Per-row contributions so any 0/1 labeling's value is base + labels . gain:
    for S weight schemes, (S,) bases and (S, n) gains from one build of the
    effect scores, and the error that S separate searches raise first."""
    if not schemes:
        raise ValidationError("need at least one weight scheme")
    if pseudo.n != data.n or any(scheme.n != data.n for scheme in schemes):
        raise ValidationError("weights and pseudo-outcomes must cover the dataset")
    stack = np.array([scheme.weights for scheme in schemes])  # (S, n)
    # The exact sum runs only where its bound, max|psi| * max w * size, may
    # overflow: below 1e300 no sum of rounded products w_i * |psi_i(a)| can.
    largest = float(np.abs(pseudo.values).max())
    risky = [largest * top * pseudo.values.size >= 1e300 for top in stack.max(axis=1).tolist()]
    if risky[0]:
        _check_bounded(pseudo.values * stack[0][:, None])  # also bounds weighted_value's sums
    effect = effect_pseudo_outcome(pseudo)  # checked where the first search checks it
    for s in np.flatnonzero(risky[1:]) + 1:
        _check_bounded(pseudo.values * stack[s][:, None])
    base = np.add.reduce(stack * pseudo.values[:, 0], axis=1) / data.n  # each row's _mean
    return base, stack * effect / data.n


def _unit(theta: np.ndarray) -> np.ndarray:
    # np.linalg.norm's own arithmetic for a real vector, without its wrapper.
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(theta.dot(theta)))
    if norm == np.inf:  # entries beyond ~1e154: scale by the largest first
        theta = theta / np.abs(theta).max()
        norm = float(np.sqrt(theta.dot(theta)))
    if norm == 0:
        raise EstimationError("degenerate zero policy parameter")
    return theta / norm


def _sweep_1d(data: Dataset):
    """The weight-free part of the d=1 search: the stable order of x, the
    starts of its groups of equal values, the cuts, and the number of groups
    at or below each cut."""
    order = np.argsort(data.covariates[:, 0], kind="stable")
    xs = data.covariates[order, 0]
    starts = np.flatnonzero(np.concatenate([[True], xs[1:] != xs[:-1]]))
    distinct = xs[starts]
    lo, hi = distinct[:-1], distinct[1:]
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    # A midpoint that rounds up onto hi (two adjacent floats) or overflows
    # would lose the split between lo and hi; lo itself keeps it.
    cuts = np.concatenate([[distinct[0] - 1.0], np.where((lo <= mid) & (mid < hi), mid, lo),
                           [distinct[-1] + 1.0]])
    # Located from the cut itself: lo, a midpoint rounded onto it, or min - 1
    # at large |min| lands on a value.
    below = np.searchsorted(distinct, cuts, side="right")
    return order, starts, cuts, below


def _learn_threshold_1d(data, base, gain):
    """Exact d=1 search in O(n log n): for (S,) bases and (S, n) gains, the
    list of the S rows' policies.

    Candidates, in tie-break order: the two constants, the upper rules
    x > c, then the lower rules x <= c, at cuts c running over min - 1, the
    midpoints between consecutive distinct values (the lower value where the
    midpoint rounds onto the upper one or overflows), and max + 1. Their values
    come from one prefix sum of the gains summed over groups of equal x, one
    (S, .) array for all rows; a theta is built, and checked at the two
    distinct values next to its cut, only for candidates tied at a row's maximum.
    """
    order, starts, cuts, below = _sweep_1d(data)
    x = data.covariates[:, 0]
    distinct = x[order[starts]]
    gains = gain.take(order, axis=1)
    if starts.size < x.size:  # else every group holds one row, its own sum
        gains = np.add.reduceat(gains, starts, axis=1)
    prefix = np.zeros((gains.shape[0], starts.size + 1))
    np.cumsum(gains, axis=1, out=prefix[:, 1:])
    at_cut = prefix.take(below, axis=1)  # the gain of the rows with x <= c
    values = np.empty((gains.shape[0], 2 + 2 * cuts.size))
    values[:, 0] = prefix[:, -1]
    values[:, 1] = 0.0
    np.subtract(prefix[:, -1:], at_cut, out=values[:, 2 : 2 + cuts.size])
    values[:, 2 + cuts.size :] = at_cut
    values += base[:, None]
    return [_tied_threshold(distinct, cuts, below, row) for row in values]


def _tied_threshold(distinct, cuts, below, values) -> LinearPolicy:
    """The tie pass of the d=1 search over one row of candidate values."""
    best_value = float(values.max())
    keys = []  # (lost, theta): unit-norm thetas first, then the smallest
    for r in np.flatnonzero(values == best_value).tolist():
        if r < 2:  # a constant: [+-1, 0] labels every row alike
            keys.append((False, tuple(_unit(np.array([1.0 - 2.0 * r, 0.0])))))
            continue
        j = (r - 2) % cuts.size
        c, k = float(cuts[j]), int(below[j])  # k distinct values lie at or below c
        upper = r - 2 < cuts.size
        if upper:
            theta = np.array([-c, 1.0])
        elif c == _LARGEST:  # every row lies at or below c, as [1, -0.] labels them
            theta = np.array([1.0, -0.0])
        else:  # c - x > 0 misses the rows at x == c; no float lies between c and the next one
            theta = np.array([np.nextafter(c, np.inf) if k and distinct[k - 1] == c else c, -1.0])
        # Every theta above realizes its labels: the cuts are finite, and a
        # difference of two floats, such as -c + x or c' - x, has the exact
        # sign of theirs in IEEE arithmetic (zero only when they are equal,
        # +-inf on overflow). At large |x| the unit vector can lose a cut that
        # theta realizes: such a theta is returned only when no tied unit-norm
        # theta realizes its labels. u0 + x * u1 is two monotone rounded steps
        # in x, so the unit vector keeps every row's label exactly when it
        # keeps those of the two values next to the cut.
        unit = _unit(theta)
        u0, u1 = unit.tolist()  # the value at or below c is labeled `not upper`, the next `upper`
        lost = (k > 0 and (u0 + distinct[k - 1] * u1 > 0) == upper) or (
            k < distinct.size and (u0 + distinct[k] * u1 > 0) != upper)
        keys.append((lost, tuple(theta if lost else unit)))
    # keys is never empty: _gains' checks leave every value finite, so one is the maximum.
    return LinearPolicy(theta=np.array(min(keys)[1]))


def _lift(z, v, sub, tight, labels) -> np.ndarray | None:
    """The unit theta = v + eps * sub whose margins on z are nonzero and positive
    exactly on labels, or None (v = 0 checks sub): eps exceeds the margins of v
    that sub overturns on the tight rows and stays below an off row's flip."""
    a, b = z @ v, z @ sub
    flip = a * b < 0
    with np.errstate(divide="ignore"):
        ratio = np.abs(a) / np.abs(b)
    lo = float(ratio[tight & flip].max(initial=0.0))
    hi = min(float(ratio[~tight & flip].min(initial=np.inf)), 1.0)
    if not lo < hi:
        return None
    theta = _unit(v + 0.5 * (lo + hi) * sub)
    margins = z @ theta
    return theta if (margins != 0).all() and ((margins > 0) == labels).all() else None


def _in_band(values: np.ndarray, tol: float) -> bool:
    """Whether some |value| <= tol is too large to be rounding noise."""
    size = np.abs(values)
    return bool(((size > _NOISE_SHARE * tol) & (size <= tol)).any())


def _best_cell(z: np.ndarray, gain: np.ndarray, tol: float, rank_tol: float):
    """Best gain sum over the labelings z @ theta > 0 that a theta realizes, as
    (value, unit theta, lost), lost being the best value of a candidate that
    could not be realized (-inf if none). lost is +inf when a row's margin lies
    within tol of a hyperplane, or a singular value within rank_tol of zero,
    by more than rounding noise: such rows may share a label they need not, so
    the optimum is not certified. Every cell of the rows' arrangement in
    span(z) touches a ray v where rank - 1 independent rows vanish: the
    rows off v's hyperplane take v's sign, the tight rows on it take their own
    best labeling one rank lower. Ties go to the first realized cell: +e0,
    -e0 (every row starts with 1), then rays of row subsets in lexicographic
    order, each both ways."""
    n, k = z.shape
    e0 = np.eye(k)[0]
    total = float(gain.sum())
    best_value, best_theta = (total, e0) if total >= 0 else (0.0, -e0)
    _, sv, vt = np.linalg.svd(z, full_matrices=False)
    lost = np.inf if _in_band(sv, rank_tol) else -np.inf
    rank = int(np.sum(sv > rank_tol))
    if rank == n:  # independent rows take any labeling through one solve
        labels = gain > 0
        value = float(gain[labels].sum())
        theta = _lift(z, np.zeros(k), np.linalg.pinv(z) @ np.where(labels, 1.0, -1.0), labels, labels)
        if value > best_value and theta is not None:
            best_value, best_theta = value, theta
        elif value > best_value:
            lost = max(lost, value)
    if rank in (1, n):  # rank 1: coincident rows, only the constants
        return best_value, best_theta, lost
    basis = vt[:rank]
    seen = set()
    subsets = combinations(range(n), rank - 1)
    for chunk in iter(lambda: list(islice(subsets, _RAYS_PER_BATCH)), []):
        _, s, null = np.linalg.svd(z[np.array(chunk)] @ basis.T)
        rays = null[s[:, -1] > rank_tol, -1] @ basis
        margins = z @ rays.T
        tight = np.abs(margins) <= tol
        # Search a hyperplane only if the gain off it plus every gain on it can win.
        reach = np.maximum(gain @ (margins > tol), gain @ (margins < -tol))
        reach += np.maximum(gain, 0.0) @ tight
        for j in np.flatnonzero(reach > best_value):
            on_plane = tight[:, j]
            if reach[j] <= best_value or on_plane.tobytes() in seen:
                continue
            seen.add(on_plane.tobytes())
            if _in_band(margins[on_plane, j], tol):
                lost = np.inf
            # Projected onto span(z), the tight rows' component along the ray is
            # at most tol * sqrt(n) < rank_tol, so the rank drops at every level.
            sub_z = z[on_plane] @ basis.T @ basis
            sub_value, sub_theta, sub_lost = _best_cell(sub_z, gain[on_plane], tol, rank_tol)
            for sign in (1.0, -1.0):
                labels = sign * margins[:, j] > tol
                head = float(gain[labels].sum())
                lost = max(lost, head + sub_lost)
                if head + sub_value <= best_value:
                    continue
                labels[on_plane] = sub_z @ sub_theta > 0
                theta = _lift(z, sign * rays[j], sub_theta, on_plane, labels)
                if theta is None:
                    lost = max(lost, head + sub_value)
                else:
                    best_value, best_theta = head + sub_value, theta
    return best_value, best_theta, lost


def _refine_coordinate(z, theta, j, base, gain):
    """Best value over theta_j with other coordinates fixed: piecewise constant
    in theta_j, so scan midpoints between (subsampled) sign-change breakpoints.
    Breakpoints and midpoints that overflow (|x| near 1e308) are skipped, so
    theta stays finite."""
    zj = z[:, j]
    with np.errstate(over="ignore", invalid="ignore"):
        rest = z @ theta - theta[j] * zj
        nonzero = np.abs(zj) > 1e-12
        breaks = np.unique(-rest[nonzero] / zj[nonzero])
        breaks = breaks[np.isfinite(breaks)]
        if breaks.size == 0:
            return theta, base + float(gain[rest > 0].sum())
        if breaks.size > _REFINE_MAX_GRID:
            take = np.linspace(0, breaks.size - 1, _REFINE_MAX_GRID).astype(int)
            breaks = breaks[take]
        mids = np.concatenate([[breaks[0] - 1.0], (breaks[:-1] + breaks[1:]) / 2.0,
                               [breaks[-1] + 1.0]])
        mids = mids[np.isfinite(mids)]
        labels = rest[None, :] + mids[:, None] * zj[None, :] > 0
    values = base + labels @ gain
    k = int(np.argmax(values))
    out = theta.copy()
    out[j] = mids[k]
    return out, float(values[k])


def _learn_linear_approx(z, base, gain, seed) -> LinearPolicy:
    k = z.shape[1]
    rng = np.random.default_rng(seed)
    starts = [np.array([1.0] + [0.0] * (k - 1)), np.array([-1.0] + [0.0] * (k - 1))]
    starts += [rng.standard_normal(k) for _ in range(_APPROX_STARTS)]
    keys = []  # (-value, theta): the best value, then the smallest unit theta
    for theta in starts:
        with np.errstate(over="ignore", invalid="ignore"):  # as in _refine_coordinate
            value = base + float(gain[z @ theta > 0].sum())
        for _ in range(_APPROX_MAX_PASSES):
            improved = False
            for j in range(k):
                theta, new_value = _refine_coordinate(z, theta, j, base, gain)
                if new_value > value + 1e-12:
                    value = new_value
                    improved = True
            if not improved:
                break
        keys.append((-value, tuple(_unit(theta))))
    return LinearPolicy(theta=np.array(min(keys)[1]))


def search_linear(
    schemes: Sequence[WeightScheme],
    pseudo: PseudoOutcomes,
    data: Dataset,
    seed: int = 0,
    force_approx: bool = False,
) -> list[tuple[LinearPolicy, bool]]:
    """For each weight scheme, the linear threshold policy (m=2) of largest
    weighted value, and whether the search certified it exact; learn_linear
    also values it. The pairs are the bits of searching each scheme alone.

    Exact at d=1 for any n, with ties to the lexicographically smallest
    unit-norm theta (or, when at large |x| every tied unit vector loses its
    cut, the smallest unscaled theta that keeps it); at d>=2 when
    n^(d+1) <= EXACT_MAX_WORK (n <= 500 at d=2, 105 at d=3, 41 at d=4), with
    ties to the first realized cell of `_best_cell` on the nuisance models'
    design [1, (x - c) / s] (rows within 1e-12 of a hyperplane count as on
    it; when such a row lies off it by more than rounding noise, or the
    theta mapped back to [1, x], which is not unit-norm, changes a label
    there, that cell's theta returns flagged exact=False). Otherwise, or when
    the d>=2 optimum cannot be realized numerically, a seeded multi-start
    coordinate search on [1, x] runs instead, flagged exact=False.

    The gains, and at d=1 the prefix sums over the one sweep of x the call
    builds, are computed as one (schemes, n) array; only the tie pass, and at
    d>=2 the search, run per scheme.
    """
    _check_linear(data)
    base, gain = _gains(schemes, pseudo, data)
    if data.d == 1 and not force_approx:
        return [(policy, True) for policy in _learn_threshold_1d(data, base, gain)]
    z = add_intercept(data.covariates)
    exact = not force_approx and data.n ** (data.d + 1) <= EXACT_MAX_WORK
    scaled = _scaled_design(data.covariates) if exact else None
    return [_search_design(z, scaled, b, g, seed) for b, g in zip(base.tolist(), gain)]


def _search_design(z, scaled, base, gain, seed) -> tuple[LinearPolicy, bool]:
    """search_linear's d>=2 search for one scheme's gains: the cell search on
    the scaled design when one is given, else (or when a better labeling was
    not realized) the heuristic on z = [1, x]."""
    if scaled is not None:
        zs, shift, scale = scaled
        rank_tol = 2.0 * _BOUNDARY_TOL * np.sqrt(zs.shape[0])
        value, theta, lost = _best_cell(zs, gain, _BOUNDARY_TOL, rank_tol)
        if not value < lost < np.inf:
            # theta' on [1, (x - c) / s] is theta_j = theta'_j / s_j and
            # theta_0 = theta'_0 - sum_j theta_j c_j on [1, x]. Where a 1 / s_j
            # would pass 2^1022 (a subnormal column), every coordinate first
            # shrinks by one power of two. The labels stay unless a product
            # leaves the normal range or the shift rounds a margin across 0.
            exp = 1 - np.frexp(scale)[1]
            raw = theta * np.ldexp(1.0, np.append(0, exp) - max(int(exp.max()) - 1022, 0))
            raw[0] -= raw[1:] @ shift
            kept = np.array_equal(z @ raw > 0, zs @ theta > 0)
            return LinearPolicy(theta=raw), lost <= value and kept
    return _learn_linear_approx(z, base, gain, seed), False


def learn_linear(w: WeightScheme, pseudo: PseudoOutcomes, data: Dataset, seed: int = 0,
                 force_approx: bool = False) -> LearnResult:
    """search_linear's policy with its weighted value."""
    [(best, exact)] = search_linear([w], pseudo, data, seed, force_approx)
    return LearnResult(best=best, best_value=weighted_value(best, w, pseudo, data), exact=exact)


def true_regret(pi: Policy, scenario, n_eval: int = 100_000, seed: int = 0) -> float:
    """Monte Carlo regret of a policy on a synthetic scenario: the mean
    shortfall of the policy's true arm mean against the pointwise-best arm
    mean over covariates drawn from the scenario's law."""
    return float(_RegretSample(scenario, n_eval).draw(seed).shortfall(pi).mean())


class _RegretSample:
    """A regret evaluation sample of one scenario, in buffers allocated when
    it is built and refilled in place by each `draw`, so the replications of
    a scenario allocate them once.

    `draw` fills x with n_eval covariate draws from the scenario's law, the
    design [1, x, ..., x^mean_degree], the arm means mu and the arm-major
    loss table, whose entry a * n_eval + i is max_b mu_b(x_i) - mu_a(x_i),
    refusing a table that is not finite. `shortfall` takes a policy's per-row
    regrets off the table through the row numbers and an index buffer.
    """

    def __init__(self, scenario, n_eval: int):
        d, m = scenario.d, scenario.m
        self.scenario = scenario
        self.x = np.empty((n_eval, d))
        self.mu = np.empty((n_eval, m))
        self.design = np.empty((n_eval, 1 + d * scenario.mean_degree))
        self.loss = np.empty((m, n_eval))
        self.rows = np.arange(n_eval)
        self.idx = np.empty(n_eval, np.intp)

    def draw(self, seed: int) -> "_RegretSample":
        scenario, loss = self.scenario, self.loss
        scenario.sample_covariates(self.rows.size, np.random.default_rng(seed), out=self.x)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mean leaves a non-finite loss
            mu = scenario.mean_matrix(self.x, out=self.mu, design=self.design)
            # The row maxima wait in the last arm's row, which is filled last.
            best = _rows(np.maximum, mu, out=loss[-1])
            for a in range(loss.shape[0]):
                np.subtract(best, mu[:, a], out=loss[a])
        if not np.isfinite(loss).all():
            raise ValidationError(f"scenario {scenario.name!r}: regret sample arm means or gaps overflow")
        return self

    def shortfall(self, pi: Policy) -> np.ndarray:
        """Per-row regret of the policy on the sample.

        The take gets no out=: in its default mode numpy copies `out` into a
        temporary and back, which measured ~1.8x the time of a fresh result.
        """
        return _at_actions(pi, self.x, self.loss.ravel(), self.loss.shape[0], self.rows, self.idx)


def _parse_policy_line(body: str, m: int | None) -> Policy:
    parts = [tok.strip() for tok in body.split(",")]
    if parts[0] == "const":
        if len(parts) != 2:
            raise ValidationError("expected const,<action>")
        try:
            action = int(parts[1])
        except ValueError:
            raise ValidationError(f"const action must be an integer, got {parts[1]!r}") from None
        if action < 0 or (m is not None and action >= m):
            top = "m-1" if m is None else m - 1
            raise ValidationError(f"const action {action} is outside 0..{top}")
        return ConstantPolicy(action=action)
    try:
        theta = np.array([float(tok) for tok in parts])
    except ValueError:
        raise ValidationError("non-numeric policy parameter") from None
    return LinearPolicy(theta=theta)


def load_policy_class(path: str, m: int | None = None, d: int | None = None) -> PolicyClass:
    """Read a finite policy class from a text file.

    Each nonempty, non-comment line is either `const,<action>` with a
    nonnegative integer action or a comma-separated parameter vector
    theta_0,...,theta_d of finite numbers, d >= 1, with the same d on every
    line (d + 1 entries and actions below m when the data's m and d are
    given). A line that breaks these rules is named as `<path>:<line>`.
    """
    policies: list[Policy] = []
    theta_size = None if d is None else d + 1
    with _input_file(path), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            with _input_file(f"{path}:{lineno}"):
                policy = _parse_policy_line(body, m)
                if isinstance(policy, LinearPolicy):
                    theta_size = theta_size or policy.theta.size
                    if policy.theta.size != theta_size:
                        raise ValidationError(
                            f"theta has {policy.theta.size} entries, expected {theta_size}"
                        )
            policies.append(policy)
        if not policies:
            raise ValidationError("no policies found")
    return PolicyClass(tuple(policies))
