"""Propensity/outcome/variance fitting and the cross-fitting contract."""

import csv
import math
import re
from contextlib import contextmanager
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retarget import (
    Dataset,
    EstimationError,
    FoldAssignment,
    NuisanceConfig,
    NuisanceSet,
    ValidationError,
    cross_fit,
    fit_outcome_regression,
    fit_propensity,
    load_oracle_nuisances,
    make_folds,
)
import retarget.data as data_module
import retarget.nuisance as nuisance_module
from retarget.simulation import default_scenarios, generate
from retarget.nuisance import (
    _STACK_MAX_ENTRIES,
    _fit_folds,
    _fold_groups,
    _mean,
    _oracle_columns,
    _propensities,
    _propensity_design,
    _residual_variance,
    _rows,
    _softmax,
    add_intercept,
)


def balanced_random_data(n, d, m, seed, outcome=None):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, d))
    a = rng.integers(0, m, n)
    a[:m] = np.arange(m)  # every arm present
    y = outcome(x, a, rng) if outcome else rng.standard_normal(n)
    return Dataset(covariates=x, actions=a, outcomes=y, m=m)


def fit_one(z, actions, m):
    """fit_propensity on a one-entry stack: one design's coefficients and flag."""
    coef, converged = fit_propensity(z[None], actions[None], m)
    return coef[0], bool(converged[0])


def fitted_propensities(data, clip=0.01):
    """In-sample clipped propensities of a fit on all of data's rows."""
    z = _propensity_design(data.covariates)
    coef, converged = fit_one(z, data.actions, data.m)
    return _propensities(z, coef, clip), converged


def fit_arm(data, arm, ridge=0.0):
    """The outcome regression of one arm's y on its rows of [1, x]."""
    rows = data.actions == arm
    z, y = add_intercept(data.covariates[rows]), data.outcomes[rows]
    return fit_outcome_regression([z], [y], [arm], ridge=ridge)[0]


def _reference_scaled_design(x):
    """The propensity design [1, (x - c) / s] column by column with math.frexp:
    c the midrange, s the power of two above the half-range."""
    columns = [np.ones(x.shape[0])]
    for col in x.T:
        low, high = float(col.min()), float(col.max())
        columns.append((col - (low / 2 + high / 2)) / 2.0 ** math.frexp(high / 2 - low / 2)[1])
    return np.column_stack(columns)


class TestFitPropensity:
    def test_independent_balanced_arms_predict_half(self):
        # A independent of X, arms 50/50: fitted probabilities near (.5, .5).
        rng = np.random.default_rng(3)
        n = 10_000
        x = rng.uniform(-1, 1, (n, 1))
        a = rng.integers(0, 2, n)
        data = Dataset(covariates=x, actions=a, outcomes=np.zeros(n), m=2)
        probs, _ = fitted_propensities(data)
        assert np.max(np.abs(probs - 0.5)) < 0.02

    def test_separable_data_clips_without_nan(self):
        x = np.linspace(-1, 1, 40).reshape(-1, 1)
        a = (x.ravel() > 0).astype(int)
        data = Dataset(covariates=x, actions=a, outcomes=np.zeros(40), m=2)
        probs, _ = fitted_propensities(data, clip=0.01)
        assert np.all(np.isfinite(probs))
        assert probs.min() >= 0.01 - 1e-12
        assert probs.max() <= 0.99 + 1e-12
        # far from the boundary the fit saturates at the clipping constants
        assert probs[0, 1] == pytest.approx(0.01)
        assert probs[-1, 1] == pytest.approx(0.99)

    def test_rows_sum_to_one_m3(self):
        data = balanced_random_data(600, 2, 3, seed=11)
        probs, converged = fitted_propensities(data)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
        assert converged

    def test_iteration_cap_flags_nonconvergence(self, monkeypatch):
        # The loop reads its cap at call time; two Newton steps from zero
        # leave the gradient above tolerance. One softmax per iteration.
        import retarget.nuisance as nuisance_module

        data = balanced_random_data(300, 2, 3, seed=4)
        z = _propensity_design(data.covariates)
        monkeypatch.setattr(nuisance_module, "_NEWTON_MAX_ITER", 2)
        calls = []
        softmax = nuisance_module._softmax
        monkeypatch.setattr(nuisance_module, "_softmax", lambda v: calls.append(1) or softmax(v))
        with pytest.warns(RuntimeWarning, match=r"^propensity Newton solver hit the 2-iteration "
                          r"cap without meeting the gradient tolerance; returning the last iterate$"):
            coef, converged = fit_one(z, data.actions, data.m)
        assert not converged
        assert len(calls) == 2
        assert np.all(np.isfinite(coef)) and np.all(coef[:, -1] == 0.0)
        monkeypatch.setattr(nuisance_module, "_NEWTON_MAX_ITER", 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert fit_one(z, data.actions, data.m)[1]

    def test_missing_arm_rejected(self):
        data = Dataset(
            covariates=np.zeros((4, 1)),
            actions=np.array([0, 0, 0, 0]),
            outcomes=np.zeros(4),
            m=2,
        )
        with pytest.raises(EstimationError, match="arm 1 absent"):
            fit_one(_propensity_design(data.covariates), data.actions, data.m)

    def test_recovers_logistic_truth(self):
        # Well-specified binary model: fitted probabilities track the truth.
        rng = np.random.default_rng(8)
        n = 20_000
        x = rng.uniform(-1, 1, (n, 1))
        p1 = 1.0 / (1.0 + np.exp(-(0.3 + 1.2 * x.ravel())))
        a = (rng.random(n) < p1).astype(int)
        data = Dataset(covariates=x, actions=a, outcomes=np.zeros(n), m=2)
        probs, _ = fitted_propensities(data)
        assert np.max(np.abs(probs[:, 1] - p1)) < 0.03


def _reference_fit_propensity(z, actions, m):
    """fit_propensity's Newton loop as it was before the negated Hessian was
    allocated once and its (l, j) blocks copied from (j, l): every block
    computed, the damping added through a.flat."""
    n, p = z.shape
    k = m - 1
    onehot = np.zeros((n, k))
    for j in range(k):
        onehot[:, j] = actions == j
    coef = np.zeros((p, m))
    for _ in range(100):
        prob = _softmax(z @ coef)
        grad = z.T @ (onehot - prob[:, :k])
        if np.max(np.abs(grad)) < 1e-8:
            return coef, True
        a = np.empty((k * p, k * p))
        for j in range(k):
            for l in range(k):
                w = prob[:, j] * ((1.0 if j == l else 0.0) - prob[:, l])
                a[j * p:(j + 1) * p, l * p:(l + 1) * p] = (z.T * w) @ z
        a.flat[::a.shape[0] + 1] += 1e-10 * (1.0 + np.trace(a) / a.shape[0])
        coef[:, :k] += np.linalg.solve(a, grad.T.ravel()).reshape(k, p).T
    return coef, False


class TestFitPropensityMatchesReference:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_same_bytes(self, m, d):
        rng = np.random.default_rng(100 * m + d)
        n = 120
        x = rng.standard_normal((n, d))
        logits = np.column_stack([x @ rng.normal(0, 1, d) for _ in range(m)])
        random_arms = (np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)).cumsum(axis=1)
        random_arms = (random_arms < rng.random(n)[:, None]).sum(axis=1).clip(0, m - 1)
        # Arms in bands of x1, with the top row's arm flipped: near-separated.
        banded = np.minimum(np.argsort(np.argsort(x[:, 0])) * m // n, m - 1)
        banded[np.argmax(x[:, 0])] = 0
        # Covariates offset by 1e4, on which the loop on [1, x] stalls at its
        # cap: their scaled design is that of x up to rounding.
        designs = [(x, random_arms), (x, banded), (np.round(x), random_arms),
                   (x + 1e4, random_arms)]
        for xs, a in designs:
            z = _propensity_design(xs)
            assert z.tobytes() == _reference_scaled_design(xs).tobytes()
            want, want_converged = _reference_fit_propensity(z, a, m)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got, converged = fit_one(z, a, m)
            assert converged and want_converged
            assert got.tobytes() == want.tobytes()


def _three_training_designs(m, d, n=96):
    """Three (n, d+1) designs and their actions: one whose gradient vanishes
    at zero (every arm on the same covariate rows), one drawn from mild
    logits and one from sharper logits, which takes more Newton steps."""
    rng = np.random.default_rng(10 * m + d)
    u = rng.uniform(-1, 1, (n // m, d))
    stack = [(np.tile(u, (m, 1)), np.repeat(np.arange(m), n // m))]
    for scale in (0.5, 5.0):
        x = rng.standard_normal((n, d))
        logits = np.column_stack([np.zeros(n)] + [scale * x @ rng.normal(0, 1, d)
                                                  for _ in range(m - 1)])
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        a = (p.cumsum(axis=1) < rng.random(n)[:, None]).sum(axis=1).clip(0, m - 1)
        a[:m] = np.arange(m)  # every arm present
        stack.append((x, a))
    return np.stack([_propensity_design(x) for x, _ in stack]), np.stack([a for _, a in stack])


class TestStackedPropensity:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stack_gives_the_bits_of_separate_calls(self, monkeypatch, m, d):
        # Each slice leaves the stack at its own iteration: the three take
        # different numbers of Newton steps.
        import retarget.nuisance as nuisance_module

        z, actions = _three_training_designs(m, d)
        calls = []
        softmax = nuisance_module._softmax
        monkeypatch.setattr(nuisance_module, "_softmax", lambda v: calls.append(1) or softmax(v))
        alone, steps = [], []
        for zs, a in zip(z, actions):
            calls.clear()
            alone.append(fit_one(zs, a, m))
            steps.append(len(calls))
        assert len(set(steps)) == 3 and alone[0][1]
        coef, converged = fit_propensity(z, actions, m)
        assert coef.shape == (3, d + 1, m) and converged.shape == (3,)
        for got, flag, (want, want_flag) in zip(coef, converged, alone):
            assert got.tobytes() == want.tobytes()
            assert flag == want_flag

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_one_warning_per_capped_slice(self, monkeypatch, m):
        import retarget.nuisance as nuisance_module

        z, actions = _three_training_designs(m, 2)
        monkeypatch.setattr(nuisance_module, "_NEWTON_MAX_ITER", 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alone = [fit_one(zs, a, m) for zs, a in zip(z, actions)]
            assert len(caught) == 2  # the two drawn designs; the first meets the tolerance at zero
            caught.clear()
            coef, converged = fit_propensity(z, actions, m)
        assert [str(w.message) for w in caught] == [
            "propensity Newton solver hit the 2-iteration cap without meeting the gradient "
            "tolerance; returning the last iterate"] * 2
        assert all(w.category is RuntimeWarning for w in caught)
        assert converged.tolist() == [True, False, False]
        for got, (want, _) in zip(coef, alone):
            assert got.tobytes() == want.tobytes()

    def test_missing_arm_in_any_slice_is_rejected(self):
        z, actions = _three_training_designs(3, 1)
        actions[1][actions[1] == 2] = 0
        with pytest.raises(EstimationError, match="^arm 2 absent from training data$"):
            fit_propensity(z, actions, 3)


def _default_draws(count, n=200):
    """count datasets drawn from the default scenarios in turn, with their folds."""
    scenarios = default_scenarios()
    for seed in range(count):
        data = generate(scenarios[seed % len(scenarios)], n, seed)
        yield data, make_folds(n, 2, seed=seed)


def _moved(data, x):
    return Dataset(covariates=x, actions=data.actions, outcomes=data.outcomes, m=data.m)


class TestScaledDesign:
    """cross_fit fits its propensity models on [1, (x - c) / s], so the
    covariates' units do not move the propensities."""

    def test_covariates_times_a_power_of_two_give_the_same_bits(self):
        # On [1, x] the Newton loop's absolute gradient tolerance stopped
        # fits on x * 2^k with k <= -12 early, and the damping stalled fits
        # with k >= 12 at the cap.
        for data, folds in _default_draws(40):
            want = cross_fit(data, folds).propensity
            for k in range(-22, 23):
                got = cross_fit(_moved(data, data.covariates * 2.0**k), folds).propensity
                assert got.tobytes() == want.tobytes(), k

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-22, 22),
           offset=st.floats(-1e6, 1e6), m=st.integers(2, 3), d=st.integers(1, 2))
    def test_covariates_times_a_power_of_two_plus_an_offset(self, seed, k, offset, m, d):
        # x * s + c with s = 2^k and |c| <= 1e6 * s: centring cancels about
        # u * |c| / s of the design, far inside 1e-8 of the propensities. The
        # outcome regressions stay on [1, x], whose Gram matrix is singular
        # for columns this far from 0; a ridge keeps them solvable, and the
        # propensity models do not read it.
        rng = np.random.default_rng(seed)
        n = 200
        x = rng.standard_normal((n, d))
        logits = np.column_stack([np.zeros(n)] + [x @ rng.normal(0, 1, d) for _ in range(m - 1)])
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        a = (p.cumsum(axis=1) < rng.random(n)[:, None]).sum(axis=1).clip(0, m - 1)
        a[:m] = np.arange(m)  # every arm present
        data = Dataset(covariates=x, actions=a, outcomes=rng.standard_normal(n), m=m)
        folds, config = make_folds(n, 2, seed=0), NuisanceConfig(ridge_lambda=1e-3)
        want = cross_fit(data, folds, config).propensity
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = cross_fit(_moved(data, x * 2.0**k + offset * 2.0**k), folds, config)
        assert np.abs(got.propensity - want).max() < 1e-8

    def test_covariates_far_from_zero_converge_without_a_warning(self):
        # The loop on [1, x + 1e4] stalls at its cap and warns. A ridge keeps
        # the outcome regressions on that design solvable.
        data = balanced_random_data(300, 2, 2, seed=5)
        moved = _moved(data, data.covariates + 1e4)
        with pytest.warns(RuntimeWarning, match="iteration cap"):
            fit_one(add_intercept(moved.covariates), data.actions, data.m)
        folds, config = make_folds(300, 2, seed=0), NuisanceConfig(ridge_lambda=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = cross_fit(moved, folds, config).propensity
        assert np.abs(got - cross_fit(data, folds, config).propensity).max() < 1e-8

    def test_a_half_range_past_2_to_the_1023_warns_nothing(self):
        # The power of two above such a half-range is 2^1024, which overflows.
        x = np.array([[-1.7e308], [1.7e308], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = _propensity_design(x)
        assert z[:, 1].tolist() == [-1.7e308 / 2.0**1023, 1.7e308 / 2.0**1023, 0.0]

    def test_a_constant_column_is_zero(self):
        x = np.column_stack([np.full(5, 3.5), np.arange(5.0)])
        z = _propensity_design(x)
        assert z[:, 1].tolist() == [0.0] * 5
        assert z[:, 2].tolist() == [-0.5, -0.25, 0.0, 0.25, 0.5]


class TestFoldGroups:
    def test_equal_training_sizes_share_a_stack(self):
        # 499 rows in three folds: 167, 166 and 166 held out.
        folds = make_folds(499, 3, seed=0)
        train = [folds.complement(fold) for fold in range(3)]
        assert [rows.size for rows in train] == [332, 333, 333]
        assert _fold_groups(train, 2) == [[0], [1, 2]]

    def test_a_stack_past_the_bound_splits(self):
        rows = np.arange(_STACK_MAX_ENTRIES // 4)
        assert _fold_groups([rows, rows], 2) == [[0, 1]]
        assert _fold_groups([rows, rows], 3) == [[0], [1]]


class TestFitOutcomeRegression:
    def test_a_list_solves_as_separate_calls(self):
        rng = np.random.default_rng(3)
        designs = [add_intercept(rng.uniform(-1, 1, (n, 2))) for n in (5, 9, 30)]
        outcomes = [rng.standard_normal(z.shape[0]) for z in designs]
        for ridge in (0.0, 0.3):
            betas = fit_outcome_regression(designs, outcomes, [0, 1, 0], ridge=ridge)
            assert betas.shape == (3, 3)
            for z, y, beta in zip(designs, outcomes, betas):
                alone = fit_outcome_regression([z], [y], [0], ridge=ridge)
                assert alone.shape == (1, 3) and beta.tobytes() == alone[0].tobytes()

    def test_a_list_names_its_first_singular_entry(self):
        rng = np.random.default_rng(4)
        singular = add_intercept(np.ones((4, 2)))  # rank 1
        designs = [add_intercept(rng.uniform(-1, 1, (6, 2))), singular, singular[:2]]
        outcomes = [np.zeros(z.shape[0]) for z in designs]
        with pytest.raises(EstimationError, match=r"^singular Gram matrix for arm 1 \(4 rows, "
                           r"3 coefficients\); pass ridge_lambda > 0$"):
            fit_outcome_regression(designs, outcomes, [0, 1, 2])

    def test_a_list_names_its_first_overflowing_entry(self):
        rng = np.random.default_rng(5)
        fine = add_intercept(rng.uniform(-1, 1, (6, 1)))
        huge = add_intercept(np.array([[1e200], [2e200], [3e200]]))
        designs = [fine, huge, huge]
        outcomes = [np.zeros(z.shape[0]) for z in designs]
        with np.errstate(over="raise"):
            with pytest.raises(EstimationError, match=r"^outcome regression of arm 1: "
                               r"overflow encountered in matmul$"):
                fit_outcome_regression(designs, outcomes, [0, 1, 0])

    def test_two_point_exact_interpolation(self):
        data = Dataset(
            covariates=np.array([[1.0], [2.0]]),
            actions=np.array([0, 0]),
            outcomes=np.array([2.0, 4.0]),
            m=2,
        )
        # m=2 requires arm 1 too; regression only touches arm 0 rows
        data = Dataset(
            covariates=np.array([[1.0], [2.0], [0.0]]),
            actions=np.array([0, 0, 1]),
            outcomes=np.array([2.0, 4.0, 0.0]),
            m=2,
        )
        beta = fit_arm(data, 0)
        assert beta == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_constant_outcome(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (30, 3))
        data = Dataset(covariates=x, actions=np.zeros(30, int), outcomes=np.full(30, 5.5), m=2)
        data = Dataset(
            covariates=np.vstack([x, [[0, 0, 0]]]),
            actions=np.append(np.zeros(30, int), 1),
            outcomes=np.append(np.full(30, 5.5), 0.0),
            m=2,
        )
        beta = fit_arm(data, 0)
        assert beta == pytest.approx([5.5, 0, 0, 0], abs=1e-10)

    def test_large_ridge_shrinks_slopes(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (50, 2))
        y = 1.0 + 3.0 * x[:, 0] + rng.standard_normal(50) * 0.1
        data = Dataset(covariates=x, actions=np.zeros(50, int), outcomes=y, m=2)
        data = Dataset(
            covariates=np.vstack([x, [[0, 0]]]),
            actions=np.append(np.zeros(50, int), 1),
            outcomes=np.append(y, 0.0),
            m=2,
        )
        beta = fit_arm(data, 0, ridge=1e9)
        assert np.max(np.abs(beta[1:])) < 1e-5

    def test_singular_advises_ridge(self):
        # one observation, two coefficients
        data = Dataset(
            covariates=np.array([[1.0], [3.0]]),
            actions=np.array([0, 1]),
            outcomes=np.array([2.0, 0.0]),
            m=2,
        )
        with pytest.raises(EstimationError, match="ridge"):
            fit_arm(data, 0)
        fit_arm(data, 0, ridge=0.1)  # ridge path succeeds

    @pytest.mark.parametrize("ridge", [-1.0, np.nan, np.inf])
    def test_rejects_a_ridge_that_is_negative_or_not_finite(self, ridge):
        # A nan ridge used to fit as ridge 0; an inf one warned, then made nan coefficients.
        z, y = np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([0.0, 1.0])
        with pytest.raises(ValidationError, match=r"^ridge penalty must be finite and >= 0"):
            fit_outcome_regression([z], [y], [0], ridge=ridge)
        message = "must be >= 0" if ridge < 0 else "must be finite"
        with pytest.raises(ValidationError, match=f"^ridge_lambda {message}, got {ridge}$"):
            NuisanceConfig(ridge_lambda=ridge)


class TestEstimateVariance:
    @staticmethod
    def _squares(residuals_by_arm):
        return [np.array(resids, dtype=float) ** 2 for resids in residuals_by_arm]

    def test_zero_residuals_hit_floor(self):
        var = _residual_variance(self._squares([[0.0, 0.0], [0.0]]), mode="per_arm")
        assert var == pytest.approx([1e-12, 1e-12])

    def test_plus_minus_one_gives_unit_variance(self):
        var = _residual_variance(self._squares([[1.0, -1.0], [0.0]]), mode="per_arm")
        assert var[0] == pytest.approx(1.0)

    def test_pooled_equals_per_arm_on_identical_arms(self):
        sq = self._squares([[1.0, -1.0], [1.0, -1.0]])
        pooled = _residual_variance(sq, mode="pooled")
        per_arm = _residual_variance(sq, mode="per_arm")
        assert pooled == pytest.approx(per_arm)
        assert pooled[0] == pytest.approx(pooled[1])


class TestCrossFit:
    def test_oracle_passthrough_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 40
        data = balanced_random_data(n, 1, 2, seed=4)
        phi = rng.uniform(0.2, 0.8, n)
        prop = np.column_stack([1 - phi, phi])
        mu = rng.standard_normal((n, 2))
        nuis = load_oracle_nuisances(_write_oracle(tmp_path / "oracle.csv", prop, mu), data, "pooled")
        assert np.array_equal(nuis.propensity, prop)
        assert np.array_equal(nuis.outcome_mean, mu)
        assert nuis.provenance == "oracle"

    def test_out_of_fold_property(self):
        # Perturbing one observation changes only the other folds' predictions.
        n = 100
        data = balanced_random_data(n, 2, 2, seed=10)
        folds = make_folds(n, 2, seed=1)
        nuis = cross_fit(data, folds)
        j = 17
        y2 = data.outcomes.copy()
        y2[j] += 10.0
        x2 = data.covariates.copy()
        x2[j] += 0.5
        perturbed = Dataset(covariates=x2, actions=data.actions, outcomes=y2, m=2)
        nuis2 = cross_fit(perturbed, folds, NuisanceConfig())
        same_fold = folds.fold_of == folds.fold_of[j]
        same_fold[j] = False  # j's own row sees its new covariates at prediction
        assert np.array_equal(nuis.outcome_mean[same_fold], nuis2.outcome_mean[same_fold])
        assert np.array_equal(nuis.propensity[same_fold], nuis2.propensity[same_fold])
        other = folds.fold_of != folds.fold_of[j]
        assert not np.allclose(nuis.outcome_mean[other], nuis2.outcome_mean[other])

    def test_deterministic(self):
        data = balanced_random_data(80, 2, 3, seed=6)
        folds = make_folds(80, 2, seed=2)
        a = cross_fit(data, folds)
        b = cross_fit(data, folds)
        assert np.array_equal(a.propensity, b.propensity)
        assert np.array_equal(a.outcome_mean, b.outcome_mean)
        assert np.array_equal(a.variance, b.variance)

    def test_provenance_and_row_sums(self):
        data = balanced_random_data(60, 1, 2, seed=12)
        folds = make_folds(60, 3, seed=0)
        nuis = cross_fit(data, folds, NuisanceConfig(folds=3))
        assert nuis.provenance == "fitted(K=3)"
        assert np.max(np.abs(nuis.propensity.sum(axis=1) - 1.0)) < 1e-9

    def test_errors_annotated_with_fold(self):
        # arm 1 appears once: its only row's training complement misses it
        x = np.linspace(0, 1, 10).reshape(-1, 1)
        a = np.zeros(10, int)
        a[0] = 1
        data = Dataset(covariates=x, actions=a, outcomes=np.zeros(10), m=2)
        folds = make_folds(10, 2, seed=0)
        with pytest.raises(EstimationError, match=r"fold \d"):
            cross_fit(data, folds)

    def test_first_failing_fold_is_named_across_non_adjacent_groups(self):
        # Folds of 4, 5 and 4 rows train on 9, 8 and 9: folds 0 and 2 fit as
        # one group, fold 1 alone. Every arm-1 row lies in fold 1, so fold 1
        # trains without arm 1; fold 2 trains on arm-0 rows that all share
        # x = 0.5, a singular Gram matrix. Fold 1's error comes first.
        fold_of = np.repeat([0, 1, 2], [4, 5, 4])
        x = np.full(13, 0.5)
        x[4:7] = [0.0, 0.5, 1.0]
        x[9:] = [0.1, 0.2, 0.3, 0.4]
        a = np.zeros(13, int)
        a[4:7] = 1
        data = Dataset(covariates=x[:, None], actions=a, outcomes=np.arange(13.0), m=2)
        folds = FoldAssignment(fold_of=fold_of, n_folds=3)
        train = [folds.complement(fold) for fold in range(3)]
        assert _fold_groups(train, 2) == [[0, 2], [1]]
        with pytest.raises(EstimationError) as info:
            cross_fit(data, folds, NuisanceConfig(folds=3))
        assert str(info.value) == "fold 1: arm 1 absent from training data"
        z_prop, z = _propensity_design(data.covariates), add_intercept(data.covariates)
        out = np.empty((13, 2)), np.empty((13, 2)), np.empty((13, 2))
        held = [folds.members(fold) for fold in range(3)]
        with pytest.raises(EstimationError, match=r"^fold 2: singular Gram matrix for arm 0 "):
            _fit_folds(z_prop, z, data, [2], held, train, NuisanceConfig(folds=3), out)

    @pytest.mark.parametrize("variance_mode", ["pooled", "per_arm"])
    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    @pytest.mark.parametrize("n, k, m", [(499, 3, 2), (500, 2, 2), (300, 3, 3)])
    def test_fold_groups_give_the_bits_of_fitting_each_fold_alone(
            self, monkeypatch, n, k, m, ridge, variance_mode):
        data = (generate(default_scenarios()[0], n, seed=n) if m == 2
                else balanced_random_data(n, 2, m, seed=n))
        folds = make_folds(n, k, seed=k)
        train = [folds.complement(fold) for fold in range(k)]
        config = NuisanceConfig(folds=k, ridge_lambda=ridge, variance_mode=variance_mode)
        assert max(len(group) for group in _fold_groups(train, data.d + 1)) > 1
        grouped = cross_fit(data, folds, config)
        monkeypatch.setattr(nuisance_module, "_STACK_MAX_ENTRIES", 0)
        assert max(len(group) for group in _fold_groups(train, data.d + 1)) == 1
        alone = cross_fit(data, folds, config)
        for name in ("propensity", "outcome_mean", "variance"):
            assert getattr(grouped, name).tobytes() == getattr(alone, name).tobytes(), name

    def test_config_fold_count_must_match_the_assignment(self):
        data = balanced_random_data(100, 1, 2, seed=3)
        with pytest.raises(ValidationError) as info:
            cross_fit(data, make_folds(100, 2, seed=0), NuisanceConfig(folds=5))
        assert str(info.value) == "fold assignment has 2 folds, nuisance config asks for 5"


_CELLS = [
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 5e-324]),
    st.floats(-1e3, 1e3),  # sums whose rounding depends on the order of addition
    st.floats(allow_nan=True, allow_infinity=True),
]


@st.composite
def short_row_matrices(draw):
    m = draw(st.integers(2, 12))
    n = draw(st.integers(1, 20))
    cell = draw(st.sampled_from(_CELLS))
    cells = draw(st.lists(cell, min_size=n * m, max_size=n * m))
    a = np.array(cells, dtype=float).reshape(n, m)
    # ties: copy a column onto another in some rows
    src, dst = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    rows = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    a[np.array(rows), dst] = a[np.array(rows), src]
    return a


class TestRows:
    @settings(max_examples=300, deadline=None)
    @given(a=short_row_matrices())
    def test_matches_axis_reductions_bit_for_bit(self, a):
        with np.errstate(invalid="ignore", over="ignore"):
            for op, want in ((np.maximum, a.max(axis=1)), (np.minimum, a.min(axis=1)),
                             (np.add, a.sum(axis=1))):
                got = _rows(op, a)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want, equal_nan=True)
                # the sign of zero too; a NaN's sign bit is not kept
                nan = np.isnan(want)
                assert np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))


class TestMean:
    def test_matches_np_mean_bit_for_bit(self):
        # Sizes 1..1,100 cross the pairwise sum's blocks of 8 and 128 entries.
        rng = np.random.default_rng(7)
        for size in range(1, 1101):
            a = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
            assert _mean(a).tobytes() == np.mean(a).tobytes(), size


def _reference_intercept(x):
    """add_intercept before it took a degree: [1, x] by np.hstack."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.hstack([np.ones((x.shape[0], 1)), x])


def _reference_powers(x, degree):
    """FeatureMap's poly design before it used add_intercept's degree: the
    stacked powers x**p, then the intercept."""
    return _reference_intercept(np.hstack([x**p for p in range(1, degree + 1)]))


def _layouts(rng, n, d):
    """x C-ordered, F-ordered, and as a multi-column subset of a wider array."""
    x = 3.0 * rng.standard_normal((n, d))
    wide = 3.0 * rng.standard_normal((n, d + 1))
    yield "C", x
    yield "F", np.asfortranarray(x)
    yield "subset", wide[:, list(range(d, 0, -1))]


def _layout(a):
    return a.flags.c_contiguous, a.flags.f_contiguous


class TestDesignBuilder:
    """add_intercept(x, degree, out=) builds every [1, x, ..., x^degree] design;
    its bits and its memory layout must be those of the builders it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 500, 20_000])
    def test_matches_the_stacked_designs(self, n):
        rng = np.random.default_rng(n)
        for d in (1, 2, 3, 4):
            for name, x in _layouts(rng, n, d):
                for degree in (1, 2, 3, 4):
                    want = _reference_powers(x, degree)
                    if degree == 1:
                        want = _reference_intercept(x)
                        assert add_intercept(x).tobytes() == want.tobytes()
                    got = add_intercept(x, degree)
                    assert got.tobytes() == want.tobytes(), (name, n, d, degree)
                    assert _layout(got) == _layout(want), (name, n, d, degree)
                    out = np.full((n, 1 + d * degree), np.nan)
                    got = add_intercept(x, degree, out=out)
                    assert got is out and got.tobytes() == want.tobytes(), (name, n, d, degree)

    def test_multi_column_subset_stays_f_ordered(self):
        x = np.random.default_rng(0).standard_normal((500, 3))[:, [2, 0]]
        for degree in (1, 2, 3):
            z = add_intercept(x, degree)
            assert z.flags.f_contiguous and not z.flags.c_contiguous
            assert z.tobytes() == _reference_powers(x, degree).tobytes()
        assert add_intercept(np.ones((4, 3))).flags.c_contiguous


class TestNuisanceSetValidation:
    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValidationError, match="sums to"):
            NuisanceSet(
                propensity=np.array([[0.5, 0.4]]),
                outcome_mean=np.zeros((1, 2)),
                variance=np.zeros((1, 2)),
                provenance="oracle",
            )

    def test_row_sum_message_is_the_same_on_every_numpy(self):
        # numpy >= 2 reprs a float64 scalar as np.float64(0.75).
        with pytest.raises(ValidationError) as info:
            NuisanceSet(
                propensity=np.array([[0.5, 0.25]]),
                outcome_mean=np.zeros((1, 2)),
                variance=np.zeros((1, 2)),
                provenance="oracle",
            )
        assert str(info.value) == "propensity row 0 sums to 0.75, not 1"

    def test_rejects_boundary_propensity(self):
        with pytest.raises(ValidationError, match="strictly inside"):
            NuisanceSet(
                propensity=np.array([[0.0, 1.0]]),
                outcome_mean=np.zeros((1, 2)),
                variance=np.zeros((1, 2)),
                provenance="oracle",
            )

    def test_rejects_negative_variance(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            NuisanceSet(
                propensity=np.array([[0.5, 0.5]]),
                outcome_mean=np.zeros((1, 2)),
                variance=np.array([[-1.0, 0.0]]),
                provenance="oracle",
            )


def _write_oracle(path, prop, mu, var=None):
    """An oracle file of the matrices' cells, written with repr; its path."""
    groups = [("phi", prop), ("mu", mu)] + [("var", var)] * (var is not None)
    lines = [",".join(f"{g}_{k}" for g, c in groups for k in range(c.shape[1]))]
    lines += [",".join(repr(float(c[i, k])) for _, c in groups for k in range(c.shape[1]))
              for i in range(prop.shape[0])]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _load_columns(path):
    """The oracle file's matrices, their errors labelled as load_oracle_nuisances
    labels them."""
    with data_module._input_file(path):
        return _oracle_columns(path)


def _reference_oracle_nuisance_set(path, data, variance_mode):
    """load_oracle_nuisances as it was in two steps: the file's matrices, then
    the nuisance set its frozen holder built for `data`, with the second
    step's errors labelled by the file as its one caller labelled them."""
    prop, mu, var = _reference_load_oracle(path)
    with data_module._input_file(path):
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
        if var is not None:
            if var.shape != expected:
                raise ValidationError(f"oracle variance must have shape {expected}, got {var.shape}")
            var = np.maximum(var, 1e-12)
        else:
            resid = data.outcomes - mu[np.arange(data.n), data.actions]
            sq_by_arm = [resid[data.actions == arm] ** 2 for arm in range(data.m)]
            var = np.tile(_residual_variance(sq_by_arm, variance_mode), (data.n, 1))
        return NuisanceSet(propensity=prop, outcome_mean=mu, variance=var, provenance="oracle")


class TestOracleFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "oracle.csv"
        path.write_text(
            "phi_0,phi_1,mu_0,mu_1,var_0,var_1\n"
            "0.25,0.75,1.5,2.5,1.0,2.0\n"
            "0.5,0.5,-1.0,0.0,1.0,0.0\n"
        )
        data = Dataset(covariates=np.zeros((2, 1)), actions=np.array([0, 1]),
                       outcomes=np.zeros(2), m=2)
        oracle = load_oracle_nuisances(str(path), data, "pooled")
        assert oracle.propensity.tolist() == [[0.25, 0.75], [0.5, 0.5]]
        assert oracle.outcome_mean[0, 1] == 2.5
        assert oracle.variance.tolist() == [[1.0, 2.0], [1.0, 1e-12]]
        assert oracle.provenance == "oracle"

    def test_missing_mu_rejected(self, tmp_path):
        path = tmp_path / "oracle.csv"
        path.write_text("phi_0,phi_1\n0.5,0.5\n")
        data = Dataset(covariates=np.zeros((1, 1)), actions=np.array([1]), outcomes=np.zeros(1), m=2)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: need matching phi_"):
            load_oracle_nuisances(str(path), data, "pooled")


class TestOracleLoadMatchesTwoSteps:
    """One call gives the bytes and the errors of reading the file and then
    building its nuisance set."""

    @pytest.mark.parametrize("mode", ["pooled", "per_arm"])
    @pytest.mark.parametrize("with_var", [False, True])
    def test_same_bytes(self, tmp_path, mode, with_var):
        for seed, (n, m) in enumerate([(40, 2), (57, 3), (500, 2)]):
            rng = np.random.default_rng(seed)
            data = balanced_random_data(n, 2, m, seed=seed)
            prop = rng.dirichlet(np.ones(m), n)
            mu = 3.0 * rng.standard_normal((n, m))
            var = rng.uniform(0.0, 2.0, (n, m)) * (rng.random((n, m)) < 0.8) if with_var else None
            path = _write_oracle(tmp_path / f"oracle{seed}.csv", prop, mu, var)
            want = _reference_oracle_nuisance_set(path, data, mode)
            got = load_oracle_nuisances(path, data, mode)
            for field in ("propensity", "outcome_mean", "variance"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (seed, field)
            assert got.provenance == want.provenance == "oracle"

    @pytest.mark.parametrize(
        "text",
        [
            "phi_0,phi_1,mu_0,mu_1\n" + "0.5,0.5,0,1\n" * 3,
            "phi_0,phi_1,phi_2,mu_0,mu_1,mu_2\n" + "0.25,0.25,0.5,0,1,2\n" * 4,
            "phi_0,phi_1,phi_2,mu_0,mu_1,mu_2\n" + "0.25,0.25,0.5,0,1,2\n" * 5,
            "phi_0,phi_1,mu_0,mu_1\n" + "0.0,1.0,0,1\n" * 4,
            "phi_0,phi_1,mu_0,mu_1\n" + "0.5,0.25,0,1\n" * 4,
            "phi_0,phi_1,mu_0,mu_1,var_0\n" + "0.5,0.5,0,1,1\n" * 4,
            "phi_0,phi_1,mu_0,mu_1,var_0,var_1\n" + "0.5,0.5,0,1,inf,1\n" * 4,
            "phi_0,phi_1,mu_0,mu_1\n" + "0.5,0.5,0,nan\n" * 4,
        ],
    )
    @pytest.mark.parametrize("mode", ["pooled", "per_arm"])
    def test_same_errors(self, tmp_path, text, mode):
        path = tmp_path / "oracle.csv"
        path.write_text(text)
        data = balanced_random_data(4, 1, 2, seed=0)
        want = _outcome_or_error(lambda: _reference_oracle_nuisance_set(str(path), data, mode))
        got = _outcome_or_error(lambda: load_oracle_nuisances(str(path), data, mode))
        assert isinstance(want, str) and want.startswith(f"ValidationError: {path}: ")
        assert got == want


def _reference_cross_fit(data, folds, config):
    """cross_fit as it was before every fold shared its designs: a validated
    Dataset copy of each fold's training rows, [1, x] rebuilt for every
    outcome fit and prediction, and the training rows predicted again for the
    residual variance. The propensity models use the rows of
    _reference_scaled_design."""
    from retarget.nuisance import _softmax

    scaled = _reference_scaled_design(data.covariates)

    def propensity(train, z):
        counts = np.bincount(train.actions, minlength=train.m)
        if np.any(counts == 0):
            raise EstimationError(f"arm {int(np.argmax(counts == 0))} absent from training data")
        (n, p), k = z.shape, train.m - 1
        onehot = np.zeros((n, k))
        for j in range(k):
            onehot[:, j] = train.actions == j
        coef = np.zeros((p, train.m))
        for _ in range(100):
            prob = _softmax(z @ coef)
            grad = z.T @ (onehot - prob[:, :k])
            if np.max(np.abs(grad)) < 1e-8:
                break
            a = np.empty((k * p, k * p))
            for j in range(k):
                for l in range(k):
                    w = prob[:, j] * ((1.0 if j == l else 0.0) - prob[:, l])
                    a[j * p:(j + 1) * p, l * p:(l + 1) * p] = (z.T * w) @ z
            a.flat[::a.shape[0] + 1] += 1e-10 * (1.0 + np.trace(a) / a.shape[0])
            coef[:, :k] += np.linalg.solve(a, grad.T.ravel()).reshape(k, p).T
        return coef

    def outcome(train, arm):
        rows = np.flatnonzero(train.actions == arm)
        z = add_intercept(train.covariates[rows])
        gram = z.T @ z
        if config.ridge_lambda > 0:
            gram = gram + config.ridge_lambda * np.eye(z.shape[1])
        elif np.linalg.matrix_rank(gram) < z.shape[1]:
            raise EstimationError(
                f"singular Gram matrix for arm {arm} ({rows.size} rows, "
                f"{z.shape[1]} coefficients); pass ridge_lambda > 0"
            )
        return np.linalg.solve(gram, z.T @ train.outcomes[rows])

    n, m = data.n, data.m
    prop, mu, var = np.empty((n, m)), np.empty((n, m)), np.empty((n, m))
    for fold in range(folds.n_folds):
        held_out = folds.members(fold)
        rows = folds.complement(fold)
        train = Dataset(covariates=data.covariates[rows], actions=data.actions[rows],
                        outcomes=data.outcomes[rows], m=m)
        try:
            coef = propensity(train, scaled[rows])
            betas = [outcome(train, arm) for arm in range(m)]
            resid = np.empty(train.n)
            for arm, beta in enumerate(betas):
                on = train.actions == arm
                resid[on] = train.outcomes[on] - add_intercept(train.covariates[on]) @ beta
            fold_var = _residual_variance([resid[train.actions == arm] ** 2 for arm in range(m)],
                                          config.variance_mode)
        except (ValidationError, EstimationError) as exc:
            raise type(exc)(f"fold {fold}: {exc}") from exc
        x_out = data.covariates[held_out]
        p = np.clip(_softmax(scaled[held_out] @ coef), config.propensity_clip,
                    1.0 - config.propensity_clip)
        prop[held_out] = p / _rows(np.add, p)[:, None]
        for arm, beta in enumerate(betas):
            mu[held_out, arm] = add_intercept(x_out) @ beta
        var[held_out] = fold_var
    return prop, mu, var


def _outcome_or_error(fn):
    try:
        return fn()
    except (ValidationError, EstimationError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestCrossFitMatchesReference:
    def test_seeded_sweep_same_bytes_and_errors(self):
        rng = np.random.default_rng(2024)
        errors = 0
        for case in range(120):
            n = int(rng.choice([8, 12, 20, 40, 100, 300, 800]))
            d, m, k = int(rng.integers(1, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
            if k > n:
                continue
            x = rng.standard_normal((n, d))
            if case % 4 == 0:
                x = np.round(x)  # ties and repeated rows
            logits = np.column_stack([np.zeros(n)] + [x @ rng.normal(0, 1, d) for _ in range(m - 1)])
            p = np.exp(logits - logits.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            a = (p.cumsum(axis=1) < rng.random(n)[:, None]).sum(axis=1).clip(0, m - 1)
            y = x @ rng.normal(0, 1, d) + a + rng.standard_normal(n)
            data = Dataset(covariates=x, actions=a, outcomes=y, m=m)
            folds = make_folds(n, k, seed=case)
            config = NuisanceConfig(
                folds=k,
                ridge_lambda=float(rng.choice([0.0, 0.3])),
                propensity_clip=float(rng.choice([0.01, 0.05])),
                variance_mode=str(rng.choice(["pooled", "per_arm"])),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # Newton cap on separated arms
                want = _outcome_or_error(lambda: _reference_cross_fit(data, folds, config))
                got = _outcome_or_error(lambda: cross_fit(data, folds, config))
            if isinstance(want, str):
                errors += 1
                assert got == want, case
                continue
            assert not isinstance(got, str), (case, got)
            for w, g in zip(want, (got.propensity, got.outcome_mean, got.variance)):
                assert g.tobytes() == w.tobytes(), case
        assert 0 < errors < 60  # the sweep reaches both the fitted and the failing folds


@contextmanager
def _reference_open_text(path, newline=None):
    """The loaders' UTF-8 open as it was with the reference loader: a byte that
    does not decode raises ValidationError naming the file."""
    try:
        with open(path, newline=newline, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
        ) from None


def _reference_arm_columns(path, header, prefix):
    """The header's prefix + <arm number> columns in arm order, as the
    reference loader checked them."""
    cols = [h for h in header if h.startswith(prefix)]
    arms = []
    for name in cols:
        try:
            arms.append(int(name[len(prefix):]))
        except ValueError:
            raise ValidationError(f"{path}: column {name!r} is not {prefix}<arm number>") from None
    if sorted(arms) != list(range(len(arms))):
        raise ValidationError(
            f"{path}: {prefix}* columns must number the arms 0..{len(arms) - 1} once each, "
            f"got {cols}"
        )
    return sorted(cols, key=lambda name: int(name[len(prefix):]))


def _reference_load_oracle(path):
    """load_oracle_nuisances as it was before it shared the dataset loader's
    reader: its own csv loop, a cell count check over every row, then one
    float() per phi_*, mu_* and var_* cell, group by group."""
    with _reference_open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        phi_cols = _reference_arm_columns(path, header, "phi_")
        mu_cols = _reference_arm_columns(path, header, "mu_")
        var_cols = _reference_arm_columns(path, header, "var_")
        if not phi_cols or len(phi_cols) != len(mu_cols):
            raise ValidationError(
                f"{path}: need matching phi_*/mu_* column groups, got {header}"
            )
        if var_cols and len(var_cols) != len(phi_cols):
            raise ValidationError(f"{path}: var_* columns must match phi_* count")
        idx = {name: header.index(name) for name in header}
        rows = list(reader)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValidationError(f"{path}: row {i} has {len(row)} cells, header has {len(header)}")

    def block(cols):
        try:
            return np.array([[float(r[idx[c]]) for c in cols] for r in rows])
        except ValueError as exc:
            raise ValidationError(f"{path}: non-numeric cell: {exc}") from None

    return block(phi_cols), block(mu_cols), block(var_cols) if var_cols else None


# Cells both loaders read as floats, and cells neither does.
_GOOD_CELLS = ["0.5", " 0.25 ", "1e-3", "-0.0", "nan", "-inf", "Infinity", "1_0", '"0.75"',
               "1e400", "-1e-400", "+3", "7."]
_BAD_CELLS = ["x", "", "1.2.3", "0x1p3", "1,5", "--1", "1 0", "\uff11", "nan(1)"]


def _oracle_file(rng):
    """Text of one oracle file with at most one fault, and the data row of a
    bad cell (None when the fault, if any, is elsewhere)."""
    m, n = int(rng.integers(1, 4)), int(rng.integers(1, 30))
    cols = [f"{g}_{k}" for g in ("phi", "mu") + ("var",) * bool(rng.integers(2)) for k in range(m)]
    if rng.random() < 0.3:
        cols.append("id")
    cols = [cols[j] for j in rng.permutation(len(cols))]
    rows = []
    for i in range(n):
        cells = [f"r{i}" if c == "id" else repr(float(rng.normal())) for c in cols]
        for j in rng.choice(len(cols), int(rng.integers(0, 3))):
            cells[j] = str(rng.choice(_GOOD_CELLS)) if cols[j] != "id" else "text, quoted"
        rows.append(",".join(f'"{c}"' if "," in c else c for c in cells))
    header, bad_row = ",".join(cols), None
    fault = rng.choice(["none"] * 6 + ["cell", "short", "long", "blank", "header", "empty", "body"])
    i = int(rng.integers(n))
    if fault == "cell":
        j = int(rng.choice([j for j, c in enumerate(cols) if c != "id"]))
        cells = next(csv.reader([rows[i]]))
        cells[j] = str(rng.choice(_BAD_CELLS))
        rows[i], bad_row = ",".join(f'"{c}"' if "," in c else c for c in cells), i
    elif fault == "short":
        rows[i] = rows[i].rsplit(",", 1)[0] if "," in rows[i] else ""
    elif fault == "long":
        rows[i] += ",0.5"
    elif fault == "blank":
        rows.insert(i + int(rng.integers(2)), "")
    elif fault == "header":
        header = str(rng.choice(["phi_a,mu_0", "phi_0,phi_1", "phi_0,phi_2,mu_0,mu_2",
                                 "phi_0,mu_0,var_0,var_1", "phi_1,mu_1"]))
    elif fault == "empty":
        return "" if rng.integers(2) else header + "\n", None
    elif fault == "body":
        rows = []
    eol = str(rng.choice(["\n", "\r\n", "\r"]))
    return header + eol + eol.join(rows) + eol * bool(rng.integers(4)), bad_row


class TestOracleLoaderMatchesReference:
    def test_seeded_sweep_same_bytes_and_errors(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "oracle.csv"
        outcomes = {"loaded": 0, "error": 0}
        for case in range(400):
            text, bad_row = _oracle_file(rng)
            path.write_text(text, encoding="utf-8", newline="")
            want = _outcome_or_error(lambda: _reference_load_oracle(str(path)))
            got = _outcome_or_error(lambda: _load_columns(str(path)))
            if isinstance(want, str):
                outcomes["error"] += 1
                if bad_row is not None:
                    # the one allowed change: the bad cell's row is named
                    want = want.replace("non-numeric cell:", f"non-numeric cell at row {bad_row}:")
                assert got == want, (case, text)
                continue
            outcomes["loaded"] += 1
            assert not isinstance(got, str), (case, text, got)
            for w, g in zip(want, got):
                if w is None:
                    assert g is None
                    continue
                assert g.dtype == w.dtype and g.shape == w.shape, case
                assert g.tobytes() == w.tobytes(), (case, text)
        assert outcomes["loaded"] > 120 and outcomes["error"] > 120, outcomes

    @pytest.mark.parametrize(
        "name, text",
        [
            ("o.csv.gz", "phi_0,phi_1,mu_0,mu_1\n0.5,0.5,1.0,2.0\n0.25,0.75,-1,1e-3\n"),
            ("o.csv.xz", "phi_0,mu_0,var_0\r\n0.5,1.0,2.0\r\n"),
            ("o.csv.gz", "phi_0,mu_0\n0.5,x\n"),
            ("o.csv", 'phi_0,mu_0,"note\nmore"\n0.5,1.0,3\n0.25,2.0,4\n'),
            ("o.csv", 'phi_0,"note\r\n\r\nmore",mu_0\r\n0.5,3,1.0\r\n0.25,4,2.0\r\n'),
            ("o.csv", 'phi_0,mu_0,"note\rmore"\r0.5,1.0,3\r0.25,2.0,4\r'),
            ("o.csv", 'phi_0,mu_0,"note\nmore"\n0.5,1.0,3\n\n0.25,2.0,4\n'),
        ],
    )
    def test_pinned_files(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        want = _outcome_or_error(lambda: _reference_load_oracle(str(path)))
        got = _outcome_or_error(lambda: _load_columns(str(path)))
        if isinstance(want, str):
            assert got == want.replace("non-numeric cell:", "non-numeric cell at row 0:")
            return
        for w, g in zip(want, got):
            assert (g is None) if w is None else g.tobytes() == w.tobytes()

    def test_header_across_lines_is_skipped_by_loadtxt(self, tmp_path, monkeypatch):
        # A quoted header cell spanning lines is skipped line by line, so
        # loadtxt parses the body and the row parser is not needed.
        monkeypatch.setattr(data_module, "_parse_rows", None)
        path = tmp_path / "o.csv"
        path.write_bytes(b'phi_0,"note\n\nmore",mu_0\n0.5,3,1.0\n0.25,4,2.0\n')
        prop, mu, _ = _load_columns(str(path))
        assert prop.tolist() == [[0.5], [0.25]]
        assert mu.tolist() == [[1.0], [2.0]]

    @pytest.mark.parametrize("rows", [1, 3_000])
    def test_non_utf8_byte_after_a_bad_cell(self, tmp_path, rows):
        path = tmp_path / "oracle.csv"
        path.write_bytes(b"phi_0,mu_0\n0.5,oops\n" + b"0.5,1\n" * rows + b"0.5,\xff\n")
        want = _outcome_or_error(lambda: _reference_load_oracle(str(path)))
        assert want.endswith("not UTF-8 text: byte 0xff (invalid start byte)")
        assert _outcome_or_error(lambda: _load_columns(str(path))) == want

    def test_non_utf8_byte_is_named_alike(self, tmp_path):
        path = tmp_path / "oracle.csv"
        path.write_bytes(b"phi_0,mu_0\n0.5,1\n0.5,\xff\n")
        want = _outcome_or_error(lambda: _reference_load_oracle(str(path)))
        assert re.search(r"not UTF-8 text: byte 0xff", want)
        assert _outcome_or_error(lambda: _load_columns(str(path))) == want
