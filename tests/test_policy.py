"""Policy evaluation, finite and linear search, and true-regret evaluation."""

import warnings
from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from retarget import (
    ConstantPolicy,
    Dataset,
    LinearPolicy,
    PolicyClass,
    PseudoOutcomes,
    ScenarioSpec,
    ValidationError,
    WeightScheme,
    cross_fit,
    default_scenarios,
    dr_pseudo_outcomes,
    generate,
    learn_finite,
    learn_linear,
    load_policy_class,
    make_folds,
    make_weights,
    search_linear,
    true_regret,
    uniform_weights,
    weighted_value,
)
from retarget import policy as policy_module
from retarget.nuisance import _rows, _scaled_design
from retarget.simulation import DEFAULT_SCHEMES


def plain_data(rng, n, d, psi=None):
    data = Dataset(
        covariates=rng.uniform(-1, 1, (n, d)),
        actions=rng.integers(0, 2, n),
        outcomes=np.zeros(n),
        m=2,
    )
    pseudo = PseudoOutcomes(values=psi if psi is not None else rng.standard_normal((n, 2)))
    return data, pseudo


def brute_force_argmax(policies, w, pseudo, data):
    """Independent scorer: plain Python loops over rows and policies."""
    best_idx, best_val = 0, None
    vals = []
    for idx, pi in enumerate(policies):
        acts = pi.act(data.covariates)
        total = 0.0
        for i in range(data.n):
            total += w.weights[i] * pseudo.values[i, int(acts[i])]
        val = total / data.n
        vals.append(val)
        if best_val is None or val > best_val:
            best_idx, best_val = idx, val
    top = max(vals)
    below = [v for v in vals if v < top]
    gap = top - max(below) if below else 0.0
    return best_idx, best_val, gap


class TwoPerRow:
    """A policy that returns two actions per row."""

    def act(self, x):
        return np.zeros((x.shape[0], 2), dtype=int)


class MinusOne:
    """A policy that returns the action -1 on every row."""

    def act(self, x):
        return np.full(x.shape[0], -1)


class HalfStep:
    """A policy that returns the non-integer action 0.5 on every row."""

    def act(self, x):
        return np.full(x.shape[0], 0.5)


class TestWeightedValue:
    def test_constant_policy_is_column_mean(self):
        rng = np.random.default_rng(0)
        data, pseudo = plain_data(rng, 25, 2)
        val = weighted_value(ConstantPolicy(1), uniform_weights(25), pseudo, data)
        assert val == pytest.approx(pseudo.values[:, 1].mean())

    def test_prenormalization_scale_irrelevant(self):
        rng = np.random.default_rng(1)
        data, pseudo = plain_data(rng, 25, 1)
        raw = rng.uniform(0.2, 2.0, 25)
        wa = WeightScheme.from_raw("a", raw)
        wb = WeightScheme.from_raw("b", 10.0 * raw)
        pi = LinearPolicy(np.array([0.1, 1.0]))
        assert weighted_value(pi, wa, pseudo, data) == pytest.approx(
            weighted_value(pi, wb, pseudo, data), rel=1e-14
        )

    def test_five_point_hand_instance(self):
        data = Dataset(
            covariates=np.array([[-2.0], [-1.0], [1.0], [-3.0], [2.0]]),
            actions=np.zeros(5, int),
            outcomes=np.zeros(5),
            m=2,
        )
        pseudo = PseudoOutcomes(
            values=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0], [9.0, 10.0]])
        )
        w = WeightScheme(kind="hand", weights=np.array([0.5, 1.5, 1.0, 0.75, 1.25]))
        pi = LinearPolicy(np.array([0.0, 1.0]))  # treat when x > 0: rows 2 and 4
        # selected scores: 1, 3, 6, 7, 10 -> weighted sum 28.75, mean 5.75
        assert weighted_value(pi, w, pseudo, data) == pytest.approx(5.75)

    def test_action_outside_the_arms_rejected(self):
        rng = np.random.default_rng(2)
        data, pseudo = plain_data(rng, 25, 1)
        with pytest.raises(ValidationError, match=r"outside \{0..m-1\}"):
            weighted_value(ConstantPolicy(2), uniform_weights(25), pseudo, data)

    def test_actions_of_the_wrong_shape_rejected(self):
        rng = np.random.default_rng(3)
        data, pseudo = plain_data(rng, 25, 1)
        with pytest.raises(ValidationError, match=r"shape \(25, 2\), expected \(25,\)"):
            weighted_value(TwoPerRow(), uniform_weights(25), pseudo, data)


class TestConstantPolicy:
    @pytest.mark.parametrize("action", [0, 1, 7, np.int64(1), np.int32(0)])
    def test_nonnegative_integers_accepted(self, action):
        assert ConstantPolicy(action).act(np.zeros((3, 1))).tolist() == [int(action)] * 3

    @pytest.mark.parametrize("action", [-1, np.int64(-2), 1.5, 1.0, True, "1", None])
    def test_other_actions_rejected(self, action):
        with pytest.raises(ValidationError, match="nonnegative integer"):
            ConstantPolicy(action)


class TestLearnFinite:
    def _single_point_class(self, values):
        data = Dataset(
            covariates=np.zeros((1, 1)),
            actions=np.array([0]),
            outcomes=np.zeros(1),
            m=len(values),
        )
        pseudo = PseudoOutcomes(values=np.array([values]))
        policies = [ConstantPolicy(a) for a in range(len(values))]
        return PolicyClass(tuple(policies)), uniform_weights(1), pseudo, data

    def test_three_value_example(self):
        cls, w, pseudo, data = self._single_point_class([1.0, 0.8, 0.5])
        res = learn_finite(cls, w, pseudo, data)
        assert res.best_value == 1.0
        assert res.value_gap == pytest.approx(0.2)
        assert res.second_best_value == pytest.approx(0.8)
        assert res.best_index == 0
        assert not res.tied

    def test_tie_takes_lowest_index(self):
        cls, w, pseudo, data = self._single_point_class([0.7, 0.7])
        res = learn_finite(cls, w, pseudo, data)
        assert res.best_index == 0
        assert res.tied
        assert res.value_gap == 0.0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(10, 40))
            data, pseudo = plain_data(rng, n, 2)
            w = WeightScheme.from_raw("w", rng.uniform(0.1, 2.0, n))
            policies = [
                LinearPolicy(rng.standard_normal(3)) for _ in range(int(rng.integers(5, 60)))
            ]
            cls = PolicyClass(tuple(policies))
            res = learn_finite(cls, w, pseudo, data)
            idx, val, gap = brute_force_argmax(policies, w, pseudo, data)
            assert res.best_index == idx
            assert res.best_value == pytest.approx(val, rel=1e-12)
            assert res.value_gap == pytest.approx(gap, rel=1e-9, abs=1e-15)

    def test_shifting_scores_shifts_values_not_argmax(self):
        rng = np.random.default_rng(8)
        n = 30
        data, pseudo = plain_data(rng, n, 1)
        w = WeightScheme.from_raw("w", rng.uniform(0.5, 1.5, n))
        policies = [LinearPolicy(rng.standard_normal(2)) for _ in range(12)]
        cls = PolicyClass(tuple(policies))
        res = learn_finite(cls, w, pseudo, data)
        shifted = PseudoOutcomes(values=pseudo.values + 3.25)
        res2 = learn_finite(cls, w, shifted, data)
        assert res2.best_index == res.best_index
        assert res2.best_value == pytest.approx(res.best_value + 3.25, rel=1e-12)
        assert res2.value_gap == pytest.approx(res.value_gap, abs=1e-12)
        assert np.allclose(res2.values, res.values + 3.25)


class TestFiniteScoring:
    @pytest.mark.parametrize("m", [2, 3])
    def test_values_keep_the_row_index_formula_bits(self, m):
        """learn_finite's shared weighted-score vector gives the bits of the
        per-policy formula mean(w * psi[arange(n), actions])."""
        rng = np.random.default_rng(60 + m)
        n, d = 1031, 2
        data = Dataset(
            covariates=rng.standard_normal((n, d)),
            actions=np.arange(n) % m,
            outcomes=np.zeros(n),
            m=m,
        )
        psi = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-3, 4, (n, m))
        pseudo = PseudoOutcomes(values=psi)
        w = WeightScheme.from_raw("w", rng.uniform(0.05, 3.0, n))
        policies = [ConstantPolicy(a) for a in range(m)]
        policies += [LinearPolicy(rng.standard_normal(d + 1)) for _ in range(50)]
        rows = np.arange(n)
        want = np.array(
            [np.mean(w.weights * psi[rows, pi.act(data.covariates)]) for pi in policies]
        )
        res = learn_finite(PolicyClass(tuple(policies)), w, pseudo, data)
        assert res.values.tobytes() == want.tobytes()
        assert res.best_value == want.max()
        outside = want[want < want.max()]
        assert res.value_gap == want.max() - outside.max()
        for pi, value in zip(policies, want):
            assert weighted_value(pi, w, pseudo, data) == value


def _lp_best_value(data, pseudo, w):
    """Best value over the 0/1 labelings that linprog finds realizable,
    z_S theta >= 1 and z_C theta <= 0, scanned from the highest value down."""
    from scipy.optimize import linprog

    z = np.column_stack([np.ones(data.n), data.covariates])
    rows = np.arange(data.n)
    labelings = [np.array(bits) for bits in product((False, True), repeat=data.n)]
    values = [float(np.mean(w.weights * pseudo.values[rows, lab.astype(int)])) for lab in labelings]
    for r in np.argsort(values, kind="stable")[::-1]:
        lab = labelings[r]
        fit = linprog(
            np.zeros(z.shape[1]),
            A_ub=np.vstack([-z[lab], z[~lab]]),
            b_ub=np.concatenate([-np.ones(lab.sum()), np.zeros((~lab).sum())]),
            bounds=[(None, None)] * z.shape[1],
            method="highs",
        )
        if fit.status == 0:
            return values[r]
    raise AssertionError("no labeling is realizable")


@st.composite
def _degenerate_instances(draw):
    """d in {2, 3}, n <= 9: points on a {0, 1, 2} grid, on a 0.5 grid, or a few
    grid points repeated; integer or real gains."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["grid", "rounded", "duplicated"]))
    if kind == "rounded":
        cells = draw(st.lists(st.floats(-2.5, 2.5), min_size=n * d, max_size=n * d))
        x = np.round(2.0 * np.array(cells)) / 2.0
    else:
        k = n if kind == "grid" else draw(st.integers(1, max(1, n // 2)))
        x = np.array(draw(st.lists(st.integers(0, 2), min_size=k * d, max_size=k * d)), float)
        if kind == "duplicated":
            x = x.reshape(k, d)[draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))]
    if draw(st.booleans()):
        effect = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), float)
    else:
        effect = np.array(draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n)))
    data = Dataset(covariates=x.reshape(n, d), actions=np.zeros(n, int), outcomes=np.zeros(n), m=2)
    pseudo = PseudoOutcomes(values=np.column_stack([np.zeros(n), effect]))
    return data, pseudo, uniform_weights(n)


class TestLearnLinear:
    def test_single_sign_change_threshold(self):
        # Effect score x - c changes sign once at c: the learned rule must
        # split the sample at c (checked through the induced labels).
        rng = np.random.default_rng(3)
        n, c = 60, 0.3
        x = rng.uniform(-1, 1, (n, 1))
        psi = np.column_stack([np.zeros(n), x.ravel() - c])
        data = Dataset(covariates=x, actions=np.zeros(n, int), outcomes=np.zeros(n), m=2)
        pseudo = PseudoOutcomes(values=psi)
        res = learn_linear(uniform_weights(n), pseudo, data)
        assert res.exact
        assert np.array_equal(res.best.act(x), (x.ravel() > c).astype(int))

    def test_dominant_arm_returns_treat_all(self):
        rng = np.random.default_rng(4)
        n = 40
        x = rng.uniform(-1, 1, (n, 2))
        psi = np.column_stack([np.zeros(n), np.ones(n)])
        data = Dataset(covariates=x, actions=np.zeros(n, int), outcomes=np.zeros(n), m=2)
        res = learn_linear(uniform_weights(n), PseudoOutcomes(values=psi), data)
        assert np.all(res.best.act(x) == 1)
        assert res.best_value == pytest.approx(1.0)

    def test_exact_matches_xspace_enumeration_d2(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = 30
            data, pseudo = plain_data(rng, n, 2)
            w = WeightScheme.from_raw("w", rng.uniform(0.2, 2.0, n))
            res = learn_linear(w, pseudo, data)
            oracle = _xspace_best_value(data.covariates, w.weights, pseudo.values)
            assert res.best_value == pytest.approx(oracle, abs=1e-12)

    def test_approximate_path_flagged_and_close(self):
        rng = np.random.default_rng(6)
        n = 80
        data, pseudo = plain_data(rng, n, 1)
        w = uniform_weights(n)
        exact = learn_linear(w, pseudo, data)
        approx = learn_linear(w, pseudo, data, seed=1, force_approx=True)
        assert not approx.exact
        assert approx.best_value <= exact.best_value + 1e-12
        # in 1-d the coordinate sweep covers every threshold, so it ties
        assert approx.best_value == pytest.approx(exact.best_value, abs=1e-12)

    def test_weight_scaling_leaves_policy_unchanged(self):
        rng = np.random.default_rng(9)
        n = 50
        data, pseudo = plain_data(rng, n, 2)
        raw = rng.uniform(0.2, 2.0, n)
        r1 = learn_linear(WeightScheme.from_raw("a", raw), pseudo, data)
        r2 = learn_linear(WeightScheme.from_raw("b", 0.1 * raw), pseudo, data)
        assert np.array_equal(r1.best.theta, r2.best.theta)
        assert r1.best_value == pytest.approx(r2.best_value, rel=1e-12)

    @pytest.mark.parametrize(
        "n, d, tried",
        [(600, 1, True), (500, 2, True), (501, 2, False), (105, 3, True), (106, 3, False),
         (41, 4, True), (42, 4, False)],
    )
    def test_exact_search_is_bounded_by_its_work(self, monkeypatch, n, d, tried):
        # d=1 is an O(n log n) sweep at any n; d>=2 costs ~n^(d+1).
        calls = []

        def sweep(data, base, gain):
            calls.append(1)
            return [LinearPolicy(theta=np.array([1.0, 0.0]))]

        def cells(z, gain, tol, rank_tol):  # a better labeling was lost: the heuristic answers
            calls.append(1)
            return 0.0, np.eye(z.shape[1])[0], 1.0

        monkeypatch.setattr(policy_module, "_learn_threshold_1d", sweep)
        monkeypatch.setattr(policy_module, "_best_cell", cells)
        data, pseudo = plain_data(np.random.default_rng(0), n, d)
        res = learn_linear(uniform_weights(n), pseudo, data)
        assert bool(calls) == tried
        assert res.exact == (d == 1)

    @pytest.mark.parametrize(
        "n, d, force_approx, lift, intercepts, scaled",
        [(30, 1, False, True, 0, 0), (30, 1, True, True, 1, 0), (30, 2, False, True, 1, 1),
         (30, 2, False, False, 1, 1), (30, 2, True, True, 1, 0), (200, 3, False, True, 1, 0)],
        ids=["d1", "d1-heuristic", "d2", "d2-hand-off", "d2-heuristic", "d3-past-the-gate"],
    )
    def test_one_setup_per_search(self, monkeypatch, n, d, force_approx, lift, intercepts, scaled):
        # The gains and the design [1, x] are built once per search, also when
        # the exact d>=2 search hands off to the heuristic (no cell realized),
        # and the scaled design once where the exact d>=2 search runs.
        calls = []

        def counted(name, real):
            return lambda *args: calls.append(name) or real(*args)

        monkeypatch.setattr(policy_module, "_gains", counted("gains", policy_module._gains))
        monkeypatch.setattr(policy_module, "add_intercept",
                            counted("add_intercept", policy_module.add_intercept))
        monkeypatch.setattr(policy_module, "_scaled_design",
                            counted("scaled", policy_module._scaled_design))
        if not lift:
            monkeypatch.setattr(policy_module, "_lift", lambda *args: None)
        data, pseudo = plain_data(np.random.default_rng(4), n, d)
        res = learn_linear(uniform_weights(n), pseudo, data, force_approx=force_approx)
        assert res.exact == (lift and not force_approx and n ** (d + 1) <= policy_module.EXACT_MAX_WORK)
        assert calls.count("gains") == 1
        assert calls.count("add_intercept") == intercepts
        assert calls.count("scaled") == scaled

    def test_d3_beyond_the_work_bound_returns_the_heuristic(self):
        # The exact search took ~9 s here on 2 vCPUs; the heuristic ~0.2 s.
        data, pseudo = plain_data(np.random.default_rng(1), 200, 3)
        res = learn_linear(uniform_weights(200), pseudo, data)
        assert not res.exact
        assert res.best_value == weighted_value(res.best, uniform_weights(200), pseudo, data)

    def test_d1_sweep_is_exact_beyond_500_rows(self):
        data, pseudo = plain_data(np.random.default_rng(2), 2000, 1)
        assert learn_linear(uniform_weights(2000), pseudo, data).exact

    def test_requires_binary(self):
        rng = np.random.default_rng(10)
        n = 20
        data = Dataset(
            covariates=rng.uniform(-1, 1, (n, 1)),
            actions=rng.integers(0, 3, n),
            outcomes=np.zeros(n),
            m=3,
        )
        pseudo = PseudoOutcomes(values=np.zeros((n, 3)))
        with pytest.raises(ValidationError, match="m=2"):
            learn_linear(uniform_weights(n), pseudo, data)

    def test_integer_grid_optimum_is_exact_d2(self):
        # Tied and duplicated grid points: the optimum is found and realized.
        rng = np.random.default_rng(0)
        x = rng.integers(0, 4, (40, 2)).astype(float)
        pseudo = PseudoOutcomes(values=rng.normal(size=(40, 2)))
        data = Dataset(covariates=x, actions=np.zeros(40, int), outcomes=np.zeros(40), m=2)
        w = uniform_weights(40)
        res = learn_linear(w, pseudo, data, seed=3)
        approx = learn_linear(w, pseudo, data, seed=3, force_approx=True)
        assert res.exact
        assert res.best_value >= approx.best_value
        assert res.best_value == weighted_value(res.best, w, pseudo, data)

    def test_constant_covariate_reduces_to_the_1d_search(self):
        # x1 is constant in the sample, so every hyperplane through two rows
        # holds many more rows; the optimum is the threshold search on x2.
        n = 40
        x2 = np.random.default_rng(0).uniform(-1, 1, n)
        psi = np.column_stack([np.zeros(n), x2 - 0.2])
        w = uniform_weights(n)
        both = Dataset(covariates=np.column_stack([np.ones(n), x2]), actions=np.zeros(n, int),
                       outcomes=np.zeros(n), m=2)
        only = Dataset(covariates=x2[:, None], actions=np.zeros(n, int), outcomes=np.zeros(n), m=2)
        res = learn_linear(w, PseudoOutcomes(values=psi), both)
        one_d = learn_linear(w, PseudoOutcomes(values=psi), only)
        assert res.exact
        assert one_d.best_value == 0.18904982289803426
        assert res.best_value == one_d.best_value

    @staticmethod
    def _coincident_rows():
        # Two distinct points, each repeated: (1, 1) gains 0 + 0 + 1 + 2 and
        # (1, 0) gains -2 - 2 + 2, so treating (1, 1) alone is worth 3.
        x = np.array([(1.0, 1.0), (1.0, 0.0)] * 3 + [(1.0, 1.0)])
        gain = np.array([0.0, -2.0, 0.0, -2.0, 1.0, 2.0, 2.0])
        data = Dataset(covariates=x, actions=np.zeros(7, int), outcomes=np.zeros(7), m=2)
        return data, PseudoOutcomes(values=np.column_stack([np.zeros(7), 7.0 * gain]))

    def test_coincident_rows_share_one_label(self):
        data, pseudo = self._coincident_rows()
        res = learn_linear(uniform_weights(7), pseudo, data)
        assert res.exact
        assert res.best_value == 3.0
        assert np.array_equal(res.best.act(data.covariates), [1, 0, 1, 0, 1, 0, 1])

    def test_unrealized_optimum_falls_back_to_heuristic(self, monkeypatch):
        # When no cell better than a constant can be realized numerically, the
        # lost optimum (3.0) turns exact off and the heuristic's result returns.
        monkeypatch.setattr(policy_module, "_lift", lambda *args: None)
        data, pseudo = self._coincident_rows()
        w = uniform_weights(7)
        res = learn_linear(w, pseudo, data, seed=3)
        approx = learn_linear(w, pseudo, data, seed=3, force_approx=True)
        assert not res.exact
        assert res.best.theta.tobytes() == approx.best.theta.tobytes()

    def test_nearby_points_are_separated(self):
        # Points 1e-10 apart are distinct rows: the rule that treats only the
        # first one is found and realized.
        x = np.array([[0.0, 0.0], [1e-10, 0.0], [1.0, 1.0]])
        psi = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 0.0]])
        data = Dataset(covariates=x, actions=np.zeros(3, int), outcomes=np.zeros(3), m=2)
        res = learn_linear(uniform_weights(3), PseudoOutcomes(values=psi), data)
        assert res.exact
        assert np.array_equal(res.best.act(x)[:2], [1, 0])

    @pytest.mark.parametrize(
        "x, gain, best",
        [
            # 1e-12 apart, rows 0 and 1 are merged (value 0) although treating
            # row 0 alone is worth 1/3.
            ([[0.0, 0.0], [1e-12, 0.0], [1.0, 1.0]], [1.0, -1.0, 0.0], 1.0 / 3.0),
            # Row 2 sits 1e-12 above the line through rows 0 and 1; treating
            # rows 2 and 3 is worth 1/4.
            ([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-12], [0.0, 1.0]], [-1.0, -1.0, 1.0, 0.0], 0.25),
            # 2e-14 off the line: 2% of the band, below the band of singular values.
            ([[0.0, 0.0], [1.0, 0.0], [0.5, 2e-14], [0.0, 1.0]], [-1.0, -1.0, 1.0, 0.0], 0.25),
            # All rows within the band of the line x2 = x1: the design's rank is in doubt.
            ([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5 + 1e-12]], [-1.0, -1.0, 1.0], 1.0 / 3.0),
        ],
        ids=["near-duplicate", "near-collinear", "two-percent-of-the-band", "rank-in-doubt"],
    )
    def test_points_inside_the_tolerance_band_are_not_certified(self, x, gain, best):
        # Rows inside the band around a hyperplane but off it by more than
        # rounding noise may be given one label they need not share, so the
        # result must not claim to be exact.
        x = np.array(x)
        n = x.shape[0]
        psi = np.column_stack([np.zeros(n), gain])
        data = Dataset(covariates=x, actions=np.zeros(n, int), outcomes=np.zeros(n), m=2)
        w, pseudo = uniform_weights(n), PseudoOutcomes(values=psi)
        res = learn_linear(w, pseudo, data)
        assert not res.exact
        assert res.best_value == weighted_value(res.best, w, pseudo, data)
        assert res.best_value <= best

    def test_a_column_far_below_the_others_is_rescaled(self):
        # x2 (largest entry 1e-12) used to fall inside the band of x1's line
        # and leave the design's rank in doubt; scaled by a power of two, it
        # separates row 2, and treating it alone is certified.
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-12]])
        psi = np.column_stack([np.zeros(3), [-1.0, -1.0, 1.0]])
        data = Dataset(covariates=x, actions=np.zeros(3, int), outcomes=np.zeros(3), m=2)
        w, pseudo = uniform_weights(3), PseudoOutcomes(values=psi)
        res = learn_linear(w, pseudo, data)
        assert res.exact
        assert res.best_value == 1.0 / 3.0
        assert res.best_value == weighted_value(res.best, w, pseudo, data)

    def test_a_subnormal_column_keeps_the_optimum(self):
        # Integers times 2^-1060 are exact subnormal floats. That column's
        # power-of-two scale would pass 2^1022, so every column's scale
        # shrinks by one factor and theta stays finite.
        rng = np.random.default_rng(7)
        x = rng.integers(-1000, 1000, (25, 2)).astype(float)
        pseudo = PseudoOutcomes(values=np.column_stack([np.zeros(25), rng.standard_normal(25)]))
        w = uniform_weights(25)
        plain, tiny = (
            learn_linear(w, pseudo, Dataset(covariates=c, actions=np.zeros(25, int),
                                            outcomes=np.zeros(25), m=2))
            for c in (x, x * np.array([1.0, 2.0 ** -1060]))
        )
        assert plain.exact and tiny.exact
        assert tiny.best_value == plain.best_value

    def test_labels_lost_to_the_column_scale_are_not_certified(self, monkeypatch):
        # x1 (half-range 2^1020) is divided by s = 2^1021 in the scaled
        # design. A theta_1 of 1e-20 there maps back to 1e-20 * 2^-1021 on
        # [1, x], which rounds to 0, so rows 0 and 2 lose the label the
        # search gave them.
        theta = np.array([0.0, 1e-20, 1.0])
        monkeypatch.setattr(policy_module, "_best_cell", lambda *args: (0.0, theta, -np.inf))
        x = np.column_stack([[2.0 ** 1020, -2.0 ** 1020, 2.0 ** 1019], np.zeros(3)])
        data = Dataset(covariates=x, actions=np.zeros(3, int), outcomes=np.zeros(3), m=2)
        res = learn_linear(uniform_weights(3), PseudoOutcomes(values=np.zeros((3, 2))), data)
        assert res.best.theta[1] == 0.0
        assert not res.exact

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(5, 29))
    def test_covariate_scale_keeps_the_optimum(self, seed, n):
        # The d>=2 search used to take a column far below the largest one for
        # rounding noise: at x * 1e15 it returned a lower value flagged exact.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 2))
        pseudo = PseudoOutcomes(values=np.column_stack([np.zeros(n), rng.standard_normal(n)]))
        w = WeightScheme.from_raw("raw", rng.uniform(0.2, 2.0, n))

        def run(covariates):
            data = Dataset(covariates=covariates, actions=np.zeros(n, int), outcomes=np.zeros(n), m=2)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                return learn_linear(w, pseudo, data)

        plain = run(x)
        assume(plain.exact)
        for scale in (1e15, 1e-15, 1e300, 1e-300, np.array([1e7, 1e-7])):
            res = run(x * scale)
            assert not res.exact or res.best_value == plain.best_value, scale
        # On a dyadic grid (spread ~2^-8, steps of 2^-24), grid + 2^13 and
        # grid * 2^k have the grid's scaled design bit for bit, so the search
        # gives its labels, value bits and exact flag; on [1, x] the shifted
        # grid lost the flag in over half the draws.
        grid = np.round(x * 2.0 ** 16) / 2.0 ** 24
        on_grid = run(grid)
        assume(on_grid.exact)
        for moved in (grid + 2.0 ** 13, grid * 2.0 ** 40, grid * 2.0 ** -40, grid * 2.0 ** 900):
            res = run(moved)
            assert res.exact
            assert res.best_value.hex() == on_grid.best_value.hex()
            assert np.array_equal(res.best.act(moved), on_grid.best.act(grid))

    def test_band_check_keeps_the_search_result(self):
        # Near-collinear rows (1e-10 off a line) fall inside the band of some
        # hyperplanes; the flag turns off `exact`, and the theta and value stay
        # the ones the search found on the scaled design [1, (x - c) / s],
        # mapped back to [1, x].
        rng = np.random.default_rng(12)
        x1 = rng.uniform(-1, 1, 40)
        x = np.column_stack([x1, 2.0 * x1 + 0.5 + 1e-10 * rng.standard_normal(40)])
        data = Dataset(covariates=x, actions=np.zeros(40, int), outcomes=np.zeros(40), m=2)
        pseudo, w = PseudoOutcomes(values=rng.standard_normal((40, 2))), uniform_weights(40)
        res = learn_linear(w, pseudo, data)
        _, (gain,) = policy_module._gains([w], pseudo, data)
        z, shift, scale = _scaled_design(x)
        tol = 1e-12
        value, theta, lost = policy_module._best_cell(z, gain, tol, 2.0 * tol * np.sqrt(40))
        raw = np.append(theta[0], theta[1:] / scale)
        raw[0] -= raw[1:] @ shift
        assert lost == np.inf
        assert not res.exact
        assert res.best.theta.tobytes() == raw.tobytes()
        assert res.best_value == weighted_value(res.best, w, pseudo, data)

    @pytest.mark.parametrize(
        "x, gain, seed",
        [
            # A breakpoint -rest / x_j at x = 5e-324 overflows.
            ([[1.0], [1e308], [5e-324], [1.0], [-1.5e308]], [0.125, -0.125, 0.625, 0.125, -0.5], 0),
            # A midpoint between two breakpoints near -1e308 overflows.
            ([[1e300, -1e300], [1e300, -1e300], [1.7e308, 1e300], [-1.7e308, 1e308], [2.0, 0.5],
              [1.0, 1.0]], [-2.125, 0.125, -0.75, -2.125, 0.125, 1.875], 66),
        ],
        ids=["breakpoint", "midpoint"],
    )
    def test_heuristic_skips_breakpoints_that_overflow(self, x, gain, seed):
        # The coordinate search used to return a NaN theta here.
        x = np.array(x)
        n = x.shape[0]
        data = Dataset(covariates=x, actions=np.zeros(n, int), outcomes=np.zeros(n), m=2)
        psi = np.column_stack([np.zeros(n), gain])
        w, pseudo = uniform_weights(n), PseudoOutcomes(values=psi)
        with np.errstate(over="ignore", invalid="ignore"):
            res = learn_linear(w, pseudo, data, seed=seed, force_approx=True)
            value = weighted_value(res.best, w, pseudo, data)
        assert not res.exact
        assert np.all(np.isfinite(res.best.theta))
        assert np.linalg.norm(res.best.theta) == pytest.approx(1.0)
        assert res.best_value == value

    @pytest.mark.parametrize("d, force_approx", [(1, False), (2, False), (1, True), (2, True)],
                             ids=["d1", "d2-exact", "d1-heuristic", "d2-heuristic"])
    def test_scores_whose_values_overflow_are_invalid(self, d, force_approx):
        # Scores alternating +-1.7e308 are finite, their effect score is not:
        # the search used to return best_value=nan, flagged exact=True at d=2.
        n = 30
        rng = np.random.default_rng(5)
        data = Dataset(covariates=rng.uniform(-1, 1, (n, d)), actions=np.arange(n) % 2,
                       outcomes=np.zeros(n), m=2)
        sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        w = uniform_weights(n)
        huge = PseudoOutcomes(values=np.column_stack([-1.7e308 * sign, 1.7e308 * sign]))
        with pytest.raises(ValidationError, match="weighted scores too large"):
            learn_linear(w, huge, data, force_approx=force_approx)
        # A hundredth as large, the absolute weighted scores sum to ~1e308 and
        # the search runs as before.
        small = PseudoOutcomes(values=huge.values / 100)
        res = learn_linear(w, small, data, force_approx=force_approx)
        assert np.isfinite(res.best_value)
        assert res.best_value == weighted_value(res.best, w, small, data)
        assert res.exact == (not force_approx)

    def test_unit_scaling_of_a_theta_beyond_1e154(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the first norm overflows without a word
            theta = policy_module._unit(np.array([1e300, -1e300, 0.0]))
        assert theta.tolist() == [0.7071067811865475, -0.7071067811865475, 0.0]

    @settings(max_examples=120, deadline=None)
    @given(_degenerate_instances())
    def test_matches_lp_brute_force_d2_d3(self, instance):
        pytest.importorskip("scipy")
        data, pseudo, w = instance
        res = learn_linear(w, pseudo, data)
        assert res.best_value == weighted_value(res.best, w, pseudo, data)
        if res.exact:
            assert res.best_value == pytest.approx(_lp_best_value(data, pseudo, w), abs=1e-9)
            approx = learn_linear(w, pseudo, data, seed=0, force_approx=True)
            assert res.best_value >= approx.best_value - 1e-12

    @pytest.mark.parametrize("noise", [1e-10, 1e-8])
    def test_near_collinear_covariates_return(self, noise):
        rng = np.random.default_rng(12)
        n = 40
        x1 = rng.uniform(-1, 1, n)
        x = np.column_stack([x1, 2.0 * x1 + 0.5 + noise * rng.standard_normal(n)])
        data, pseudo = plain_data(rng, n, 2)
        data = Dataset(covariates=x, actions=data.actions, outcomes=data.outcomes, m=2)
        w = uniform_weights(n)
        res = learn_linear(w, pseudo, data)
        assert res.best_value == weighted_value(res.best, w, pseudo, data)
        if res.exact:
            assert res.best_value >= learn_linear(w, pseudo, data, force_approx=True).best_value


def _realizable_threshold_labelings(x):
    """Every 0/1 labeling of the rows that some 1-d rule sign(t0 + t1 x)
    realizes: all labelings, kept when equal x share a label and the labels
    are monotone in x (either direction)."""
    order = np.argsort(x, kind="stable")
    for bits in product((False, True), repeat=x.size):
        labels = np.array(bits)
        in_order = labels[order].astype(int)
        if np.any((x[order][1:] == x[order][:-1]) & (in_order[1:] != in_order[:-1])):
            continue
        steps = np.diff(in_order)
        if np.all(steps >= 0) or np.all(steps <= 0):
            yield labels


def _matrix_threshold_oracle(w, pseudo, data):
    """Reference form of the d=1 exact search: a dense (2k + 4) x n label
    matrix of every candidate (2 constants, then upper and lower rules at
    k + 1 cuts), scored by one matrix product; among rows at the maximum,
    the lexicographically smallest realizing unit theta."""
    x = data.covariates[:, 0]
    z = np.column_stack([np.ones(data.n), x])
    base = float(np.mean(w.weights * pseudo.values[:, 0]))
    gain = w.weights * (pseudo.values[:, 1] - pseudo.values[:, 0]) / data.n
    distinct = np.unique(x)
    cuts = np.concatenate(
        [[distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0, [distinct[-1] + 1.0]]
    )
    upper = x[None, :] > cuts[:, None]
    label_rows = np.vstack([np.ones(data.n, bool), np.zeros(data.n, bool), upper, ~upper])
    thetas = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
    thetas += [np.array([-c, 1.0]) for c in cuts] + [np.array([c, -1.0]) for c in cuts]
    values = base + label_rows @ gain
    best = None
    for r in np.flatnonzero(values == values.max()):
        if not np.array_equal(z @ thetas[r] > 0, label_rows[r]):
            continue
        theta = thetas[r] / np.linalg.norm(thetas[r])
        if best is None or tuple(theta) < tuple(best):
            best = theta
    return best


_grid_x = st.lists(st.integers(-3, 3), min_size=1, max_size=9).map(
    lambda v: np.array(v, dtype=float) / 2.0
)


@st.composite
def _threshold_instances(draw):
    x = draw(_grid_x)
    n = x.size
    gains = draw(st.sampled_from(["zero", "equal", "integer", "float"]))
    if gains == "zero":
        psi = np.full((n, 2), draw(st.integers(-2, 2)), dtype=float)
    elif gains == "equal":
        psi = np.column_stack([np.zeros(n), np.full(n, draw(st.sampled_from([-1.0, 0.5, 2.0])))])
    elif gains == "integer":
        psi = np.array(draw(st.lists(st.integers(-2, 2), min_size=2 * n, max_size=2 * n)), float)
        psi = psi.reshape(n, 2)
    else:
        psi = np.array(
            draw(st.lists(st.floats(-3, 3, allow_nan=False), min_size=2 * n, max_size=2 * n))
        ).reshape(n, 2)
    raw = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(lambda r: sum(r) > 0))
    data = Dataset(covariates=x[:, None], actions=np.zeros(n, int), outcomes=np.zeros(n), m=2)
    return data, PseudoOutcomes(values=psi), WeightScheme.from_raw("w", np.array(raw, float))


class TestThresholdSearch1d:
    @settings(max_examples=150, deadline=None)
    @given(_threshold_instances())
    def test_matches_brute_force_over_realizable_labelings(self, instance):
        data, pseudo, w = instance
        rows = np.arange(data.n)
        brute = max(
            float(np.mean(w.weights * pseudo.values[rows, labels.astype(int)]))
            for labels in _realizable_threshold_labelings(data.covariates[:, 0])
        )
        res = learn_linear(w, pseudo, data)
        assert res.exact
        assert res.best_value == pytest.approx(brute, abs=1e-12)
        # the returned theta realizes a labeling that attains the maximum
        assert weighted_value(res.best, w, pseudo, data) == pytest.approx(brute, abs=1e-12)
        assert np.linalg.norm(res.best.theta) == pytest.approx(1.0)
        approx = learn_linear(w, pseudo, data, seed=0, force_approx=True)
        assert res.best_value >= approx.best_value - 1e-12
        if not np.any(w.weights * (pseudo.values[:, 1] - pseudo.values[:, 0])):
            # every candidate ties exactly: the tie rule alone picks theta
            oracle = _matrix_threshold_oracle(w, pseudo, data)
            assert res.best.theta.tobytes() == oracle.tobytes()

    def test_cut_between_adjacent_floats(self):
        # The midpoint of two adjacent floats rounds onto one of them; the
        # rule x > c at that cut still separates them and is scored as such.
        x = np.array([[1.0], [np.nextafter(1.0, 2.0)]])
        data = Dataset(covariates=x, actions=np.zeros(2, int), outcomes=np.zeros(2), m=2)
        pseudo = PseudoOutcomes(values=np.array([[0.0, -1.0], [0.0, 1.0]]))
        res = learn_linear(uniform_weights(2), pseudo, data)
        assert np.array_equal(res.best.act(x), [0, 1])
        assert res.best_value == 0.5
        oracle = _matrix_threshold_oracle(uniform_weights(2), pseudo, data)
        assert res.best.theta.tobytes() == oracle.tobytes()

    def test_lower_cut_on_a_data_value(self):
        # The midpoint of 0 and 5e-324 rounds to 0, so x <= c is realized
        # only by a theta whose offset is the next float above c.
        x = np.array([[0.0], [5e-324]])
        data = Dataset(covariates=x, actions=np.zeros(2, int), outcomes=np.zeros(2), m=2)
        pseudo = PseudoOutcomes(values=np.array([[0.0, 1.0], [0.0, -1.0]]))
        res = learn_linear(uniform_weights(2), pseudo, data)
        assert res.exact
        assert res.best_value == 0.5
        assert np.array_equal(res.best.act(x), [1, 0])

    def test_cut_lost_by_unit_scaling_keeps_the_unscaled_theta(self):
        # x <= 1e17 against 1e17 + 16 (one ulp apart) is realized by
        # [1e17 + 16, -1] but not by its unit vector, so that theta is returned.
        x = np.array([[1e17], [1e17 + 16]])
        data = Dataset(covariates=x, actions=np.zeros(2, int), outcomes=np.zeros(2), m=2)
        pseudo = PseudoOutcomes(values=np.array([[0.0, 1.0], [0.0, -1.0]]))
        w = uniform_weights(2)
        res = learn_linear(w, pseudo, data)
        assert res.exact
        assert res.best_value == 0.5 == weighted_value(res.best, w, pseudo, data)
        assert res.best.theta.tobytes() == np.array([1e17 + 16, -1.0]).tobytes()
        assert np.array_equal(res.best.act(x), [1, 0])

    def test_tie_goes_to_a_unit_norm_theta_before_an_unscaled_one(self):
        # Treating only x = -1e17 ties with treating no row. The unscaled
        # [-1e17, 1] (x > 1e17 + 32: no row) is lexicographically smaller, but
        # the unit-norm theta that realizes the first labeling is returned, as
        # it was before unscaled thetas were kept.
        x = np.array([[-1e17], [1e17 + 32], [1e17 + 16]])
        data = Dataset(covariates=x, actions=np.zeros(3, int), outcomes=np.zeros(3), m=2)
        pseudo = PseudoOutcomes(values=np.array([[-3.0, -3.0], [-3.0, -3.0], [1.0, 0.0]]))
        res = learn_linear(WeightScheme.from_raw("w", np.array([2.0, 1.0, 2.0])), pseudo, data)
        assert res.exact
        assert res.best.theta[0] == -1.0
        assert np.linalg.norm(res.best.theta) == pytest.approx(1.0)
        assert np.array_equal(res.best.act(x), [1, 0, 0])

    @pytest.mark.parametrize(
        "x, psi, labels",
        [
            # The midpoint of 1 + 2^-52 and 1 + 2^-51 rounds onto the upper value.
            ([1.0 + 2.0**-52, 1.0 + 2.0**-51], [[0.0, -1.0], [0.0, 1.0]], [0, 1]),
            # The midpoint of 1e308 and 1.5e308 overflows.
            ([1e308, 1.5e308], [[0.0, -1.0], [0.0, 1.0]], [0, 1]),
            ([-1.5e308, -1e308], [[0.0, 1.0], [0.0, -1.0]], [1, 0]),
            # The midpoint of -5e-324 and 0 rounds to -0.0, which equals 0.
            ([-5e-324, 0.0], [[0.0, -1.0], [0.0, 1.0]], [0, 1]),
        ],
        ids=["rounds-up", "overflows", "overflows-below", "negative-zero"],
    )
    def test_split_whose_midpoint_is_no_cut(self, x, psi, labels):
        x = np.array(x)[:, None]
        data = Dataset(covariates=x, actions=np.zeros(2, int), outcomes=np.zeros(2), m=2)
        pseudo = PseudoOutcomes(values=np.array(psi))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = learn_linear(uniform_weights(2), pseudo, data)
        assert res.exact
        assert res.best_value == 0.5
        assert np.array_equal(res.best.act(x), labels)

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.lists(st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51,
                             1e17, 1e17 + 16, -1e17, 1e150, 1e308, 1.5e308, -1.5e308]),
            st.floats(allow_nan=False, allow_infinity=False),
        ), min_size=1, max_size=7),
        data=st.data(),
    )
    def test_exact_at_any_scale_of_x(self, x, data):
        # Every realizable labeling keeps a candidate, and an exact result's
        # value is the one LinearPolicy.act realizes.
        n = len(x)
        psi = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=2 * n, max_size=2 * n)),
                       float).reshape(n, 2)
        raw = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
        x = np.array(x)
        sample = Dataset(covariates=x[:, None], actions=np.zeros(n, int), outcomes=np.zeros(n), m=2)
        pseudo, w = PseudoOutcomes(values=psi), WeightScheme.from_raw("w", np.array(raw, float))
        with np.errstate(all="ignore"):  # unit-norm scaling and margins overflow
            res = learn_linear(w, pseudo, sample)
            realized = weighted_value(res.best, w, pseudo, sample)
        brute = max(
            float(np.mean(w.weights * psi[np.arange(n), labels.astype(int)]))
            for labels in _realizable_threshold_labelings(x)
        )
        assert res.exact
        assert res.best_value == pytest.approx(brute, abs=1e-12)
        assert res.best_value == realized

    @pytest.mark.parametrize("scenario", default_scenarios(), ids=lambda s: s.name)
    def test_same_theta_bits_as_matrix_search_on_default_grid(self, scenario):
        for seed in (0, 1, 2):
            data = generate(scenario, 500, seed)
            nuis = cross_fit(data, make_folds(data.n, 2, seed=seed))
            pseudo = dr_pseudo_outcomes(data, nuis)
            for spec in DEFAULT_SCHEMES:
                w = make_weights(spec, nuis)
                res = learn_linear(w, pseudo, data)
                oracle = _matrix_threshold_oracle(w, pseudo, data)
                assert res.best.theta.tobytes() == oracle.tobytes(), (seed, spec)


@st.composite
def _multi_scheme_instances(draw):
    data, pseudo, w = draw(_threshold_instances())
    raws = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=data.n, max_size=data.n).filter(lambda r: sum(r) > 0),
        min_size=1, max_size=4,
    ))
    return data, pseudo, [w] + [WeightScheme.from_raw("w", np.array(r, float)) for r in raws]


def _assert_same_result(got, expected):
    assert got.best.theta.tobytes() == expected.best.theta.tobytes()
    assert np.float64(got.best_value).tobytes() == np.float64(expected.best_value).tobytes()
    assert got.exact == expected.exact


class TestSharedSweep:
    """Repeated searches on one dataset give the bits of a search on a fresh
    copy of it: nothing one search builds carries into the next."""

    @settings(max_examples=150, deadline=None)
    @given(_multi_scheme_instances())
    def test_shared_sweep_gives_the_unshared_result(self, instance):
        data, pseudo, schemes = instance
        for w in schemes:
            _assert_same_result(learn_linear(w, pseudo, data),
                                learn_linear(w, pseudo, replace(data)))

    @pytest.mark.parametrize(
        "x, psi",
        [
            ([1.0, np.nextafter(1.0, 2.0)], [[0.0, -1.0], [0.0, 1.0]]),
            ([0.0, 5e-324], [[0.0, 1.0], [0.0, -1.0]]),
            ([1e17, 1e17 + 16], [[0.0, 1.0], [0.0, -1.0]]),  # an unscaled theta
            ([-1e150, 0.0, -0.0, 1e150], [[0.0, 1.0], [0.0, -1.0], [0.0, 2.0], [0.0, -0.5]]),
        ],
        ids=["adjacent-floats", "subnormal-cut", "lost-cut", "extremes"],
    )
    def test_shared_sweep_on_edge_inputs(self, x, psi):
        n = len(x)
        data = Dataset(covariates=np.array(x)[:, None], actions=np.zeros(n, int),
                       outcomes=np.zeros(n), m=2)
        pseudo = PseudoOutcomes(values=np.array(psi))
        for raw in ([1.0] * n, [3.0] + [1.0] * (n - 1), [1.0] * (n - 1) + [0.0]):
            w = WeightScheme.from_raw("w", np.array(raw))
            _assert_same_result(learn_linear(w, pseudo, data),
                                learn_linear(w, pseudo, replace(data)))

    def test_another_dataset_never_reuses_the_sweep(self):
        rng = np.random.default_rng(12)
        first, pseudo = plain_data(rng, 40, 1)
        # Same size, other covariates: the first dataset's order and cuts
        # would score the second wrongly.
        second = Dataset(covariates=rng.uniform(-1, 1, (40, 1)), actions=first.actions,
                         outcomes=first.outcomes, m=2)
        w = uniform_weights(40)
        unshared = {id(data): learn_linear(w, pseudo, data) for data in (first, second)}
        for data in (first, second, first):
            _assert_same_result(learn_linear(w, pseudo, data), unshared[id(data)])
            _assert_same_result(learn_linear(w, pseudo, replace(data)), unshared[id(data)])


_act_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
)


class TestLinearPolicyAct:
    @settings(max_examples=300, deadline=None)
    @given(
        theta=st.tuples(_act_floats, _act_floats),
        x=st.lists(_act_floats, min_size=1, max_size=12),
    )
    def test_one_column_matches_the_matmul_rule(self, theta, x):
        theta, x = np.array(theta), np.array(x)[:, None]
        with np.errstate(all="ignore"):  # products beyond 1e308 overflow either way
            expected = (theta[0] + x @ theta[1:] > 0).astype(int)
            got = LinearPolicy(theta).act(x)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("t0", [-0.0, 0.0, 5e-324, -5e-324])
    @pytest.mark.parametrize("t1", [-0.0, 0.0, 1.0, -1.0, 1e308, -5e-324])
    def test_signed_zeros_and_subnormals(self, t0, t1):
        x = np.array([[0.0], [-0.0], [5e-324], [-5e-324], [1e308], [-1e308], [1.0]])
        theta = np.array([t0, t1])
        with np.errstate(all="ignore"):
            expected = (theta[0] + x @ theta[1:] > 0).astype(int)
            got = LinearPolicy(theta).act(x)
        assert np.array_equal(got, expected)


def _xspace_best_value(x, w, psi):
    """Independent enumeration for d=2: lines through pairs of sample points,
    both orientations, each anchor point assigned to either side."""
    n = x.shape[0]
    rows = np.arange(n)

    def value(labels):
        return float(np.mean(w * psi[rows, labels]))

    best = max(value(np.ones(n, int)), value(np.zeros(n, int)))
    for i in range(n):
        for j in range(i + 1, n):
            edge = x[j] - x[i]
            normal = np.array([-edge[1], edge[0]])
            if np.allclose(normal, 0):
                continue
            side = (x - x[i]) @ normal
            for orient in (1.0, -1.0):
                labels = (orient * side > 0).astype(int)
                for si in (0, 1):
                    for sj in (0, 1):
                        labels[i], labels[j] = si, sj
                        best = max(best, value(labels))
    return best


class TestTrueRegret:
    def _scenario(self):
        return ScenarioSpec(
            name="toy",
            d=1,
            m=2,
            covariate_law="uniform",
            propensity_coef=np.array([[0.0, 0.0], [0.0, 1.0]]),
            mean_coef=np.array([[0.0, 0.0], [0.0, 0.5]]),
            noise_sd=np.array([1.0, 1.0]),
        )

    def test_oracle_policy_zero_regret(self):
        scenario = self._scenario()
        oracle = LinearPolicy(np.array([0.0, 1.0]))  # argmax of the true means
        assert true_regret(oracle, scenario, n_eval=50_000, seed=1) == 0.0

    def test_worst_policy_equals_mean_spread(self):
        scenario = self._scenario()
        worst = LinearPolicy(np.array([0.0, -1.0]))  # pointwise argmin
        reg = true_regret(worst, scenario, n_eval=400_000, seed=2)
        # E[spread] = E[0.5 |X|] = 0.25 under X ~ U[-1, 1]
        assert reg == pytest.approx(0.25, abs=0.002)

    def test_self_consistency_between_runs(self):
        scenario = self._scenario()
        pi = LinearPolicy(np.array([-0.05, 1.0]))
        r1 = true_regret(pi, scenario, n_eval=1_000_000, seed=3)
        r2 = true_regret(pi, scenario, n_eval=1_000_000, seed=4)
        # shortfall std is below 0.5 here, so 3 * sqrt(2) * se is a safe band
        se = 0.5 / np.sqrt(1_000_000)
        assert abs(r1 - r2) < 3 * np.sqrt(2) * se

    def test_nonnegative(self):
        scenario = self._scenario()
        rng = np.random.default_rng(11)
        for _ in range(5):
            pi = LinearPolicy(rng.standard_normal(2))
            assert true_regret(pi, scenario, n_eval=2_000, seed=6) >= 0.0

    def test_constant_action_checked(self):
        scenario = default_scenarios()[0]
        assert true_regret(ConstantPolicy(1), scenario, n_eval=1_000) > 0.0
        with pytest.raises(ValidationError, match="nonnegative integer"):
            true_regret(ConstantPolicy(-1), scenario, n_eval=1_000)
        with pytest.raises(ValidationError, match=r"outside \{0..m-1\}"):
            true_regret(ConstantPolicy(2), scenario, n_eval=1_000)

    @staticmethod
    def _reference_true_regret(pi, scenario, n_eval=100_000, seed=0):
        """true_regret before it shared the regret sample and loss table with
        simulate: a 2-d gather of the chosen arm means."""
        rng = np.random.default_rng(seed)
        x = scenario.sample_covariates(n_eval, rng)
        mu = scenario.mean_matrix(x)
        chosen = mu[np.arange(x.shape[0]), np.asarray(pi.act(x))]
        return float((_rows(np.maximum, mu) - chosen).mean())

    @pytest.mark.parametrize("seed", [0, 1, 17, 2_024])
    def test_bits_of_the_gather_form(self, seed):
        three_arms = ScenarioSpec(
            name="m3", d=2, m=3, covariate_law="normal",
            propensity_coef=np.zeros((3, 3)),
            mean_coef=np.array([[0.0, 0.3, -0.2], [0.1, -0.5, 0.4], [-0.1, 0.2, 0.6]]),
            noise_sd=np.ones(3),
        )
        rng = np.random.default_rng(seed)
        cases = [(self._scenario(), LinearPolicy(rng.standard_normal(2))),
                 (self._scenario(), ConstantPolicy(1))]
        cases += [(three_arms, ConstantPolicy(a)) for a in range(3)]
        cases += [(three_arms, LinearPolicy(rng.standard_normal(3)))]
        for scenario, pi in cases:
            kwargs = dict(n_eval=3_001, seed=seed)
            assert true_regret(pi, scenario, **kwargs) == \
                self._reference_true_regret(pi, scenario, **kwargs)


class TestRegretActionContract:
    """true_regret and the simulate regret sample take a policy's entries off
    the loss table through the same checked gather as weighted_value."""

    @pytest.mark.parametrize("policy, message",
                             [(MinusOne(), r"outside \{0..m-1\}"),
                              (TwoPerRow(), r"shape \(1000, 2\), expected \(1000,\)")],
                             ids=["minus-one", "two-per-row"])
    def test_bad_actions_rejected(self, policy, message):
        scenario = default_scenarios()[0]
        with pytest.raises(ValidationError, match=message):
            true_regret(policy, scenario, n_eval=1_000)
        sample = policy_module._RegretSample(scenario, 1_000).draw(0)
        with pytest.raises(ValidationError, match=message):
            sample.shortfall(policy)

    def test_non_integer_actions_rejected(self):
        # As at take: a float action is not cast (0.5 never reads as arm 0).
        rng = np.random.default_rng(4)
        data, pseudo = plain_data(rng, 25, 1)
        sample = policy_module._RegretSample(default_scenarios()[0], 1_000).draw(0)
        for call in (lambda: weighted_value(HalfStep(), uniform_weights(25), pseudo, data),
                     lambda: sample.shortfall(HalfStep())):
            with pytest.raises(TypeError, match="Cannot cast"):
                call()

    def test_an_empty_sample_is_no_error(self):
        sample = policy_module._RegretSample(default_scenarios()[0], 0).draw(0)
        assert sample.shortfall(ConstantPolicy(1)).shape == (0,)


def _reference_lex_smaller(a, b):
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return False


def _reference_value(pi, scored, data):
    """weighted_value's and learn_finite's gather before the regret sample
    shared it."""
    actions = np.asarray(pi.act(data.covariates))
    if actions.shape != (data.n,):
        raise ValidationError(f"policy returned shape {actions.shape}, expected ({data.n},)")
    if actions.min() < 0 or actions.max() >= data.m:
        raise ValidationError("policy returned an action outside {0..m-1}")
    return float(np.mean(scored.take(actions * data.n + np.arange(data.n))))


def _reference_shortfall(sample, pi):
    """The regret sample's gather before it checked its actions: only an
    action past the last arm's row raised, through take's IndexError."""
    n = sample.rows.size
    idx = np.multiply(pi.act(sample.x), n, out=np.empty(n, np.intp))
    idx += sample.rows
    try:
        return sample.loss.ravel().take(idx)
    except IndexError:
        raise ValidationError("policy returned an action outside {0..m-1}") from None


def _reference_gains(w, pseudo, data):
    base = float(np.mean(w.weights * pseudo.values[:, 0]))
    return base, w.weights * (pseudo.values[:, 1] - pseudo.values[:, 0]) / data.n


def _reference_threshold_theta(w, pseudo, data):
    """The d=1 sweep's theta under its two-slot tie rule: the smallest
    unit-norm theta, else the smallest unscaled theta whose unit loses its cut."""
    base, gain = _reference_gains(w, pseudo, data)
    order, starts, cuts, below = policy_module._sweep_1d(data)
    x = data.covariates[:, 0]
    prefix = np.concatenate([[0.0], np.cumsum(np.add.reduceat(gain[order], starts))])
    total = prefix[-1]
    values = base + np.concatenate([[total, 0.0], total - prefix[below], prefix[below]])
    best = [None, None]
    for r in np.flatnonzero(values == float(values.max())):
        if r < 2:
            theta = np.array([1.0, 0.0]) if r == 0 else np.array([-1.0, 0.0])
            labels = np.full(data.n, r == 0)
        else:
            c = cuts[(r - 2) % cuts.size]
            upper = r - 2 < cuts.size
            labels = x > c if upper else ~(x > c)
            lower_c = np.nextafter(c, np.inf) if np.any(x == c) else c
            theta = np.array([-c, 1.0]) if upper else np.array([lower_c, -1.0])
        unit = policy_module._unit(theta)
        lost = not np.array_equal(unit[0] + x * unit[1] > 0, labels)
        if lost and not np.array_equal(theta[0] + x * theta[1] > 0, labels):
            continue
        theta = theta if lost else unit
        if best[lost] is None or _reference_lex_smaller(theta, best[lost]):
            best[lost] = theta
    return best[1] if best[0] is None else best[0]


def _reference_approx_theta(w, pseudo, data, seed):
    """The heuristic's theta under its running best: a higher value wins, an
    equal one goes to the lexicographically smaller unit theta."""
    z = policy_module.add_intercept(data.covariates)
    base, gain = _reference_gains(w, pseudo, data)
    rng = np.random.default_rng(seed)
    starts = [np.array([1.0] + [0.0] * data.d), np.array([-1.0] + [0.0] * data.d)]
    starts += [rng.standard_normal(data.d + 1) for _ in range(policy_module._APPROX_STARTS)]
    best_value, best_theta = -np.inf, None
    for theta in starts:
        value = base + float(gain[z @ theta > 0].sum())
        for _ in range(policy_module._APPROX_MAX_PASSES):
            improved = False
            for j in range(data.d + 1):
                theta, new_value = policy_module._refine_coordinate(z, theta, j, base, gain)
                if new_value > value + 1e-12:
                    value, improved = new_value, True
            if not improved:
                break
        cand = policy_module._unit(theta)
        if value > best_value:
            best_value, best_theta = value, cand
        elif value == best_value and _reference_lex_smaller(cand, best_theta):
            best_theta = cand
    return best_theta


def _tie_instance(x, gains):
    """x as an (n, d) dataset with scores whose effect column is `gains`
    ("zero": every candidate ties; "normal": seeded draws; "signs": +-1)."""
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    n = x.shape[0]
    rng = np.random.default_rng(n)
    effect = {"zero": np.zeros(n), "normal": rng.standard_normal(n),
              "signs": np.where(np.arange(n) % 2 == 0, 1.0, -1.0)}[gains]
    arm0 = rng.standard_normal(n)
    data = Dataset(covariates=x, actions=np.arange(n) % 2, outcomes=np.zeros(n), m=2)
    return data, PseudoOutcomes(values=np.column_stack([arm0, arm0 + effect]))


_TIE_X_1D = {
    "uniform": np.random.default_rng(0).uniform(-1, 1, 40),
    "duplicated": np.repeat(np.random.default_rng(1).uniform(-1, 1, 8), 5),
    "integer-grid": np.tile(np.arange(-2.0, 3.0), 3),
    "adjacent-floats": [1.0, np.nextafter(1.0, 2.0), 1.0, 2.0],
    "subnormal": [0.0, 5e-324, -5e-324],
    "1e17-pair": [1e17, 1e17 + 16],
    "1e17-triple": [-1e17, 1e17 + 32, 1e17 + 16],
}


class TestOneTieRuleAndGather:
    """The single gather and the min-over-keys tie rules give the bits of the
    copies they replaced: `_value`, the d=1 two-slot best and the heuristic's
    running best."""

    @staticmethod
    def _schemes(data):
        return [uniform_weights(data.n), WeightScheme.from_raw(
            "w", np.random.default_rng(data.n + 1).uniform(0.2, 3.0, data.n))]

    def _assert_same(self, res, theta, w, pseudo, data, exact):
        scored = policy_module._scored(w, pseudo, data)
        assert res.best.theta.tobytes() == theta.tobytes()
        want = _reference_value(LinearPolicy(theta=theta), scored, data)
        assert np.float64(res.best_value).tobytes() == np.float64(want).tobytes()
        assert res.exact is exact

    @pytest.mark.parametrize("x", list(_TIE_X_1D.values()), ids=list(_TIE_X_1D))
    @pytest.mark.parametrize("gains", ["zero", "normal", "signs"])
    def test_threshold_sweep_ties(self, x, gains):
        data, pseudo = _tie_instance(x, gains)
        for w in self._schemes(data):
            with np.errstate(over="ignore"):
                res = learn_linear(w, pseudo, data)
            self._assert_same(res, _reference_threshold_theta(w, pseudo, data), w, pseudo,
                              data, exact=True)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("layout", ["uniform", "duplicated", "integer-grid"])
    @pytest.mark.parametrize("gains", ["zero", "normal", "signs"])
    def test_heuristic_ties(self, d, layout, gains):
        rng = np.random.default_rng(10 * d)
        x = {"uniform": rng.uniform(-1, 1, (30, d)),
             "duplicated": np.repeat(rng.uniform(-1, 1, (6, d)), 5, axis=0),
             "integer-grid": rng.integers(-2, 3, (30, d))}[layout]
        data, pseudo = _tie_instance(x, gains)
        for w in self._schemes(data):
            for seed in (0, 3):
                res = learn_linear(w, pseudo, data, seed=seed, force_approx=True)
                self._assert_same(res, _reference_approx_theta(w, pseudo, data, seed), w,
                                  pseudo, data, exact=False)

    @pytest.mark.parametrize("m", [2, 3])
    def test_values_keep_the_gather_bits(self, m):
        rng = np.random.default_rng(70 + m)
        n = 211
        data = Dataset(covariates=rng.standard_normal((n, 2)), actions=np.arange(n) % m,
                       outcomes=np.zeros(n), m=m)
        pseudo = PseudoOutcomes(values=rng.standard_normal((n, m)))
        w = WeightScheme.from_raw("w", rng.uniform(0.05, 3.0, n))
        policies = [ConstantPolicy(a) for a in range(m)]
        policies += [LinearPolicy(rng.standard_normal(3)) for _ in range(20)]
        scored = policy_module._scored(w, pseudo, data)
        want = np.array([_reference_value(pi, scored, data) for pi in policies])
        assert learn_finite(PolicyClass(tuple(policies)), w, pseudo, data).values.tobytes() \
            == want.tobytes()
        for pi, value in zip(policies, want):
            assert np.float64(weighted_value(pi, w, pseudo, data)).tobytes() == value.tobytes()

    @pytest.mark.parametrize("policy", [ConstantPolicy(2), MinusOne(), TwoPerRow()],
                             ids=["past-the-data-arms", "minus-one", "two-per-row"])
    def test_score_matrix_wider_than_the_data_still_rejects(self, policy):
        # Three score columns over two-arm data: action 2 lies inside the
        # table but outside the data's arms.
        rng = np.random.default_rng(9)
        data, _ = plain_data(rng, 25, 1)
        pseudo = PseudoOutcomes(values=rng.standard_normal((25, 3)))
        w = uniform_weights(25)
        scored = policy_module._scored(w, pseudo, data)
        with pytest.raises(ValidationError) as want:
            _reference_value(policy, scored, data)
        for call in (lambda: weighted_value(policy, w, pseudo, data),
                     lambda: learn_finite(PolicyClass((ConstantPolicy(0), policy)), w,
                                          pseudo, data)):
            with pytest.raises(ValidationError) as got:
                call()
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_shortfall_keeps_the_reference_bits(self, seed):
        three_arms = ScenarioSpec(
            name="m3", d=2, m=3, covariate_law="normal", propensity_coef=np.zeros((3, 3)),
            mean_coef=np.array([[0.0, 0.3, -0.2], [0.1, -0.5, 0.4], [-0.1, 0.2, 0.6]]),
            noise_sd=np.ones(3),
        )
        rng = np.random.default_rng(seed)
        for scenario in (default_scenarios()[0], three_arms):
            sample = policy_module._RegretSample(scenario, 2_001).draw(seed)
            policies = [ConstantPolicy(a) for a in range(scenario.m)]
            policies += [LinearPolicy(rng.standard_normal(scenario.d + 1)) for _ in range(3)]
            for pi in policies:
                assert sample.shortfall(pi).tobytes() == _reference_shortfall(sample, pi).tobytes()


class TestPolicyClassFile:
    def test_load_mixed_lines(self, tmp_path):
        path = tmp_path / "policies.txt"
        path.write_text("# finite class\nconst,0\nconst,1\n0.5,-1.0,2.0\n")
        cls = load_policy_class(str(path))
        assert len(cls.policies) == 3
        assert isinstance(cls.policies[0], ConstantPolicy)
        assert isinstance(cls.policies[2], LinearPolicy)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "policies.txt"
        path.write_text("zero,one\n")
        with pytest.raises(ValidationError, match=":1: non-numeric"):
            load_policy_class(str(path))

    def test_rejects_non_integer_action(self, tmp_path):
        path = tmp_path / "policies.txt"
        path.write_text("const,0\nconst,abc\n")
        with pytest.raises(ValidationError, match=":2: const action must be an integer"):
            load_policy_class(str(path))

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "policies.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValidationError, match="no policies"):
            load_policy_class(str(path))


def _same_search(w, pseudo, data, **kwargs):
    """search_linear gives learn_linear's policy and flag, and learn_linear's
    value is weighted_value's for that policy, bit for bit."""
    [(best, exact)] = search_linear([w], pseudo, data, **kwargs)
    res = learn_linear(w, pseudo, data, **kwargs)
    assert best.theta.tobytes() == res.best.theta.tobytes()
    assert exact is res.exact
    assert np.float64(res.best_value).tobytes() == \
        np.float64(weighted_value(best, w, pseudo, data)).tobytes()


# Covariates where a cut's arithmetic is at its edges: the largest floats,
# subnormals, signed zeros and adjacent floats.
_EDGE_X = [np.finfo(float).max, -np.finfo(float).max, np.nextafter(np.finfo(float).max, 0.0),
           1.5e308, -1e308, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, np.nextafter(1.0, 2.0),
           np.nextafter(1.0, 0.0), 1e17, 1e17 + 16, -1e17]


class TestSearchLinear:
    """search_linear is learn_linear without the valuation."""

    @pytest.mark.parametrize("scenario", default_scenarios(), ids=lambda s: s.name)
    def test_default_grid(self, scenario):
        for seed in (0, 1):
            data = generate(scenario, 500, seed)
            nuis = cross_fit(data, make_folds(data.n, 2, seed=seed))
            pseudo = dr_pseudo_outcomes(data, nuis)
            for spec in DEFAULT_SCHEMES:
                _same_search(make_weights(spec, nuis), pseudo, data, seed=seed)

    @pytest.mark.parametrize("n", [40, 60])
    def test_d2_and_the_heuristic(self, n):
        rng = np.random.default_rng(n)
        data, pseudo = plain_data(rng, n, 2)
        for w in (uniform_weights(n), WeightScheme.from_raw("w", rng.uniform(0.1, 3.0, n))):
            _same_search(w, pseudo, data)
            _same_search(w, pseudo, data, seed=2, force_approx=True)

    def test_no_covariate_is_rejected(self):
        data = Dataset(covariates=np.empty((3, 0)), actions=np.zeros(3, int),
                       outcomes=np.zeros(3), m=2)
        with pytest.raises(ValidationError, match="at least one covariate"):
            search_linear([uniform_weights(3)], PseudoOutcomes(values=np.zeros((3, 2))), data)


def _integer_weights(rng, n):
    """Weights of 0, 1 and 2 with mean exactly 1."""
    w = np.ones(n)
    pick = rng.permutation(n)[: 2 * (n // 4)]
    w[pick[: n // 4]], w[pick[n // 4:]] = 0.0, 2.0
    return WeightScheme(kind="int", weights=w)


def _assert_stack_searches_alone(schemes, pseudo, data, **kwargs):
    got = search_linear(schemes, pseudo, data, **kwargs)
    assert isinstance(got, list) and len(got) == len(schemes)
    for w, (policy, exact) in zip(schemes, got):
        [(alone, alone_exact)] = search_linear([w], pseudo, replace(data), **kwargs)
        assert policy.theta.tobytes() == alone.theta.tobytes()
        assert exact is alone_exact


class TestStackedSearch:
    """A sequence of weight schemes searches as separate calls would."""

    @pytest.mark.parametrize("x", ["duplicated", "integer-grid", "uniform"])
    def test_d1_integer_gains_and_duplicated_x(self, x):
        # Gains of +-1 times integer weights tie many candidates.
        data, pseudo = _tie_instance(_TIE_X_1D[x], "signs")
        rng = np.random.default_rng(data.n)
        schemes = [uniform_weights(data.n)] + [_integer_weights(rng, data.n) for _ in range(3)]
        schemes.append(WeightScheme.from_raw("w", rng.uniform(0.1, 3.0, data.n)))
        _assert_stack_searches_alone(schemes, pseudo, data)
        _assert_stack_searches_alone(schemes[:1], pseudo, data)

    def test_d2_and_the_heuristic(self):
        rng = np.random.default_rng(40)
        data, pseudo = plain_data(rng, 40, 2)
        schemes = [uniform_weights(40), _integer_weights(rng, 40),
                   WeightScheme.from_raw("w", rng.uniform(0.1, 3.0, 40))]
        _assert_stack_searches_alone(schemes, pseudo, data)
        _assert_stack_searches_alone(schemes, pseudo, data, seed=2, force_approx=True)
        with pytest.raises(ValidationError, match="^need at least one weight scheme$"):
            search_linear([], pseudo, data)

    def test_an_overflowing_scheme_raises_its_own_error(self):
        # Scores near the largest float on half the rows: uniform weights keep
        # every sum finite, weights of 2 on those rows do not.
        n = 10
        data = Dataset(covariates=np.linspace(0, 1, n)[:, None], actions=np.zeros(n, int),
                       outcomes=np.zeros(n), m=2)
        scores = np.repeat([0.0, 0.7 * np.finfo(float).max / n], n // 2)
        pseudo = PseudoOutcomes(values=np.column_stack([scores, scores]))
        heavy = WeightScheme(kind="heavy", weights=np.repeat([0.0, 2.0], n // 2))
        with pytest.raises(ValidationError) as alone:
            search_linear([heavy], pseudo, data)
        with pytest.raises(ValidationError) as stacked:
            search_linear([uniform_weights(n), heavy], pseudo, data)
        assert str(stacked.value) == str(alone.value)


class TestThresholdCandidatesRealizeTheirLabels:
    """Each d=1 candidate's theta realizes its labels, so the sweep has no
    fallback for a tied candidate it cannot realize."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(_EDGE_X),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=12))
    def test_every_tied_candidate(self, x):
        x = np.array(x)
        data, pseudo = _tie_instance(x, "zero")  # no effect: every candidate ties
        thetas = []

        def unit(theta):
            thetas.append(theta.copy())
            return real_unit(theta)

        real_unit = policy_module._unit
        with mock.patch.object(policy_module, "_unit", unit), np.errstate(over="ignore"):
            [(_, exact)] = search_linear([uniform_weights(x.size)], pseudo, data)
        assert exact
        cuts = policy_module._sweep_1d(data)[2]
        labelings = [x == x, x != x] + [x > c for c in cuts] + [~(x > c) for c in cuts]
        assert len(thetas) == len(labelings)
        for theta, labels in zip(thetas, labelings):
            assert np.isfinite(theta).all()
            with np.errstate(over="ignore"):
                assert np.array_equal(theta[0] + x * theta[1] > 0, labels), theta

    def test_lower_rule_at_the_largest_float(self):
        # x <= max float labels every row; the next float up is inf, which
        # used to warn twice (nextafter's overflow, then _unit's inf / inf).
        x = np.array([[np.finfo(float).max], [0.0]])
        data = Dataset(covariates=x, actions=np.array([0, 1]), outcomes=np.zeros(2), m=2)
        pseudo = PseudoOutcomes(values=np.array([[0.0, 1.0], [0.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = learn_linear(uniform_weights(2), pseudo, data)
        assert res.exact and res.best_value == 1.0
        assert np.array_equal(res.best.act(x), [1, 1])

    def test_overflowing_effect_is_invalid(self):
        # psi_1 - psi_0 = 2e308 overflows in the effect score although every
        # weighted score is bounded. The gains used to turn nan, so no
        # candidate tied at the maximum and the heuristic answered.
        x = np.array([[0.1], [0.2], [0.3], [0.4]])
        data = Dataset(covariates=x, actions=np.array([0, 1, 0, 1]), outcomes=np.zeros(4), m=2)
        psi = np.zeros((4, 2))
        psi[0] = [-1e308, 1e308]
        pseudo = PseudoOutcomes(values=psi)
        w = WeightScheme(kind="w", weights=np.array([0.25, 1.25, 1.25, 1.25]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for force_approx in (False, True):
                with pytest.raises(ValidationError, match=r"^effect scores overflow: "
                                                          r"psi_1 - psi_0 is not finite$"):
                    search_linear([w], pseudo, data, force_approx=force_approx)


class TestOverflowBound:
    """_gains runs the exact overflow sum only where the cached bound
    max|psi| * max w * size reaches 1e300, with the exact sum's decision."""

    @staticmethod
    def _raises(call) -> bool:
        try:
            call()
        except ValidationError:
            return True
        return False

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40), exponent=st.floats(-12.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_same_decision_as_the_exact_sum(self, n, exponent, seed):
        rng = np.random.default_rng(seed)
        top = np.finfo(float).max
        with np.errstate(over="ignore"):
            values = 10.0 ** exponent * (1e308 / (2 * n)) * rng.uniform(-1.0, 1.0, (n, 2))
        values = np.clip(values, -top, top) * rng.choice([1.0, 1e-3, 0.0], (n, 2))
        pseudo = PseudoOutcomes(values=values)
        w = WeightScheme.from_raw("w", rng.exponential(size=n) ** rng.uniform(1.0, 4.0))
        data = Dataset(covariates=rng.uniform(-1, 1, (n, 1)), actions=np.zeros(n, int),
                       outcomes=np.zeros(n), m=2)
        with np.errstate(over="ignore", invalid="ignore"):
            cached = self._raises(lambda: policy_module._gains([w], pseudo, data))
            exact = self._raises(
                lambda: policy_module._check_bounded(pseudo.values * w.weights[:, None]))
        assert cached == exact

    @pytest.mark.parametrize("factor, rejected", [(0.1, False), (1.1, True)])
    def test_both_sides_of_the_bound(self, factor, rejected):
        n = 10
        data = Dataset(covariates=np.linspace(0, 1, n)[:, None], actions=np.zeros(n, int),
                       outcomes=np.zeros(n), m=2)
        pseudo = PseudoOutcomes(values=np.full((n, 2), factor * (np.finfo(float).max / (2 * n))))
        with np.errstate(over="ignore"):
            assert self._raises(lambda: policy_module._gains([uniform_weights(n)], pseudo, data)) \
                is rejected


def test_scored_keeps_the_transposed_product_bits():
    rng = np.random.default_rng(3)
    data, pseudo = plain_data(rng, 37, 1)
    w = WeightScheme.from_raw("w", rng.uniform(0.1, 3.0, 37))
    want = (pseudo.values * w.weights[:, None]).T.ravel()
    assert policy_module._scored(w, pseudo, data).tobytes() == want.tobytes()
