"""Weight schemes, the outcome-mean gap, the variance proxy, and selection ratios."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retarget import (
    NuisanceSet,
    ValidationError,
    WeightScheme,
    curvature_scaled_weights,
    gap_statistics,
    homoskedastic_weights,
    make_weights,
    selection_ratio,
    uniform_weights,
    variance_proxy,
)
from retarget import weights as weights_module


def _nuis(prop, mu=None, var=None):
    prop = np.asarray(prop, float)
    if mu is None:
        mu = np.zeros_like(prop)
    if var is None:
        var = np.ones_like(prop)
    return NuisanceSet(
        propensity=prop, outcome_mean=np.asarray(mu, float),
        variance=np.asarray(var, float), provenance="oracle",
    )


def random_binary_nuis(rng, n, homoskedastic=True):
    phi = rng.uniform(0.05, 0.95, n)
    prop = np.column_stack([1 - phi, phi])
    mu = rng.standard_normal((n, 2))
    var = np.ones((n, 2)) if homoskedastic else rng.uniform(0.5, 2.0, (n, 2))
    return _nuis(prop, mu, var)


class TestWeightScheme:
    def test_from_raw_normalizes(self):
        w = WeightScheme.from_raw("uniform", np.array([2.0, 4.0, 6.0]))
        assert w.weights.mean() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="^weights must be finite and nonnegative$"):
            WeightScheme.from_raw("bad", np.array([1.0, -0.5]))
        with pytest.raises(ValidationError, match="raw weights of bad have mean -0.25, not finite and > 0"):
            WeightScheme.from_raw("bad", np.array([0.5, -1.0]))

    def test_rejects_all_zero(self):
        with pytest.raises(ValidationError, match="have mean 0.0, not finite"):
            WeightScheme.from_raw("bad", np.zeros(3))

    @pytest.mark.parametrize("raw", [[1.0, np.inf], [1.0, np.nan], [1e308, 1e308]],
                             ids=["inf", "nan", "sum-overflows"])
    def test_rejects_a_mean_that_is_not_finite(self, raw):
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="not finite and > 0"):
            WeightScheme.from_raw("bad", np.array(raw))

    def test_mean_message_is_the_same_on_every_numpy(self):
        # numpy >= 2 reprs a float64 scalar as np.float64(1.5).
        with pytest.raises(ValidationError) as info:
            WeightScheme(kind="bad", weights=np.array([1.0, 2.0]))
        assert str(info.value) == "weights must have sample mean 1, got 1.5"

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_mean_one_property(self, raw):
        w = WeightScheme.from_raw("any", np.array(raw))
        assert abs(w.weights.mean() - 1.0) <= 1e-9


class TestHomoskedasticWeights:
    def test_binary_identity(self):
        # m=2: 1/p + 1/(1-p) = 1/(p(1-p)), so the raw weight is p(1-p).
        rng = np.random.default_rng(0)
        phi = rng.uniform(0.05, 0.95, 200)
        nuis = _nuis(np.column_stack([1 - phi, phi]))
        w = homoskedastic_weights(nuis)
        expected = phi * (1 - phi)
        expected /= expected.mean()
        assert np.max(np.abs(w.weights - expected)) < 1e-12

    def test_three_arm_value(self):
        nuis = _nuis(np.tile([1 / 3, 1 / 3, 1 / 3], (4, 1)))
        raw = 1.0 / (9.0 + 3 / 2 - 1)
        assert raw == pytest.approx(1 / 9.5)
        # constant propensities: all normalized weights exactly 1
        w = homoskedastic_weights(nuis)
        assert np.allclose(w.weights, 1.0, atol=1e-12)

    def test_constant_propensity_gives_uniform(self):
        nuis = _nuis(np.tile([0.3, 0.7], (10, 1)))
        assert np.allclose(homoskedastic_weights(nuis).weights, 1.0, atol=1e-12)


class TestGapStatistics:
    def test_binary(self):
        nuis = _nuis(np.tile([0.5, 0.5], (1, 1)), mu=[[1.0, 0.4]])
        assert gap_statistics(nuis)[0] == pytest.approx(0.6)

    def test_three_arm(self):
        nuis = _nuis(np.tile([1 / 3, 1 / 3, 1 / 3], (1, 1)), mu=[[1.0, 0.7, 0.2]])
        assert gap_statistics(nuis)[0] == pytest.approx(0.3)

    def test_all_tie(self):
        nuis = _nuis(np.tile([0.25, 0.25, 0.25, 0.25], (2, 1)), mu=np.full((2, 4), 1.5))
        assert np.array_equal(gap_statistics(nuis), [0.0, 0.0])

    def test_partial_tie_at_top(self):
        nuis = _nuis(np.tile([1 / 3, 1 / 3, 1 / 3], (1, 1)), mu=[[1.0, 1.0, 0.2]])
        assert gap_statistics(nuis)[0] == pytest.approx(0.8)  # runner-up is the strictly smaller 0.2

    @given(st.integers(2, 5), st.integers(1, 30), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_gap_never_exceeds_max_minus_min(self, m, n, seed):
        rng = np.random.default_rng(seed)
        mu = rng.standard_normal((n, m))
        gap = gap_statistics(_nuis(np.full((n, m), 1.0 / m), mu=mu))
        assert gap.shape == (n,)
        assert np.all((0 <= gap) & (gap <= mu.max(axis=1) - mu.min(axis=1) + 1e-15))
        if m == 2:
            assert np.array_equal(gap, np.abs(mu[:, 1] - mu[:, 0]))


class TestCurvatureScaledWeights:
    def test_power_zero_is_identity(self):
        rng = np.random.default_rng(2)
        nuis = random_binary_nuis(rng, 20)
        base = homoskedastic_weights(nuis)
        scaled = curvature_scaled_weights(base, gap_statistics(nuis), power=0.0)
        assert scaled is base

    def test_rejects_a_gap_of_another_length_or_a_negative_gap(self):
        base = WeightScheme.from_raw("w0", np.ones(3))
        nuis = _nuis(np.tile([0.5, 0.5], (3, 1)))
        for gap in (np.ones(2), np.ones((3, 1))):
            for call in (lambda: curvature_scaled_weights(base, gap, 1.0),
                         lambda: selection_ratio(base, gap, nuis, "times_delta")):
                with pytest.raises(ValidationError,
                                   match="^gap statistics and weights have mismatched lengths$"):
                    call()
        gap = np.array([0.5, -0.1, 0.5])
        for call in (lambda: curvature_scaled_weights(base, gap, 1.0),
                     lambda: selection_ratio(base, gap, nuis, "over_delta")):
            with pytest.raises(ValidationError, match="^gap entries must be nonnegative$"):
                call()

    def test_constant_gap_cancels(self):
        base = WeightScheme.from_raw("w0", np.array([0.5, 1.5, 1.0]))
        for power in (-2.0, -1.0, 1.0, 2.0):
            scaled = curvature_scaled_weights(base, np.full(3, 0.7), power)
            assert np.allclose(scaled.weights, base.weights, atol=1e-12)

    def test_two_row_hand_case(self):
        base = WeightScheme.from_raw("w0", np.array([1.0, 1.0]))
        scaled = curvature_scaled_weights(base, np.array([0.2, 0.8]), power=1.0)
        assert scaled.weights == pytest.approx([0.4, 1.6])

    def test_floor_applies_to_negative_powers(self):
        base = WeightScheme.from_raw("w0", np.ones(2))
        scaled = curvature_scaled_weights(base, np.array([0.0, 1.0]), power=-1.0, floor=1e-3)
        assert np.all(np.isfinite(scaled.weights))
        # floored zero-gap row dominates: raw (1000, 1)
        assert scaled.weights[0] / scaled.weights[1] == pytest.approx(1000.0)

    def test_rejects_bad_floor(self):
        # A nan floor used to pass: np.maximum(gap, nan) made every weight nan.
        base = WeightScheme.from_raw("w0", np.ones(2))
        for floor in [0.0, -1.0, np.nan, np.inf]:
            with pytest.raises(ValidationError, match=r"^gap floor must be finite and > 0, got "):
                curvature_scaled_weights(base, np.ones(2), power=1.0, floor=floor)

    @pytest.mark.parametrize("base_weights", [[1.0, 1.0], [0.0, 2.0]], ids=["positive", "zero"])
    def test_overflowing_power_names_the_scheme(self, base_weights):
        # (1e-3)^-400 overflows; a zero base weight times it is nan.
        base = WeightScheme(kind="w0", weights=np.array(base_weights))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                curvature_scaled_weights(base, np.zeros(2), power=-400.0)
        assert str(info.value).startswith("raw weights of w0_dp:-400 have mean ")

    def test_kind_label(self):
        base = WeightScheme.from_raw("w0", np.ones(2))
        assert curvature_scaled_weights(base, np.array([0.5, 1.0]), power=-2).kind == "w0_dp:-2"


class TestVarianceProxy:
    def test_retargeted_no_worse_than_uniform(self):
        # Constant variance: the retargeted scheme minimizes the proxy, so it
        # beats uniform strictly whenever propensities vary.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            nuis = random_binary_nuis(rng, 60)
            w0 = homoskedastic_weights(nuis)
            wu = uniform_weights(60)
            assert variance_proxy(w0, nuis) < variance_proxy(wu, nuis)

    def test_constant_propensity_degenerate(self):
        nuis = _nuis(np.tile([0.4, 0.6], (15, 1)))
        w0 = homoskedastic_weights(nuis)
        wu = uniform_weights(15)
        assert np.allclose(w0.weights, wu.weights)
        assert variance_proxy(w0, nuis) == pytest.approx(variance_proxy(wu, nuis))

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        nuis = random_binary_nuis(rng, 30)
        raw = rng.uniform(0.1, 2.0, 30)
        a = WeightScheme.from_raw("a", raw)
        b = WeightScheme.from_raw("b", 37.5 * raw)
        assert variance_proxy(a, nuis) == pytest.approx(variance_proxy(b, nuis), rel=1e-12)

    def test_positive(self):
        rng = np.random.default_rng(10)
        nuis = random_binary_nuis(rng, 25, homoskedastic=False)
        assert variance_proxy(uniform_weights(25), nuis) > 0


class TestSelectionRatio:
    def test_constant_gap_identity(self):
        rng = np.random.default_rng(3)
        nuis = random_binary_nuis(rng, 40)
        w = homoskedastic_weights(nuis)
        ratio = selection_ratio(w, np.full(40, 0.25), nuis, "times_delta")
        assert ratio == pytest.approx(math.sqrt(variance_proxy(w, nuis)) / 0.25)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        nuis = random_binary_nuis(rng, 40)
        gap = gap_statistics(nuis)
        raw = rng.uniform(0.1, 2.0, 40)
        a = WeightScheme.from_raw("a", raw)
        b = WeightScheme.from_raw("b", 0.01 * raw)
        for direction in ("times_delta", "over_delta"):
            assert selection_ratio(a, gap, nuis, direction) == pytest.approx(
                selection_ratio(b, gap, nuis, direction), rel=1e-12
            )

    def test_two_point_hand_computation(self):
        # phi rows (0.5,0.5) and (0.2,0.8); unit variances; weights (0.5,1.5);
        # arm means give gaps (0.4, 0.1).
        nuis = _nuis(
            [[0.5, 0.5], [0.2, 0.8]],
            mu=[[1.0, 0.6], [0.3, 0.2]],
            var=np.ones((2, 2)),
        )
        w = WeightScheme(kind="hand", weights=np.array([0.5, 1.5]))
        gap = gap_statistics(nuis)
        assert gap == pytest.approx([0.4, 0.1])
        # noise terms: 1/.5+1/.5 = 4 and 1/.2+1/.8 = 6.25; m/2-1 = 0
        omega = (0.25 * 4 + 2.25 * 6.25) / 2
        assert omega == 7.53125
        assert variance_proxy(w, nuis) == pytest.approx(omega, rel=1e-14)
        times = selection_ratio(w, gap, nuis, "times_delta")
        assert times == pytest.approx(math.sqrt(7.53125) / 0.175, rel=1e-12)
        over = selection_ratio(w, gap, nuis, "over_delta")
        assert over == pytest.approx(math.sqrt(7.53125) / 8.125, rel=1e-12)

    @pytest.mark.parametrize("floor", [0.0, -1.0, np.nan, np.inf], ids=str)
    def test_rejects_bad_floor(self, floor):
        # A nan floor used to pass its own floor <= 0 check and return nan.
        rng = np.random.default_rng(10)
        nuis = random_binary_nuis(rng, 10)
        with pytest.raises(ValidationError, match=r"^gap floor must be finite and > 0, got "):
            selection_ratio(uniform_weights(10), gap_statistics(nuis), nuis, "over_delta", floor=floor)

    def test_zero_denominator_rejected(self):
        nuis = _nuis([[0.5, 0.5]], mu=[[1.0, 1.0]])
        w = uniform_weights(1)
        with pytest.raises(ValidationError, match="denominator"):
            selection_ratio(w, gap_statistics(nuis), nuis, "times_delta")


class TestMinimizerProperty:
    def test_w0_minimizes_proxy_over_family(self):
        # Family: exponent grid on the noise term, uniform, and gap-scaled
        # variants; under constant variance the retargeted scheme wins.
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            nuis = random_binary_nuis(rng, 80)
            gap = gap_statistics(nuis)
            w0 = homoskedastic_weights(nuis)
            target = variance_proxy(w0, nuis)
            inv = 1.0 / ((1.0 / nuis.propensity).sum(axis=1) + nuis.m / 2 - 1)
            family = [uniform_weights(80)]
            family += [
                WeightScheme.from_raw(f"q={q}", inv**q) for q in (0.25, 0.5, 2.0, 4.0)
            ]
            family += [
                curvature_scaled_weights(w0, gap, p) for p in (-2.0, -1.0, 1.0, 2.0)
            ]
            for other in family:
                assert target <= variance_proxy(other, nuis) + 1e-12


class TestMakeWeights:
    def test_specs(self):
        rng = np.random.default_rng(5)
        nuis = random_binary_nuis(rng, 30)
        assert make_weights("uniform", nuis).kind == "uniform"
        assert make_weights("w0", nuis).kind == "w0"
        w = make_weights("w0_dp:-1", nuis)
        assert w.kind == "w0_dp:-1"
        with pytest.raises(ValidationError, match="unknown weight scheme"):
            make_weights("nope", nuis)
        with pytest.raises(ValidationError, match="bad weight power"):
            make_weights("w0_dp:abc", nuis)

    def test_parse_checks_the_name_and_the_floor_without_nuisances(self):
        assert weights_module.parse_scheme("uniform") == ("uniform", 0.0)
        assert weights_module.parse_scheme("w0", 0.5) == ("w0", 0.0)
        assert weights_module.parse_scheme("w0_dp:-2") == ("w0_dp", -2.0)
        for spec, floor, message in [
            ("nope", 1e-3, "unknown weight scheme 'nope'; expected uniform, w0, or w0_dp:<p>"),
            ("w0_dp:abc", 1e-3, "bad weight power in 'w0_dp:abc'"),
            ("w0_dp:inf", 1e-3, "power must be finite, got inf"),
            ("uniform", -1.0, "gap floor must be finite and > 0, got -1.0"),
            ("w0", np.nan, "gap floor must be finite and > 0, got nan"),
        ]:
            with pytest.raises(ValidationError) as caught:
                weights_module.parse_scheme(spec, floor)
            assert str(caught.value) == message
        with pytest.raises(ValidationError, match="gap floor"):
            make_weights("uniform", random_binary_nuis(np.random.default_rng(5), 4), gap_floor=0.0)

    def test_kept_w0_and_gaps_give_the_schemes_of_a_fresh_set(self, monkeypatch):
        # One make_weights call builds one w0 and one gap vector,
        # shared by all of its schemes; they match, bit for bit, schemes from
        # a fresh copy of the nuisance set.
        rng = np.random.default_rng(6)
        nuis = random_binary_nuis(rng, 40)
        specs = ("uniform", "w0", "w0_dp:1", "w0_dp:2", "w0_dp:-1", "w0_dp:-2", "w0_dp:0")
        built = []
        for name in ("homoskedastic_weights", "gap_statistics"):
            def counted(obj, build=getattr(weights_module, name), name=name):
                built.append(name)
                return build(obj)

            monkeypatch.setattr(weights_module, name, counted)
        for calls in (1, 2):
            shared = make_weights(specs, nuis)
            assert built == ["homoskedastic_weights", "gap_statistics"] * calls  # once per call
        monkeypatch.undo()
        for spec, w in zip(specs, shared):
            alone = make_weights(spec, replace(nuis))
            assert w.kind == alone.kind
            assert w.weights.tobytes() == alone.weights.tobytes()
        assert shared[-1] is shared[1]  # power 0 is the call's w0 itself

    def test_a_list_gives_the_schemes_of_separate_calls(self):
        nuis = random_binary_nuis(np.random.default_rng(8), 50)
        specs = ("uniform", "w0", "w0_dp:0", "w0_dp:1", "w0_dp:-0.5", "w0_dp:2", "w0_dp:-2")
        listed = make_weights(specs, nuis)
        assert isinstance(listed, tuple) and len(listed) == len(specs)
        for spec, w in zip(specs, listed):
            alone = make_weights(spec, replace(nuis))
            assert w.kind == alone.kind
            assert w.weights.tobytes() == alone.weights.tobytes()
            assert not w.weights.flags.writeable
        assert listed[1] is listed[2]  # the call's one w0
        assert make_weights((), nuis) == ()

    def test_a_list_raises_the_error_of_its_first_failing_name(self):
        # Every name is parsed before any scheme is built: a bad name raises
        # its own error wherever it stands, ahead of any build failure.
        nuis = random_binary_nuis(np.random.default_rng(9), 30)
        with pytest.raises(ValidationError) as alone:
            make_weights("w0_dp:2000", nuis)
        assert str(alone.value).startswith("raw weights of w0_dp:2000 have mean ")
        with pytest.raises(ValidationError) as listed:
            make_weights(("uniform", "w0_dp:2000"), nuis)
        assert str(listed.value) == str(alone.value)
        for specs in (("uniform", "w0_dp:1", "w0_dp:2000", "bogus"),
                      ("uniform", "bogus", "w0_dp:2000")):
            with pytest.raises(ValidationError, match="^unknown weight scheme 'bogus'"):
                make_weights(specs, nuis)

    def test_kept_w0_and_gaps_never_serve_another_nuisance_set(self):
        # Two nuisance sets of one size, used in turn: each gets the w0 and the
        # gap of its own propensities and means, not the other's.
        rng = np.random.default_rng(7)
        first, second = random_binary_nuis(rng, 25), random_binary_nuis(rng, 25)
        for nuis in (first, second, first):
            w0 = homoskedastic_weights(nuis)  # built here, kept nowhere
            for spec, want in (("w0", w0),
                               ("w0_dp:1", curvature_scaled_weights(w0, gap_statistics(nuis), 1.0)),
                               ("w0_dp:-2", curvature_scaled_weights(w0, gap_statistics(nuis), -2.0))):
                assert make_weights(spec, nuis).weights.tobytes() == want.weights.tobytes()
                assert make_weights(spec, replace(nuis)).weights.tobytes() == want.weights.tobytes()
