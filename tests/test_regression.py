"""Estimating-equation regressions: exact cases, oracles, and invariances."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retarget import (
    Dataset,
    EstimationError,
    FeatureMap,
    NuisanceSet,
    PseudoOutcomes,
    RegressionFit,
    ScenarioSpec,
    ValidationError,
    WeightScheme,
    dr_pseudo_outcomes,
    fit_best_fit,
    fit_cate,
    fit_dv_overlap,
    fit_on_arm_precision,
    generate,
    make_weights,
    uniform_weights,
)
from retarget.nuisance import _scaled_design


def sandwich_se(z, target, sample_w, beta):
    """Asymptotic standard errors of a weighted estimating-equation solve."""
    sample_w = sample_w / sample_w.max()
    wz = z * sample_w[:, None]
    bread = np.linalg.inv(wz.T @ z)
    score = wz * (target - z @ beta)[:, None]
    meat = score.T @ score
    return np.sqrt(np.diag(bread @ meat @ bread.T))


def make_binary_data(rng, n, mu1_fn, phi1_fn, noise=0.5, mu0_fn=None):
    x = rng.uniform(-1, 1, (n, 1))
    xr = x.ravel()
    p1 = phi1_fn(xr)
    a = (rng.random(n) < p1).astype(int)
    mu0 = mu0_fn(xr) if mu0_fn else np.zeros(n)
    mu1 = mu1_fn(xr)
    y = np.where(a == 1, mu1, mu0) + noise * rng.standard_normal(n)
    data = Dataset(covariates=x, actions=a, outcomes=y, m=2)
    nuis = NuisanceSet(
        propensity=np.column_stack([1 - p1, p1]),
        outcome_mean=np.column_stack([mu0, mu1]),
        variance=np.full((n, 2), noise**2 if noise > 0 else 1e-12),
        provenance="oracle",
    )
    return data, nuis


class TestFeatureMap:
    def test_identity_prepends_intercept(self):
        z = FeatureMap.parse("identity")(np.array([[2.0, 3.0]]))
        assert z.tolist() == [[1.0, 2.0, 3.0]]

    def test_subset(self):
        z = FeatureMap.parse("subset:1")(np.array([[2.0, 3.0]]))
        assert z.tolist() == [[1.0, 3.0]]

    def test_poly(self):
        z = FeatureMap.parse("poly:2")(np.array([[2.0]]))
        assert z.tolist() == [[1.0, 2.0, 4.0]]

    def test_parse(self):
        assert FeatureMap.parse("identity") == FeatureMap(name="identity")
        assert FeatureMap.parse("subset:0,2").indices == (0, 2)
        assert FeatureMap.parse("subset: 0, 2,").name == "subset:0,2"
        assert FeatureMap.parse("poly:3").degree == 3
        assert FeatureMap.parse("poly:03").name == "poly:3"
        with pytest.raises(ValidationError, match="polynomial degree must be >= 1, got 0"):
            FeatureMap.parse("poly:0")
        with pytest.raises(ValidationError):
            FeatureMap.parse("fourier:2")

    def test_repeated_subset_indices_rejected(self):
        # subset:0,0 gave a design with two equal columns, singular in every fit.
        with pytest.raises(ValidationError,
                           match=r"^repeated subset indices \[2, 0\] in 'subset:2,0,1,0,2'$"):
            FeatureMap.parse("subset:2,0,1,0,2")

    def test_subset_bounds_checked(self):
        with pytest.raises(ValidationError, match="outside"):
            FeatureMap.parse("subset:5")(np.zeros((2, 2)))

    def test_multi_index_subset_is_f_ordered(self):
        x = np.random.default_rng(0).standard_normal((50, 3))
        z = FeatureMap.parse("subset:2,0")(x)
        assert z.flags.f_contiguous and not z.flags.c_contiguous
        assert z.tobytes() == _reference_features(FeatureMap.parse("subset:2,0"), x).tobytes()
        for spec in ("identity", "subset:1", "poly:3"):
            assert FeatureMap.parse(spec)(x).flags.c_contiguous

    def test_empty_subset_is_the_intercept(self):
        assert FeatureMap.parse("subset:")(np.array([[2.0, 3.0]])).tolist() == [[1.0]]


class TestFitBestFit:
    def test_two_point_exact(self):
        data = Dataset(
            covariates=np.array([[1.0], [2.0]]),
            actions=np.array([0, 1]),
            outcomes=np.zeros(2),
            m=2,
        )
        psi_col = np.array([2.0, 4.0])
        fit = fit_best_fit(psi_col, uniform_weights(2), FeatureMap.parse("identity"), data)
        assert fit.beta == pytest.approx([0.0, 2.0], abs=1e-12)
        assert fit.equation == "best_fit"

    def test_constant_target(self):
        rng = np.random.default_rng(0)
        n = 30
        data = Dataset(
            covariates=rng.uniform(-1, 1, (n, 3)),
            actions=rng.integers(0, 2, n),
            outcomes=np.zeros(n),
            m=2,
        )
        w = WeightScheme.from_raw("w", rng.uniform(0.1, 2.0, n))
        fit = fit_best_fit(np.full(n, 4.25), w, FeatureMap.parse("identity"), data)
        assert fit.beta == pytest.approx([4.25, 0, 0, 0], abs=1e-10)

    def test_matches_independent_solver(self):
        # 50-point random instance vs lstsq on the sqrt-weight-scaled design.
        rng = np.random.default_rng(1)
        n = 50
        data = Dataset(
            covariates=rng.uniform(-2, 2, (n, 2)),
            actions=rng.integers(0, 2, n),
            outcomes=np.zeros(n),
            m=2,
        )
        psi_col = rng.standard_normal(n) * 3
        w = WeightScheme.from_raw("w", rng.uniform(0.05, 3.0, n))
        fit = fit_best_fit(psi_col, w, FeatureMap.parse("identity"), data)
        z = FeatureMap.parse("identity")(data.covariates)
        root = np.sqrt(w.weights)
        expected, *_ = np.linalg.lstsq(z * root[:, None], psi_col * root, rcond=None)
        assert fit.beta == pytest.approx(expected, abs=1e-10)

    def test_singular_design_rejected(self):
        data = Dataset(
            covariates=np.zeros((5, 2)),  # constant columns duplicate the intercept
            actions=np.zeros(5, int),
            outcomes=np.zeros(5),
            m=2,
        )
        with pytest.raises(EstimationError, match="singular"):
            fit_best_fit(np.ones(5), uniform_weights(5), FeatureMap.parse("identity"), data)

    def test_residual_within_tolerance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(20, 80))
            data = Dataset(
                covariates=rng.uniform(-1, 1, (n, 2)),
                actions=rng.integers(0, 2, n),
                outcomes=np.zeros(n),
                m=2,
            )
            fit = fit_best_fit(
                rng.standard_normal(n),
                WeightScheme.from_raw("w", rng.uniform(0.1, 1.0, n)),
                FeatureMap.parse("identity"),
                data,
            )
            assert fit.residual_norm <= fit.residual_tol

    def test_target_times_a_power_of_two_scales_residual_and_tolerance(self):
        # target * 2^40 multiplies beta, the residual and max|target| (> 1
        # here) exactly, so the tolerance keeps its ratio to the residual.
        rng = np.random.default_rng(6)
        n = 200
        data = Dataset(covariates=rng.uniform(-2, 2, (n, 2)), actions=rng.integers(0, 2, n),
                       outcomes=np.zeros(n), m=2)
        psi_col = 3.0 * rng.standard_normal(n)
        w = WeightScheme.from_raw("w", rng.uniform(0.1, 2.0, n))
        fit, big = (fit_best_fit(t, w, FeatureMap.parse("poly:2"), data)
                    for t in (psi_col, psi_col * 2.0**40))
        assert fit.residual_norm > 0
        assert big.beta.tobytes() == (fit.beta * 2.0**40).tobytes()
        assert big.residual_norm == fit.residual_norm * 2.0**40
        assert big.residual_tol == fit.residual_tol * 2.0**40


class TestPeakMemory:
    """A regression holds its design z and one weighted copy of it at once,
    plus a few row vectors: under 2.4 designs on poly:3, where z has 13 columns
    (3.00 for fit_best_fit and 3.54 for irls when a third copy was made)."""

    @staticmethod
    def _peak_in_designs(fit, rows):
        fit()  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            fit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (rows * 13 * 8)

    def test_poly3_fits_peak_below_2_4_designs(self):
        rng = np.random.default_rng(3)
        n = 100_000
        data = Dataset(covariates=rng.standard_normal((n, 4)),
                       actions=(rng.permutation(n) < n // 2).astype(int),
                       outcomes=rng.standard_normal(n), m=2)
        zmap = FeatureMap.parse("poly:3")
        psi_col = rng.standard_normal(n)
        w = WeightScheme.from_raw("w", rng.uniform(0.1, 2.0, n))
        best_fit = self._peak_in_designs(lambda: fit_best_fit(psi_col, w, zmap, data), n)
        irls = self._peak_in_designs(
            lambda: fit_on_arm_precision(data, None, 1, zmap, mode="irls"), n // 2)
        assert best_fit < 2.4, best_fit
        assert irls < 2.4, irls


class TestCovariateUnits:
    """Every fit solves on the conditioned design [1, (z - c) / s], so the
    covariates' units and origin do not move it: x * 2^k gives beta_j *
    2^(-k p_j) bit for bit (p_j is column j's power) with the same residual
    and tolerance bits, and an exact shift of x gives the same fitted values."""

    FEATURES = ("identity", "subset:1", "poly:3")

    @staticmethod
    def _fits(x, a, y, nuis, w, spec):
        """Every equation and mode on covariates x, keyed by its name."""
        data = Dataset(covariates=x, actions=a, outcomes=y, m=2)
        zmap = FeatureMap.parse(spec)
        pseudo = dr_pseudo_outcomes(data, nuis)
        fits = {"best_fit": fit_best_fit(pseudo.values[:, 1], w, zmap, data),
                "cate": fit_cate(data, pseudo, w, zmap)}
        for arm in (0, 1):
            fits[f"dv{arm}"] = fit_dv_overlap(data, nuis, arm, zmap)
            for mode in ("known_variance", "ols", "irls"):
                fits[f"{mode}{arm}"] = fit_on_arm_precision(data, nuis, arm, zmap, mode)
        return fits

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_scale_and_shift_of_the_covariates(self, seed):
        rng = np.random.default_rng(seed)
        n = 120
        # A dyadic grid in [-1, 1) on which x + 3, x * 2^k and every cube are
        # exact: np.power can round the cube of x * 2^k otherwise than 2^(3k)
        # times the cube of x (6 of 100,000 uniform draws), so poly:3 features
        # of other x need not scale exactly.
        x = rng.integers(-2 ** 16, 2 ** 16, (n, 2)) / 2.0 ** 16
        a = (rng.permutation(n) < n // 2).astype(int)
        y = x[:, 0] - x[:, 1] ** 2 + a + rng.standard_normal(n)
        p1 = rng.uniform(0.2, 0.8, n)
        nuis = NuisanceSet(propensity=np.column_stack([1 - p1, p1]),
                           outcome_mean=rng.standard_normal((n, 2)),
                           variance=rng.uniform(0.5, 2.0, (n, 2)), provenance="oracle")
        w = WeightScheme.from_raw("w", rng.uniform(0.1, 2.0, n))
        for spec in self.FEATURES:
            zmap = FeatureMap.parse(spec)
            width = 1 if zmap.indices is not None else x.shape[1]
            power = np.repeat(np.arange(zmap.degree + 1), [1] + [width] * zmap.degree)
            base = self._fits(x, a, y, nuis, w, spec)
            for k in (-40, 40):
                moved = self._fits(x * 2.0 ** k, a, y, nuis, w, spec)
                for name, fit in base.items():
                    got = moved[name]
                    want = fit.beta * np.ldexp(1.0, -k * power)
                    assert got.beta.tobytes() == want.tobytes(), (spec, k, name)
                    assert got.residual_norm == fit.residual_norm, (spec, k, name)
                    assert got.residual_tol == fit.residual_tol, (spec, k, name)
            shifted = self._fits(x + 3.0, a, y, nuis, w, spec)
            for name, fit in base.items():
                want = zmap(x) @ fit.beta
                got = zmap(x + 3.0) @ shifted[name].beta
                gap = np.abs(got - want).max()
                assert gap <= 1e-9 * np.abs(want).max(), (spec, name, gap)


class TestFitOnArmPrecision:
    def test_constant_variance_equals_ols_exactly(self):
        rng = np.random.default_rng(3)
        data, nuis = make_binary_data(
            rng, 400, lambda x: 1 + x, lambda x: np.full_like(x, 0.5), noise=0.3
        )
        zmap = FeatureMap.parse("identity")
        known = fit_on_arm_precision(data, nuis, 1, zmap, "known_variance")
        ols = fit_on_arm_precision(data, nuis, 1, zmap, "ols")
        assert np.array_equal(known.beta, ols.beta)

    def test_exact_linear_all_modes(self):
        rng = np.random.default_rng(4)
        data, nuis = make_binary_data(
            rng, 200, lambda x: 2 - 3 * x, lambda x: np.full_like(x, 0.5), noise=0.0
        )
        zmap = FeatureMap.parse("identity")
        for mode in ("known_variance", "ols", "irls"):
            fit = fit_on_arm_precision(data, nuis, 1, zmap, mode)
            assert fit.beta == pytest.approx([2.0, -3.0], abs=1e-8)
        irls = fit_on_arm_precision(data, nuis, 1, zmap, "irls")
        assert irls.iterations == 1
        assert irls.converged

    def test_mc_efficiency_ordering(self):
        # Heteroskedastic, well specified: precision weighting beats plain OLS
        # in sampling variance, per coordinate, across 500 replications, and
        # feasible GLS on estimated variances comes close to the known ones.
        rng = np.random.default_rng(2024)
        reps, n = 500, 300
        zmap = FeatureMap.parse("identity")
        modes = ("known_variance", "ols", "irls")
        betas = {mode: [] for mode in modes}
        for _ in range(reps):
            x = rng.uniform(0, 1, (n, 1))
            sig2 = 0.05 + 2.5 * x.ravel() ** 2
            a = np.ones(n, int)
            a[:3] = 0
            y = 1.0 + 2.0 * x.ravel() + np.sqrt(sig2) * rng.standard_normal(n)
            data = Dataset(covariates=x, actions=a, outcomes=y, m=2)
            nuis = NuisanceSet(
                propensity=np.full((n, 2), 0.5),
                outcome_mean=np.zeros((n, 2)),
                variance=np.column_stack([sig2, sig2]),
                provenance="oracle",
            )
            for mode in modes:
                betas[mode].append(fit_on_arm_precision(data, nuis, 1, zmap, mode).beta)
        var = {mode: np.var(np.asarray(b), axis=0, ddof=1) for mode, b in betas.items()}
        # chi-square MC slack on a variance ratio at R=500 is ~13% at 3 sigma;
        # the true gain here is 2-3x, so a 10% allowance is conservative.
        assert np.all(var["known_variance"] <= var["ols"] * 1.1)
        # Feasible GLS measures 0.31x and 0.50x of OLS and 1.03x and 1.05x of
        # the known variances here; reweighting by 1/r^2 until convergence
        # measured 1.00x of OLS in both coordinates.
        assert np.all(var["irls"] <= var["ols"] * 0.6), var
        assert np.all(var["irls"] <= var["known_variance"] * 1.25), var

    def test_irls_matches_the_two_stage_reference(self):
        # ~10,000 x 9 poly:2 designs like the benchmark's, and small d=1 arms.
        rng = np.random.default_rng(11)
        x = rng.standard_normal((20_000, 4))
        a = (rng.random(20_000) < 0.5).astype(int)
        y = x[:, 0] - 0.5 * x[:, 1] * x[:, 2] + a + rng.standard_normal(20_000)
        big = Dataset(covariates=x, actions=a, outcomes=y, m=2)
        big_nuis = NuisanceSet(
            propensity=np.full((20_000, 2), 0.5), outcome_mean=np.zeros((20_000, 2)),
            variance=np.ones((20_000, 2)), provenance="oracle",
        )
        small, small_nuis = make_binary_data(
            np.random.default_rng(5), 150, lambda x: 1 + x, lambda x: np.full_like(x, 0.5), noise=1.0
        )
        cases = [(big, big_nuis, "poly:2"), (small, small_nuis, "identity"),
                 (small, small_nuis, "poly:3")]
        for data, nuis, spec in cases:
            zmap = FeatureMap.parse(spec)
            for arm in (0, 1):
                got = fit_on_arm_precision(data, nuis, arm, zmap, "irls")
                _assert_same_fit(
                    got, _reference_fit_on_arm_precision(data, nuis, arm, zmap, "irls"),
                    (spec, arm),
                )
                assert (got.iterations, got.converged) == (1, True)
                assert got.residual_norm <= got.residual_tol

    def test_ols_and_irls_read_no_nuisance(self):
        rng = np.random.default_rng(5)
        data, nuis = make_binary_data(
            rng, 150, lambda x: 1 + x, lambda x: np.full_like(x, 0.5), noise=1.0
        )
        zmap = FeatureMap.parse("poly:2")
        for mode in ("ols", "irls"):
            _assert_same_fit(fit_on_arm_precision(data, None, 1, zmap, mode),
                             fit_on_arm_precision(data, nuis, 1, zmap, mode), mode)
        with pytest.raises(ValidationError, match="^known_variance mode needs nuisance variances$"):
            fit_on_arm_precision(data, None, 1, zmap, "known_variance")

    def test_bad_mode_rejected(self):
        rng = np.random.default_rng(6)
        data, nuis = make_binary_data(rng, 50, lambda x: x, lambda x: np.full_like(x, 0.5))
        with pytest.raises(ValidationError, match="mode"):
            fit_on_arm_precision(data, nuis, 1, FeatureMap.parse("identity"), "wls")


class TestFitDvOverlap:
    def test_constant_propensity_equals_ols(self):
        rng = np.random.default_rng(7)
        data, nuis = make_binary_data(
            rng, 300, lambda x: 1 - 2 * x, lambda x: np.full_like(x, 0.5), noise=0.4
        )
        zmap = FeatureMap.parse("identity")
        dv = fit_dv_overlap(data, nuis, 1, zmap)
        ols = fit_on_arm_precision(data, nuis, 1, zmap, "ols")
        assert np.array_equal(dv.beta, ols.beta)

    def test_requires_binary(self):
        rng = np.random.default_rng(8)
        n = 30
        data = Dataset(
            covariates=rng.uniform(-1, 1, (n, 1)),
            actions=rng.integers(0, 3, n),
            outcomes=rng.standard_normal(n),
            m=3,
        )
        nuis = NuisanceSet(
            propensity=np.full((n, 3), 1 / 3),
            outcome_mean=np.zeros((n, 3)),
            variance=np.ones((n, 3)),
            provenance="oracle",
        )
        with pytest.raises(ValidationError, match="m=2"):
            fit_dv_overlap(data, nuis, 1, FeatureMap.parse("identity"))

    def test_well_specified_agrees_with_on_arm_ols(self):
        # Both consistent for the same linear truth; coordinatewise agreement
        # within 3 combined sandwich standard errors at n=20000.
        rng = np.random.default_rng(77)
        data, nuis = make_binary_data(
            rng, 20_000, lambda x: 0.5 + 2.0 * x,
            lambda x: 1 / (1 + np.exp(-x)), noise=0.8,
        )
        zmap = FeatureMap.parse("identity")
        dv = fit_dv_overlap(data, nuis, 1, zmap)
        ols = fit_on_arm_precision(data, nuis, 1, zmap, "ols")
        rows = data.actions == 1
        z = zmap(data.covariates[rows])
        y = data.outcomes[rows]
        se_dv = sandwich_se(z, y, nuis.propensity[rows, 0], dv.beta)
        se_ols = sandwich_se(z, y, np.ones(rows.sum()), ols.beta)
        combined = np.sqrt(se_dv**2 + se_ols**2)
        assert np.all(np.abs(dv.beta - ols.beta) < 3 * combined)

    def test_misspecified_converges_to_overlap_projection(self):
        # Quadratic truth: the estimator targets the best linear fit on the
        # population reweighted by the propensity product. The oracle is a
        # brute-force weighted projection of the true arm mean over 1e6 draws.
        def mu1(x):
            return 1.0 + x + 1.5 * x**2

        def phi1(x):
            return 1.0 / (1.0 + np.exp(-1.2 * x))

        rng = np.random.default_rng(555)
        xo = rng.uniform(-1, 1, 1_000_000)
        wo = phi1(xo) * (1 - phi1(xo))
        zo = np.column_stack([np.ones_like(xo), xo])
        gram = (zo * wo[:, None]).T @ zo
        beta_star = np.linalg.solve(gram, (zo * wo[:, None]).T @ mu1(xo))

        data, nuis = make_binary_data(rng, 50_000, mu1, phi1, noise=0.5)
        fit = fit_dv_overlap(data, nuis, 1, FeatureMap.parse("identity"))
        rows = data.actions == 1
        se = sandwich_se(
            FeatureMap.parse("identity")(data.covariates[rows]),
            data.outcomes[rows],
            nuis.propensity[rows, 0],
            fit.beta,
        )
        assert np.all(np.abs(fit.beta - beta_star) < 4 * se)
        # sanity: the target is distinguishable from the unweighted projection
        unweighted = np.linalg.solve(zo.T @ zo, zo.T @ mu1(xo))
        assert abs(unweighted[0] - beta_star[0]) > 10 * se[0]


class TestFitCate:
    def test_mc_oracle_linear_effect(self):
        # True effect 1 + 2x with oracle nuisances: coefficients recovered
        # within 3 sandwich standard errors at n=20000.
        rng = np.random.default_rng(99)
        data, nuis = make_binary_data(
            rng, 20_000,
            mu1_fn=lambda x: (1.0 + 2.0 * x) + 0.5 * x,  # mu0 + tau
            mu0_fn=lambda x: 0.5 * x,
            phi1_fn=lambda x: 1 / (1 + np.exp(-0.8 * x)),
            noise=1.0,
        )
        pseudo = dr_pseudo_outcomes(data, nuis)
        fit = fit_cate(data, pseudo, uniform_weights(data.n), FeatureMap.parse("identity"))
        z = FeatureMap.parse("identity")(data.covariates)
        target = pseudo.values[:, 1] - pseudo.values[:, 0]
        se = sandwich_se(z, target, np.ones(data.n), fit.beta)
        assert np.all(np.abs(fit.beta - np.array([1.0, 2.0])) < 3 * se)

    def test_identical_columns_give_zero(self):
        rng = np.random.default_rng(10)
        n = 40
        data = Dataset(
            covariates=rng.uniform(-1, 1, (n, 2)),
            actions=rng.integers(0, 2, n),
            outcomes=np.zeros(n),
            m=2,
        )
        col = rng.standard_normal(n)
        pseudo = PseudoOutcomes(values=np.column_stack([col, col]))
        fit = fit_cate(data, pseudo, uniform_weights(n), FeatureMap.parse("identity"))
        assert fit.beta == pytest.approx(np.zeros(3), abs=1e-12)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(11)
        n = 60
        data = Dataset(
            covariates=rng.uniform(-1, 1, (n, 1)),
            actions=rng.integers(0, 2, n),
            outcomes=np.zeros(n),
            m=2,
        )
        pseudo = PseudoOutcomes(values=rng.standard_normal((n, 2)))
        raw = rng.uniform(0.2, 2.0, n)
        zmap = FeatureMap.parse("identity")
        a = fit_cate(data, pseudo, WeightScheme.from_raw("a", raw), zmap)
        b = fit_cate(data, pseudo, WeightScheme.from_raw("b", 12.0 * raw), zmap)
        assert a.beta == pytest.approx(b.beta, abs=1e-10)

    def test_requires_binary(self):
        rng = np.random.default_rng(12)
        n = 20
        data = Dataset(
            covariates=rng.uniform(-1, 1, (n, 1)),
            actions=rng.integers(0, 3, n),
            outcomes=np.zeros(n),
            m=3,
        )
        pseudo = PseudoOutcomes(values=np.zeros((n, 3)))
        with pytest.raises(ValidationError, match="m=2"):
            fit_cate(data, pseudo, uniform_weights(n), FeatureMap.parse("identity"))


class TestConsistencyTriangle:
    def test_three_equations_agree_when_well_specified(self):
        # Linear homoskedastic truth: best-fit with uniform weights, on-arm
        # OLS, and the overlap-weighted fit all converge to the same line.
        rng = np.random.default_rng(77)
        data, nuis = make_binary_data(
            rng, 20_000, lambda x: 0.5 + 2.0 * x,
            lambda x: 1 / (1 + np.exp(-x)), noise=0.8,
        )
        zmap = FeatureMap.parse("identity")
        pseudo = dr_pseudo_outcomes(data, nuis)
        f1 = fit_best_fit(pseudo.values[:, 1], uniform_weights(data.n), zmap, data)
        f2 = fit_on_arm_precision(data, nuis, 1, zmap, "ols")
        f3 = fit_dv_overlap(data, nuis, 1, zmap)
        rows = data.actions == 1
        z_all = zmap(data.covariates)
        z_arm = zmap(data.covariates[rows])
        se1 = sandwich_se(z_all, pseudo.values[:, 1], np.ones(data.n), f1.beta)
        se2 = sandwich_se(z_arm, data.outcomes[rows], np.ones(rows.sum()), f2.beta)
        se3 = sandwich_se(z_arm, data.outcomes[rows], nuis.propensity[rows, 0], f3.beta)
        for a, b, sa, sb in ((f1, f2, se1, se2), (f2, f3, se2, se3), (f1, f3, se1, se3)):
            assert np.all(np.abs(a.beta - b.beta) < 3 * np.sqrt(sa**2 + sb**2))


def _reference_features(zmap, x):
    """FeatureMap.__call__ before its design came from add_intercept: the
    chosen columns or stacked powers, then the intercept by np.hstack."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if zmap.indices is not None:
        cols = x[:, list(zmap.indices)]
    elif zmap.degree == 1:
        cols = x
    else:
        cols = np.hstack([x**p for p in range(1, zmap.degree + 1)])
    return np.hstack([np.ones((cols.shape[0], 1)), cols])


def _reference_conditioned_solve(z, target, sample_w):
    """One weighted solve on a conditioned design: beta' and the residual norm."""
    sample_w = sample_w / float(sample_w.max())
    wz = z * sample_w[:, None]
    beta = np.linalg.solve(wz.T @ z, wz.T @ target)
    return beta, float(np.abs(wz.T @ (target - z @ beta)).max())


def _reference_solve_wls(z, target, sample_w, irls=False):
    """_solve_wls before it built the RegressionFit: every solve on the
    conditioned design [1, (z - c) / s], then beta mapped back to z, with the
    residual and tolerance. With irls, two-stage feasible GLS: least squares
    of the floored log squared residuals, then one solve weighted by the
    inverse fitted variances."""
    zs, shift, scale = _scaled_design(z[:, 1:])
    beta, norm = _reference_conditioned_solve(zs, target, sample_w)
    if irls:
        log_r2 = 2 * np.log(np.maximum(np.abs(target - zs @ beta), 1e-3))
        s = zs @ _reference_conditioned_solve(zs, log_r2, sample_w)[0]
        beta, norm = _reference_conditioned_solve(zs, target, np.exp(s.min() - s))
    beta[1:] /= scale
    beta[0] -= beta[1:] @ shift
    return beta, norm, 1e-8 * z.shape[0] * max(1.0, float(np.abs(target).max()))


def _reference_fit_best_fit(psi_col, w, zmap, data):
    z = _reference_features(zmap, data.covariates)
    beta, norm, tol = _reference_solve_wls(z, psi_col, w.weights)
    return RegressionFit(
        beta=beta, equation="best_fit", arm=None,
        residual_norm=norm, residual_tol=tol, n_used=data.n,
    )


def _reference_fit_on_arm_precision(data, nuis, arm, zmap, mode):
    rows = np.flatnonzero(data.actions == arm)
    z = _reference_features(zmap, data.covariates[rows])
    y = data.outcomes[rows]
    sample_w = 1.0 / nuis.variance[rows, arm] if mode == "known_variance" else np.ones(rows.size)
    beta, norm, tol = _reference_solve_wls(z, y, sample_w, irls=mode == "irls")
    return RegressionFit(
        beta=beta, equation="on_arm_precision", arm=arm,
        residual_norm=norm, residual_tol=tol, n_used=rows.size,
        iterations=int(mode == "irls"), converged=True,
    )


def _reference_fit_dv_overlap(data, nuis, arm, zmap):
    rows = np.flatnonzero(data.actions == arm)
    z = _reference_features(zmap, data.covariates[rows])
    beta, norm, tol = _reference_solve_wls(z, data.outcomes[rows], nuis.propensity[rows, 1 - arm])
    return RegressionFit(
        beta=beta, equation="dv_overlap", arm=arm,
        residual_norm=norm, residual_tol=tol, n_used=rows.size,
    )


def _reference_fit_cate(data, pseudo, w, zmap):
    z = _reference_features(zmap, data.covariates)
    target = pseudo.values[:, 1] - pseudo.values[:, 0]
    beta, norm, tol = _reference_solve_wls(z, target, w.weights)
    return RegressionFit(
        beta=beta, equation="cate", arm=None,
        residual_norm=norm, residual_tol=tol, n_used=data.n,
    )


def _assert_same_fit(got, want, case):
    for field in dataclasses.fields(RegressionFit):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "beta":
            assert a.dtype == b.dtype and a.shape == b.shape, case
            assert a.tobytes() == b.tobytes(), case
        else:
            assert type(a) is type(b) and a == b, (case, field.name)


class TestFitsMatchReference:
    """Every equation's RegressionFit, field by field and bit for bit, against
    the fits as each routine assembled its own."""

    FEATURES = ("identity", "subset:2,0", "subset:1", "subset:", "poly:2", "poly:3")

    @staticmethod
    def _inputs(seed):
        rng = np.random.default_rng(seed)
        scenario = ScenarioSpec(
            name="d3", d=3, m=2, covariate_law="normal",
            propensity_coef=0.5 * rng.standard_normal((2, 4)),
            mean_coef=rng.standard_normal((2, 4)), noise_sd=np.array([0.5, 1.5]),
        )
        data = generate(scenario, 2_000, seed=seed)
        truth = scenario.nuisances(data.covariates)
        # Row-varying variances, so known_variance weights differ from ols.
        nuis = NuisanceSet(
            propensity=truth.propensity, outcome_mean=truth.outcome_mean,
            variance=truth.variance * rng.uniform(0.5, 2.0, (data.n, 2)), provenance="oracle",
        )
        return data, nuis

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("spec", FEATURES)
    def test_every_equation(self, seed, spec):
        data, nuis = self._inputs(seed)
        pseudo = dr_pseudo_outcomes(data, nuis)
        zmap = FeatureMap.parse(spec)
        for w in (uniform_weights(data.n), make_weights("w0", nuis)):
            _assert_same_fit(
                fit_cate(data, pseudo, w, zmap), _reference_fit_cate(data, pseudo, w, zmap),
                (spec, "cate", w.kind),
            )
            for arm in (0, 1):
                col = pseudo.values[:, arm]
                _assert_same_fit(
                    fit_best_fit(col, w, zmap, data), _reference_fit_best_fit(col, w, zmap, data),
                    (spec, "best_fit", w.kind, arm),
                )
        for arm in (0, 1):
            _assert_same_fit(
                fit_dv_overlap(data, nuis, arm, zmap),
                _reference_fit_dv_overlap(data, nuis, arm, zmap), (spec, "dv", arm),
            )
            for mode in ("known_variance", "ols", "irls"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = fit_on_arm_precision(data, nuis, arm, zmap, mode)
                _assert_same_fit(
                    got, _reference_fit_on_arm_precision(data, nuis, arm, zmap, mode),
                    (spec, mode, arm),
                )
