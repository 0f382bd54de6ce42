"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see them).

Every tolerance is pinned here; the Monte Carlo checks use frozen seeds that
were verified to sit well inside their stated bands.
"""

import math
import os
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

from retarget import (
    Dataset,
    FeatureMap,
    LinearPolicy,
    NuisanceSet,
    PolicyClass,
    PseudoOutcomes,
    WeightScheme,
    curvature_scaled_weights,
    default_scenarios,
    dr_pseudo_outcomes,
    fit_best_fit,
    fit_cate,
    fit_dv_overlap,
    fit_on_arm_precision,
    gap_statistics,
    generate,
    homoskedastic_weights,
    learn_finite,
    learn_linear,
    render_report,
    run_benchmark,
    selection_ratio,
    uniform_weights,
    variance_proxy,
    weighted_value,
)

_THREADS = min(4, os.cpu_count() or 1)


@contextmanager
def criterion(num: int, name: str, budget_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {num:2d} {name}: PASS ({elapsed:.1f}s)")


def _oracle_nuis(prop, mu, var=None):
    prop = np.asarray(prop, float)
    mu = np.asarray(mu, float)
    if var is None:
        var = np.ones_like(mu)
    return NuisanceSet(propensity=prop, outcome_mean=mu, variance=var, provenance="oracle")


def test_criterion_1_binary_weight_identity():
    with criterion(1, "binary weight identity", budget_s=1.0):
        rng = np.random.default_rng(101)
        phi = rng.uniform(0.01, 0.99, 1000)
        nuis = _oracle_nuis(np.column_stack([1 - phi, phi]), np.zeros((1000, 2)))
        w = homoskedastic_weights(nuis)
        overlap = phi * (1 - phi)
        overlap = overlap / overlap.mean()
        assert np.max(np.abs(w.weights - overlap)) < 1e-12


def test_criterion_2_dr_unbiasedness():
    with criterion(2, "DR unbiasedness", budget_s=10.0):
        # mu0 = 0.5 - 0.4x, mu1 = 0.3 + 0.9x over X ~ U[-1,1]:
        # E[Y(0)] = 0.5 and E[Y(1)] = 0.3 (odd terms integrate to zero).
        rng = np.random.default_rng(202)
        n = 20_000
        x = rng.uniform(-1, 1, (n, 1))
        xr = x.ravel()
        p1 = 1 / (1 + np.exp(-2 * xr))
        mu = np.column_stack([0.5 - 0.4 * xr, 0.3 + 0.9 * xr])
        a = (rng.random(n) < p1).astype(int)
        y = mu[np.arange(n), a] + 0.8 * rng.standard_normal(n)
        data = Dataset(covariates=x, actions=a, outcomes=y, m=2)
        pseudo = dr_pseudo_outcomes(data, _oracle_nuis(np.column_stack([1 - p1, p1]), mu))
        for arm, truth in ((0, 0.5), (1, 0.3)):
            col = pseudo.values[:, arm]
            se = col.std(ddof=1) / math.sqrt(n)
            assert abs(col.mean() - truth) < 3 * se


def test_criterion_3_double_robustness():
    with criterion(3, "double robustness", budget_s=60.0):
        # Fixed policy (treat when x > 0), uniform weights. Analytic truth:
        # E[mu_pi] = int_{-1}^{0}(0.5-0.4x)/2 + int_0^1(0.3+0.9x)/2 = 0.725.
        truth = 0.725
        n = 50_000

        def run(wrong_mu: bool, wrong_phi: bool, seed: int):
            rng = np.random.default_rng(seed)
            x = rng.uniform(-1, 1, (n, 1))
            xr = x.ravel()
            p1 = 1 / (1 + np.exp(-2 * xr))
            mu = np.column_stack([0.5 - 0.4 * xr, 0.3 + 0.9 * xr])
            a = (rng.random(n) < p1).astype(int)
            y = mu[np.arange(n), a] + 0.8 * rng.standard_normal(n)
            data = Dataset(covariates=x, actions=a, outcomes=y, m=2)
            mu_hat = mu + 1.5 * (1 + xr)[:, None] if wrong_mu else mu
            p_hat = np.full(n, 0.5) if wrong_phi else p1
            nuis = _oracle_nuis(np.column_stack([1 - p_hat, p_hat]), mu_hat)
            pseudo = dr_pseudo_outcomes(data, nuis)
            summand = pseudo.values[np.arange(n), (xr > 0).astype(int)]
            return summand.mean() - truth, summand.std(ddof=1) / math.sqrt(n)

        bias_mu, se_mu = run(wrong_mu=True, wrong_phi=False, seed=31)
        assert abs(bias_mu) < 3 * se_mu
        bias_phi, se_phi = run(wrong_mu=False, wrong_phi=True, seed=32)
        assert abs(bias_phi) < 3 * se_phi
        bias_both, se_both = run(wrong_mu=True, wrong_phi=True, seed=33)
        assert abs(bias_both) > 3 * se_both  # sanity direction: both wrong breaks


def test_criterion_4_estimating_equation_residuals():
    with criterion(4, "estimating-equation residuals", budget_s=30.0):
        rng = np.random.default_rng(404)
        zmap = FeatureMap.parse("identity")
        modes = ("known_variance", "ols", "irls")
        for trial in range(100):
            n = int(rng.integers(40, 120))
            d = int(rng.integers(1, 4))
            x = rng.uniform(-2, 2, (n, d))
            phi = rng.uniform(0.15, 0.85, n)
            a = (rng.random(n) < phi).astype(int)
            a[:2] = [0, 1]
            y = rng.standard_normal(n) * 2
            data = Dataset(covariates=x, actions=a, outcomes=y, m=2)
            nuis = _oracle_nuis(
                np.column_stack([1 - phi, phi]),
                rng.standard_normal((n, 2)),
                var=rng.uniform(0.1, 2.0, (n, 2)),
            )
            pseudo = dr_pseudo_outcomes(data, nuis)
            w = WeightScheme.from_raw("w", rng.uniform(0.05, 2.0, n))
            fits = [
                fit_best_fit(pseudo.values[:, 1], w, zmap, data),
                fit_on_arm_precision(data, nuis, 1, zmap, modes[trial % 3]),
                fit_dv_overlap(data, nuis, 1, zmap),
                fit_cate(data, pseudo, w, zmap),
            ]
            for fit in fits:
                assert fit.residual_norm <= fit.residual_tol, fit.equation


def test_criterion_5_efficiency_ordering():
    with criterion(5, "efficiency ordering", budget_s=120.0):
        # Well-specified homoskedastic line: plain on-arm OLS never loses to
        # the other-arm-propensity weighting, per coordinate, one-sided at
        # 3 MC standard errors over paired replications.
        rng = np.random.default_rng(42)
        reps, n = 500, 1000
        zmap = FeatureMap.parse("identity")
        betas_ols, betas_dv = [], []
        for _ in range(reps):
            x = rng.uniform(-1, 1, (n, 1))
            xr = x.ravel()
            p1 = 1 / (1 + np.exp(-(1.0 + 2.0 * xr)))
            a = (rng.random(n) < p1).astype(int)
            y = 0.5 + 2.0 * xr + 0.8 * rng.standard_normal(n)
            data = Dataset(covariates=x, actions=a, outcomes=y, m=2)
            nuis = _oracle_nuis(
                np.column_stack([1 - p1, p1]), np.zeros((n, 2)), var=np.full((n, 2), 0.64)
            )
            betas_ols.append(fit_on_arm_precision(data, nuis, 1, zmap, "ols").beta)
            betas_dv.append(fit_dv_overlap(data, nuis, 1, zmap).beta)
        betas_ols = np.asarray(betas_ols)
        betas_dv = np.asarray(betas_dv)
        sq_ols = (betas_ols - betas_ols.mean(axis=0)) ** 2
        sq_dv = (betas_dv - betas_dv.mean(axis=0)) ** 2
        diff = sq_ols.mean(axis=0) - sq_dv.mean(axis=0)
        se = (sq_ols - sq_dv).std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(diff <= 3 * se)


def _xspace_best_value(x, w, psi):
    """Labeling-enumeration oracle in covariate space (d=2)."""
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


def test_criterion_6_policy_learning_oracle_equivalence():
    with criterion(6, "policy-learning oracle equivalence", budget_s=60.0):
        rng = np.random.default_rng(606)
        for _ in range(50):
            n = int(rng.integers(15, 50))
            size = int(rng.integers(2, 201))
            data = Dataset(
                covariates=rng.uniform(-1, 1, (n, 2)),
                actions=rng.integers(0, 2, n),
                outcomes=np.zeros(n),
                m=2,
            )
            pseudo = PseudoOutcomes(values=rng.standard_normal((n, 2)))
            w = WeightScheme.from_raw("w", rng.uniform(0.1, 2.0, n))
            policies = [LinearPolicy(rng.standard_normal(3)) for _ in range(size)]
            result = learn_finite(PolicyClass(tuple(policies)), w, pseudo, data)
            # independent maximization: plain loops over the same values
            values = [weighted_value(pi, w, pseudo, data) for pi in policies]
            best_idx, best_val = 0, values[0]
            for idx, val in enumerate(values):
                if val > best_val:
                    best_idx, best_val = idx, val
            below = [v for v in values if v < best_val]
            gap = best_val - max(below) if below else 0.0
            assert result.best_index == best_idx
            assert result.best_value == best_val
            assert result.value_gap == gap
        for seed in range(5):
            rng2 = np.random.default_rng(6100 + seed)
            n = 30
            x = rng2.uniform(-1, 1, (n, 2))
            psi = rng2.standard_normal((n, 2))
            raw = rng2.uniform(0.2, 2.0, n)
            data = Dataset(
                covariates=x, actions=rng2.integers(0, 2, n), outcomes=np.zeros(n), m=2
            )
            w = WeightScheme.from_raw("w", raw)
            result = learn_linear(w, PseudoOutcomes(values=psi), data)
            assert result.exact
            oracle = _xspace_best_value(x, w.weights, psi)
            assert result.best_value == pytest.approx(oracle, abs=1e-12)


def test_criterion_7_scale_and_shift_invariances():
    with criterion(7, "scale/shift invariances", budget_s=30.0):
        rng = np.random.default_rng(707)
        n = 80
        x = rng.uniform(-1, 1, (n, 1))
        phi = rng.uniform(0.1, 0.9, n)
        nuis = _oracle_nuis(
            np.column_stack([1 - phi, phi]),
            rng.standard_normal((n, 2)),
            var=rng.uniform(0.3, 1.5, (n, 2)),
        )
        a = (rng.random(n) < phi).astype(int)
        a[:2] = [0, 1]
        data = Dataset(covariates=x, actions=a, outcomes=rng.standard_normal(n), m=2)
        pseudo = dr_pseudo_outcomes(data, nuis)
        gap = gap_statistics(nuis)
        raw = 1.0 / ((1.0 / nuis.propensity).sum(axis=1))
        zmap = FeatureMap.parse("identity")
        policies = [LinearPolicy(rng.standard_normal(2)) for _ in range(25)]
        finite = PolicyClass(tuple(policies))

        base = WeightScheme.from_raw("w", raw)
        ref = {
            "linear_theta": learn_linear(base, pseudo, data).best.theta,
            "finite": learn_finite(finite, base, pseudo, data),
            "proxy": variance_proxy(base, nuis),
            "ratio_t": selection_ratio(base, gap, nuis, "times_delta"),
            "ratio_o": selection_ratio(base, gap, nuis, "over_delta"),
            "beta_best": fit_best_fit(pseudo.values[:, 1], base, zmap, data).beta,
            "beta_cate": fit_cate(data, pseudo, base, zmap).beta,
        }
        for c in (0.1, 10.0):
            w = WeightScheme.from_raw("w", c * raw)
            assert np.array_equal(learn_linear(w, pseudo, data).best.theta, ref["linear_theta"])
            scaled = learn_finite(finite, w, pseudo, data)
            assert scaled.best_index == ref["finite"].best_index
            assert scaled.value_gap == pytest.approx(ref["finite"].value_gap, abs=1e-10)
            assert variance_proxy(w, nuis) == pytest.approx(ref["proxy"], rel=1e-10)
            assert selection_ratio(w, gap, nuis, "times_delta") == pytest.approx(
                ref["ratio_t"], rel=1e-10
            )
            assert selection_ratio(w, gap, nuis, "over_delta") == pytest.approx(
                ref["ratio_o"], rel=1e-10
            )
            assert fit_best_fit(pseudo.values[:, 1], w, zmap, data).beta == pytest.approx(
                ref["beta_best"], abs=1e-10
            )
            assert fit_cate(data, pseudo, w, zmap).beta == pytest.approx(
                ref["beta_cate"], abs=1e-10
            )
        # shifting every score by a constant moves values, not the argmax
        shifted = PseudoOutcomes(values=pseudo.values + 2.75)
        assert np.array_equal(
            learn_linear(base, shifted, data).best.theta, ref["linear_theta"]
        )
        shifted_finite = learn_finite(finite, base, shifted, data)
        assert shifted_finite.best_index == ref["finite"].best_index
        assert shifted_finite.best_value == pytest.approx(
            ref["finite"].best_value + 2.75, rel=1e-12
        )


def test_criterion_8_variance_proxy_minimizer():
    with criterion(8, "variance proxy minimizer", budget_s=10.0):
        for seed in range(20):
            rng = np.random.default_rng(808 + seed)
            n = 100
            phi = rng.uniform(0.05, 0.95, n)
            nuis = _oracle_nuis(
                np.column_stack([1 - phi, phi]), rng.standard_normal((n, 2))
            )  # unit variance everywhere: homoskedastic
            gap = gap_statistics(nuis)
            w0 = homoskedastic_weights(nuis)
            target = variance_proxy(w0, nuis)
            family = [uniform_weights(n)] + [
                curvature_scaled_weights(w0, gap, p) for p in (-2.0, -1.0, 0.0, 1.0, 2.0)
            ]
            for other in family:
                assert target <= variance_proxy(other, nuis) + 1e-12


def test_criterion_9_gap_identities():
    with criterion(9, "gap identities", budget_s=10.0):
        rng = np.random.default_rng(909)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            mu = rng.standard_normal((n, 2))
            gap = gap_statistics(_oracle_nuis(np.full((n, 2), 0.5), mu))
            assert np.array_equal(gap, np.abs(mu[:, 1] - mu[:, 0]))
        for m in (3, 4, 5):
            for _ in range(20):
                n = int(rng.integers(1, 60))
                mu = rng.standard_normal((n, m))
                gap = gap_statistics(_oracle_nuis(np.full((n, m), 1.0 / m), mu))
                assert np.all(gap <= mu.max(axis=1) - mu.min(axis=1) + 1e-15)
        tie_mu = np.full((5, 4), 2.5)
        gap = gap_statistics(_oracle_nuis(np.full((5, 4), 0.25), tie_mu))
        assert np.array_equal(gap, np.zeros(5))


def test_criterion_10_benchmark_structural_replication():
    with criterion(10, "benchmark structural replication", budget_s=600.0):
        scenarios = default_scenarios()
        kwargs = dict(reps=100, n=500, base_seed=0, n_folds=2, threads=_THREADS)
        report = run_benchmark(scenarios, **kwargs)
        assert len(report.rows) == 18  # 3 scenarios x 6 schemes
        again = run_benchmark(scenarios, **kwargs)
        assert report == again  # deterministic end to end
        csv_text = render_report(report, "csv")
        assert len(csv_text.strip().splitlines()) == 19  # header + 18 rows
        md = render_report(report, "markdown")
        cells = re.findall(r"\d+\.\d{3} \(\d+\.\d{3}\)", md)
        assert len(cells) == 18  # every cell rendered as "mean (std)"
        sa_w0 = report.cell("S-A", "w0").mean_regret
        sa_uniform = report.cell("S-A", "uniform").mean_regret
        assert sa_w0 < sa_uniform  # retargeting helps where overlap is strong
