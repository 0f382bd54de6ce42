"""Doubly robust score construction and its unbiasedness under oracle nuisances."""

import warnings

import numpy as np
import pytest

from retarget import (
    Dataset,
    NuisanceSet,
    PseudoOutcomes,
    ValidationError,
    dr_pseudo_outcomes,
    effect_pseudo_outcome,
)


def _nuis(prop, mu, var=None):
    prop = np.asarray(prop, float)
    mu = np.asarray(mu, float)
    if var is None:
        var = np.ones_like(mu)
    return NuisanceSet(propensity=prop, outcome_mean=mu, variance=var, provenance="oracle")


class TestDrPseudoOutcomes:
    def test_direct_substitution(self):
        # mu(+|x)=1, phi(+|x)=0.5, observed arm +, Y=2  ->  score 3
        data = Dataset(
            covariates=np.array([[0.0]]), actions=np.array([1]), outcomes=np.array([2.0]), m=2
        )
        nuis = _nuis([[0.5, 0.5]], [[0.0, 1.0]])
        pseudo = dr_pseudo_outcomes(data, nuis)
        assert pseudo.values[0, 1] == pytest.approx(3.0)

    def test_unobserved_arm_is_model_prediction(self):
        data = Dataset(
            covariates=np.array([[0.0]]), actions=np.array([0]), outcomes=np.array([2.0]), m=2
        )
        nuis = _nuis([[0.5, 0.5]], [[0.0, 1.0]])
        pseudo = dr_pseudo_outcomes(data, nuis)
        assert pseudo.values[0, 1] == 1.0

    def test_zero_residuals_reduce_to_model(self):
        rng = np.random.default_rng(0)
        n, m = 50, 3
        mu = rng.standard_normal((n, m))
        actions = rng.integers(0, m, n)
        prop = np.full((n, m), 1.0 / m)
        data = Dataset(
            covariates=rng.standard_normal((n, 2)),
            actions=actions,
            outcomes=mu[np.arange(n), actions],
            m=m,
        )
        pseudo = dr_pseudo_outcomes(data, _nuis(prop, mu))
        assert np.allclose(pseudo.values, mu, atol=1e-14)

    def test_off_arm_entries_always_equal_model(self):
        rng = np.random.default_rng(1)
        n, m = 200, 4
        mu = rng.standard_normal((n, m))
        prop = rng.uniform(0.1, 1.0, (n, m))
        prop /= prop.sum(axis=1, keepdims=True)
        actions = rng.integers(0, m, n)
        data = Dataset(
            covariates=rng.standard_normal((n, 1)),
            actions=actions,
            outcomes=rng.standard_normal(n),
            m=m,
        )
        pseudo = dr_pseudo_outcomes(data, _nuis(prop, mu))
        mask = np.ones((n, m), bool)
        mask[np.arange(n), actions] = False
        assert np.array_equal(pseudo.values[mask], mu[mask])

    def test_shape_mismatch_rejected(self):
        data = Dataset(
            covariates=np.zeros((2, 1)), actions=np.array([0, 1]), outcomes=np.zeros(2), m=2
        )
        nuis = _nuis([[0.5, 0.5]], [[0.0, 1.0]])
        with pytest.raises(ValidationError, match="does not match"):
            dr_pseudo_outcomes(data, nuis)


class TestEffectPseudoOutcome:
    def test_subtraction(self):
        pseudo = PseudoOutcomes(values=np.array([[1.0, 3.0], [2.0, 2.0]]))
        assert effect_pseudo_outcome(pseudo).tolist() == [2.0, 0.0]

    def test_requires_binary(self):
        pseudo = PseudoOutcomes(values=np.zeros((2, 3)))
        with pytest.raises(ValidationError, match="2 arms"):
            effect_pseudo_outcome(pseudo)

    def test_overflowing_difference_is_invalid(self):
        # Two finite scores whose difference overflows: once a numpy overflow
        # warning and an inf effect score.
        pseudo = PseudoOutcomes(values=np.array([[0.0, 1.0], [-1.7e308, 1.7e308]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^effect scores overflow: "
                                                      r"psi_1 - psi_0 is not finite$"):
                effect_pseudo_outcome(pseudo)

    def test_mc_oracle_effect_mean(self):
        # True effect tau(x) = x with X ~ U[0,1]: sample mean of the effect
        # score estimates E[X] = 0.5 within 3 MC standard errors.
        rng = np.random.default_rng(7)
        n = 20_000
        x = rng.uniform(0.0, 1.0, (n, 1))
        xr = x.ravel()
        phi1 = 1.0 / (1.0 + np.exp(-(xr - 0.5)))
        mu = np.column_stack([1.0 + xr, 1.0 + 2.0 * xr])  # tau(x) = x
        actions = (rng.random(n) < phi1).astype(int)
        outcomes = mu[np.arange(n), actions] + rng.standard_normal(n)
        data = Dataset(covariates=x, actions=actions, outcomes=outcomes, m=2)
        nuis = _nuis(np.column_stack([1 - phi1, phi1]), mu)
        effect = effect_pseudo_outcome(dr_pseudo_outcomes(data, nuis))
        se = effect.std(ddof=1) / np.sqrt(n)
        assert abs(effect.mean() - 0.5) < 3 * se


class TestConditionalUnbiasedness:
    def test_mean_scores_at_fixed_x(self):
        # Many draws at one covariate point: mean score per arm approaches the
        # true arm mean within 3 MC standard errors.
        rng = np.random.default_rng(11)
        n = 20_000
        phi1, mu0, mu1, sd = 0.3, 1.0, 2.5, 0.7
        actions = (rng.random(n) < phi1).astype(int)
        outcomes = np.where(actions == 1, mu1, mu0) + sd * rng.standard_normal(n)
        data = Dataset(covariates=np.zeros((n, 1)), actions=actions, outcomes=outcomes, m=2)
        nuis = _nuis(
            np.tile([1 - phi1, phi1], (n, 1)),
            np.tile([mu0, mu1], (n, 1)),
        )
        pseudo = dr_pseudo_outcomes(data, nuis)
        for arm, truth in ((0, mu0), (1, mu1)):
            col = pseudo.values[:, arm]
            se = col.std(ddof=1) / np.sqrt(n)
            assert abs(col.mean() - truth) < 3 * se
