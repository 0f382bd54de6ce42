"""Synthetic DGPs, the replicated benchmark, and report rendering."""

import math

import numpy as np
import pytest

from retarget import (
    NuisanceConfig,
    ScenarioSpec,
    ValidationError,
    cross_fit,
    default_scenarios,
    dr_pseudo_outcomes,
    generate,
    learn_linear,
    load_report,
    load_scenarios,
    make_folds,
    make_weights,
    render_report,
    run_benchmark,
)
from retarget.simulation import (
    _FOLD_SEED_OFFSET,
    _REGRET_SEED_OFFSET,
    DEFAULT_SCHEMES,
    BenchmarkReport,
    BenchmarkRow,
    _replicate,
)


def toy_scenario(noise=1.0, slope=0.5, prop_slope=1.0):
    return ScenarioSpec(
        name="toy",
        d=1,
        m=2,
        covariate_law="uniform",
        propensity_coef=np.array([[0.0, 0.0], [0.0, prop_slope]]),
        mean_coef=np.array([[0.0, 0.0], [0.0, slope]]),
        noise_sd=np.array([noise, noise]),
    )


class TestGenerate:
    def test_noiseless_outcomes_equal_means(self):
        scenario = toy_scenario(noise=0.0)
        data, oracle = generate(scenario, 500, seed=3)
        expected = oracle.outcome_mean[np.arange(500), data.actions]
        assert np.array_equal(data.outcomes, expected)

    def test_balanced_constant_propensity_frequencies(self):
        scenario = toy_scenario(prop_slope=0.0)  # phi = (0.5, 0.5) everywhere
        n = 100_000
        data, _ = generate(scenario, n, seed=4)
        freq = data.actions.mean()
        se = math.sqrt(0.25 / n)
        assert abs(freq - 0.5) < 3 * se

    def test_fixed_seed_bit_identical(self):
        scenario = toy_scenario()
        d1, o1 = generate(scenario, 300, seed=9)
        d2, o2 = generate(scenario, 300, seed=9)
        assert np.array_equal(d1.covariates, d2.covariates)
        assert np.array_equal(d1.actions, d2.actions)
        assert np.array_equal(d1.outcomes, d2.outcomes)
        assert np.array_equal(o1.propensity, o2.propensity)

    def test_oracle_matrices_are_truth(self):
        scenario = toy_scenario()
        data, oracle = generate(scenario, 100, seed=5)
        assert np.allclose(oracle.outcome_mean, scenario.mean_matrix(data.covariates))
        assert np.allclose(oracle.propensity, scenario.propensity_matrix(data.covariates))


class TestScenarioSpec:
    def test_normal_law(self):
        scenario = ScenarioSpec(
            name="g",
            d=2,
            m=2,
            covariate_law="normal",
            propensity_coef=np.zeros((2, 3)),
            mean_coef=np.zeros((2, 3)),
            noise_sd=np.array([1.0, 1.0]),
        )
        x = scenario.sample_covariates(20_000, np.random.default_rng(0))
        assert abs(x.mean()) < 0.03
        assert abs(x.std() - 1.0) < 0.03

    def test_shape_validation(self):
        with pytest.raises(ValidationError, match="propensity_coef"):
            ScenarioSpec(
                name="bad",
                d=2,
                m=2,
                covariate_law="uniform",
                propensity_coef=np.zeros((2, 2)),
                mean_coef=np.zeros((2, 3)),
                noise_sd=np.array([1.0, 1.0]),
            )

    def test_json_round_trip(self, tmp_path):
        import json

        scenarios = default_scenarios()
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps([s.to_jsonable() for s in scenarios]))
        back = load_scenarios(str(path))
        assert [s.name for s in back] == [s.name for s in scenarios]
        for a, b in zip(back, scenarios):
            assert np.array_equal(a.propensity_coef, b.propensity_coef)
            assert np.array_equal(a.mean_coef, b.mean_coef)


class TestRunBenchmark:
    def test_noiseless_realizable_zero_regret(self):
        # Dominant arm, no noise, oracle nuisances: every scheme learns the
        # oracle policy and regret is exactly zero.
        scenario = ScenarioSpec(
            name="dominant",
            d=1,
            m=2,
            covariate_law="uniform",
            propensity_coef=np.array([[0.0, 0.0], [0.0, 1.0]]),
            mean_coef=np.array([[0.0, 0.0], [1.0, 0.2]]),  # arm 1 better everywhere
            noise_sd=np.array([0.0, 0.0]),
        )
        report = run_benchmark(
            [scenario], schemes=("uniform", "w0"), reps=3, n=200, base_seed=1,
            oracle_nuisances=True, regret_draws=5_000,
        )
        for row in report.rows:
            assert row.mean_regret == 0.0

    def test_shape_and_determinism(self):
        scenarios = default_scenarios()
        kwargs = dict(reps=3, n=120, base_seed=5, regret_draws=2_000)
        r1 = run_benchmark(scenarios, **kwargs)
        r2 = run_benchmark(scenarios, **kwargs)
        assert len(r1.rows) == 18  # 3 scenarios x 6 schemes
        assert r1 == r2

    def test_threads_do_not_change_results(self):
        scenarios = default_scenarios()[:1]
        kwargs = dict(schemes=("uniform", "w0"), reps=4, n=100, base_seed=2, regret_draws=1_000)
        serial = run_benchmark(scenarios, **kwargs, threads=1)
        threaded = run_benchmark(scenarios, **kwargs, threads=4)
        assert serial == threaded

    def test_replications_start_no_thread(self, monkeypatch):
        # threads= is accepted and ignored: every replication runs in the
        # calling thread, so a run that could not start one still reports.
        import threading

        scenarios = default_scenarios()[:1]
        kwargs = dict(schemes=("uniform", "w0"), reps=3, n=100, base_seed=4, regret_draws=1_000)
        serial = run_benchmark(scenarios, **kwargs, threads=1)

        def refuse(self):
            raise RuntimeError("run_benchmark started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert run_benchmark(scenarios, **kwargs, threads=4) == serial

    def test_seed_schedule_is_base_plus_rep(self):
        # The R-rep aggregate equals the aggregate of R single-rep runs at
        # shifted base seeds: replications are independent and addressable.
        scenario = toy_scenario()
        kwargs = dict(schemes=("uniform",), n=100, regret_draws=1_000)
        combined = run_benchmark([scenario], reps=3, base_seed=10, **kwargs)
        singles = [
            run_benchmark([scenario], reps=1, base_seed=10 + r, **kwargs).rows[0].mean_regret
            for r in range(3)
        ]
        assert combined.rows[0].mean_regret == pytest.approx(np.mean(singles), rel=1e-12)
        assert combined.rows[0].std_regret == pytest.approx(np.std(singles, ddof=1), rel=1e-12)

    def test_single_rep_has_nan_std(self):
        scenario = toy_scenario()
        report = run_benchmark(
            [scenario], schemes=("uniform",), reps=1, n=80, base_seed=0, regret_draws=500
        )
        assert math.isnan(report.rows[0].std_regret)


def _reference_replicate(scenario, schemes, n, seed, n_folds, regret_draws, oracle_nuisances):
    """The per-scheme regret loop before the shared d=1 sweep and the loss
    table: learn_linear with no cache, the matmul form of LinearPolicy.act,
    a 2-d gather of the chosen arm means and the mean shortfall."""
    data, oracle = generate(scenario, n, seed)
    if oracle_nuisances:
        nuis = oracle
    else:
        folds = make_folds(n, n_folds, seed=seed + _FOLD_SEED_OFFSET)
        nuis = cross_fit(data, folds, NuisanceConfig(folds=n_folds))
    pseudo = dr_pseudo_outcomes(data, nuis)
    x_eval = scenario.sample_covariates(
        regret_draws, np.random.default_rng(seed + _REGRET_SEED_OFFSET)
    )
    mu_eval = scenario.mean_matrix(x_eval)
    best_eval = mu_eval.max(axis=1)
    out = []
    for spec in schemes:
        theta = learn_linear(make_weights(spec, nuis), pseudo, data, seed=seed).best.theta
        act = (theta[0] + x_eval @ theta[1:] > 0).astype(int)
        chosen = mu_eval[np.arange(x_eval.shape[0]), act]
        out.append(float(np.mean(best_eval - chosen)))
    return np.array(out)


class TestReplicateMatchesReference:
    @pytest.mark.parametrize("oracle_nuisances", [False, True], ids=["fitted", "oracle"])
    @pytest.mark.parametrize("scenario", default_scenarios(), ids=lambda s: s.name)
    def test_default_scenarios(self, scenario, oracle_nuisances):
        for seed in (0, 1, 17, 123):
            args = (scenario, DEFAULT_SCHEMES, 500, seed, 2, 20_000, oracle_nuisances)
            got = _replicate(*args, NuisanceConfig(folds=2))
            assert got.tobytes() == _reference_replicate(*args).tobytes(), seed

    @pytest.mark.parametrize("oracle_nuisances", [False, True], ids=["fitted", "oracle"])
    def test_d2_scenario(self, oracle_nuisances):
        # d=2 takes the matmul act and the exact search over cells.
        scenario = ScenarioSpec(
            name="d2",
            d=2,
            m=2,
            covariate_law="normal",
            propensity_coef=np.array([[0.0, 0.0, 0.0], [0.2, 1.0, -0.5]]),
            mean_coef=np.array([[0.0, 0.0, 0.0], [0.1, 0.5, -0.4]]),
            noise_sd=np.array([1.0, 0.7]),
        )
        for seed in (0, 5):
            args = (scenario, DEFAULT_SCHEMES, 40, seed, 2, 3_000, oracle_nuisances)
            got = _replicate(*args, NuisanceConfig(folds=2))
            assert got.tobytes() == _reference_replicate(*args).tobytes(), seed


class TestRenderReport:
    def sample_report(self):
        return BenchmarkReport(
            rows=(
                BenchmarkRow("S-A", "uniform", 0.0334567, 0.0601234, 100, 500, 7),
                BenchmarkRow("S-A", "w0", 0.0071999, 0.0180001, 100, 500, 7),
            )
        )

    def test_markdown_cell_format(self):
        text = render_report(self.sample_report(), "markdown")
        assert "0.033 (0.060)" in text
        assert "0.007 (0.018)" in text

    def test_zero_mean_formats(self):
        report = BenchmarkReport(rows=(BenchmarkRow("S", "uniform", 0.0, 0.001, 10, 50, 0),))
        assert "0.000 (0.001)" in render_report(report, "markdown")

    def test_csv_round_trip_six_significant_digits(self, tmp_path):
        report = self.sample_report()
        path = tmp_path / "report.csv"
        path.write_text("# config: {}\n" + render_report(report, "csv"))
        back = load_report(str(path))
        for a, b in zip(back.rows, report.rows):
            assert a.scenario == b.scenario and a.scheme == b.scheme
            assert a.mean_regret == pytest.approx(b.mean_regret, rel=1e-5)
            assert a.std_regret == pytest.approx(b.std_regret, rel=1e-5)
            assert (a.reps, a.n, a.seed) == (b.reps, b.n, b.seed)

    def test_csv_columns(self):
        text = render_report(self.sample_report(), "csv")
        header = text.splitlines()[0]
        assert header == "scenario,scheme,mean_regret,std_regret,R,n,seed"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError, match="format"):
            render_report(self.sample_report(), "html")

    def test_default_schemes_match_report_columns(self):
        assert DEFAULT_SCHEMES == ("uniform", "w0", "w0_dp:1", "w0_dp:2", "w0_dp:-1", "w0_dp:-2")
