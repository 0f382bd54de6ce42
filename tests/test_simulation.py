"""Synthetic DGPs, the replicated benchmark, and report rendering."""

import math
import warnings

import numpy as np
import pytest

from retarget import (
    NuisanceConfig,
    NuisanceSet,
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
from retarget.policy import ConstantPolicy, LinearPolicy, _RegretSample
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
        data = generate(scenario, 500, seed=3)
        expected = scenario.nuisances(data.covariates).outcome_mean[np.arange(500), data.actions]
        assert np.array_equal(data.outcomes, expected)

    def test_balanced_constant_propensity_frequencies(self):
        scenario = toy_scenario(prop_slope=0.0)  # phi = (0.5, 0.5) everywhere
        n = 100_000
        data = generate(scenario, n, seed=4)
        freq = data.actions.mean()
        se = math.sqrt(0.25 / n)
        assert abs(freq - 0.5) < 3 * se

    def test_fixed_seed_bit_identical(self):
        scenario = toy_scenario()
        d1 = generate(scenario, 300, seed=9)
        d2 = generate(scenario, 300, seed=9)
        assert np.array_equal(d1.covariates, d2.covariates)
        assert np.array_equal(d1.actions, d2.actions)
        assert np.array_equal(d1.outcomes, d2.outcomes)

    def test_oracle_matrices_are_truth(self):
        # A zero noise_sd gives the variance floor, not 0.
        scenario = ScenarioSpec(
            name="toy", d=1, m=2, covariate_law="uniform",
            propensity_coef=np.array([[0.0, 0.0], [0.0, 1.0]]),
            mean_coef=np.array([[0.0, 0.0], [0.0, 0.5]]), noise_sd=np.array([0.0, 0.7]),
        )
        x = generate(scenario, 100, seed=5).covariates
        oracle = scenario.nuisances(x)
        assert oracle.provenance == "oracle"
        assert oracle.outcome_mean.tobytes() == scenario.mean_matrix(x).tobytes()
        assert oracle.propensity.tobytes() == scenario.propensity_matrix(x).tobytes()
        assert np.array_equal(oracle.variance, np.tile([1e-12, 0.7**2], (100, 1)))

    def test_overflowing_outcomes_name_the_scenario_and_seed(self):
        # Noise of sd 1e308 overflows wherever a normal draw passes 1.8.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^scenario 'toy' at seed 3: .* overflow$"):
                generate(toy_scenario(noise=1e308), 100, seed=3)

    @pytest.mark.parametrize("m", range(2, 10))
    def test_actions_follow_the_cumsum_rule(self, m):
        # Strong logits put many probabilities at the 1e-12 floor.
        rng = np.random.default_rng(m)
        scenario = ScenarioSpec(
            name=f"m{m}", d=2, m=m, covariate_law="normal",
            propensity_coef=4.0 * rng.standard_normal((m, 3)),
            mean_coef=rng.standard_normal((m, 3)), noise_sd=np.ones(m),
        )
        n = 3_000
        for seed in range(3):
            data = generate(scenario, n, seed)
            draw = np.random.default_rng(seed)
            x = scenario.sample_covariates(n, draw)
            prob = scenario.propensity_matrix(x)
            assert prob.tobytes() == scenario.nuisances(data.covariates).propensity.tobytes()
            old = np.minimum((prob.cumsum(axis=1) < draw.random(n)[:, None]).sum(axis=1), m - 1)
            assert data.actions.tobytes() == old.tobytes()


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

    def test_an_arm_count_beyond_the_coefficients_is_invalid(self):
        # A scalar noise_sd used to be broadcast to m entries before the
        # coefficient shapes were checked: ValueError at m = 10**30.
        with pytest.raises(ValidationError, match=r"propensity_coef must be \(10{30}, 2\)"):
            ScenarioSpec(name="bad", d=1, m=10**30, covariate_law="uniform",
                         propensity_coef=np.zeros((2, 2)), mean_coef=np.zeros((2, 2)),
                         noise_sd=1.0)

    # A scenario from keyword arguments alone, leaving out every field that
    # has a default.
    KWARGS = dict(name="toy", d=1, propensity_coef=[[0.0, 0.0], [0.0, 1.0]],
                  mean_coef=[[0.0, 0.0], [0.0, 0.5]], noise_sd=1.0)

    def test_omitted_fields_take_the_file_format_defaults(self):
        scenario = ScenarioSpec(**self.KWARGS)
        assert (scenario.m, scenario.covariate_law, scenario.mean_degree) == (2, "uniform", 1)
        assert scenario.noise_sd.tolist() == [1.0, 1.0]
        with pytest.raises(TypeError):
            ScenarioSpec("toy", 1)  # keyword arguments only

    @pytest.mark.parametrize(
        "change, message",
        [({"d": 1.5}, "d: expected an integer, got 1.5"),
         ({"d": True}, "d: expected an integer, got True"),
         ({"m": "two"}, "m: invalid literal for int() with base 10: 'two'"),
         ({"mean_coef": [[0.0, 0.0], [0.5]]}, "mean_coef: setting an array element with a sequence.")],
        ids=["fractional-d", "bool-d", "string-m", "ragged"],
    )
    def test_fields_convert_by_their_declared_type(self, change, message):
        # A fractional d was truncated to the wrong shape error, a bool d was
        # accepted, and a ragged matrix raised numpy's own ValueError.
        with pytest.raises(ValidationError) as info:
            ScenarioSpec(**{**self.KWARGS, **change})
        assert str(info.value).startswith(message)

    def test_json_round_trip(self, tmp_path):
        import json

        scenarios = default_scenarios()
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps([{"name": s.name, "d": s.d, "m": s.m,
                                     "covariate_law": s.covariate_law,
                                     "propensity_coef": s.propensity_coef.tolist(),
                                     "mean_coef": s.mean_coef.tolist(),
                                     "noise_sd": s.noise_sd.tolist(),
                                     "mean_degree": s.mean_degree} for s in scenarios]))
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

    def test_no_scenarios_is_invalid(self):
        with pytest.raises(ValidationError, match="^need at least one scenario$"):
            run_benchmark([])

    def test_no_schemes_is_invalid(self):
        with pytest.raises(ValidationError, match="^need at least one weight scheme$"):
            run_benchmark([toy_scenario()], schemes=())

    def test_single_rep_has_nan_std(self):
        scenario = toy_scenario()
        report = run_benchmark(
            [scenario], schemes=("uniform",), reps=1, n=80, base_seed=0, regret_draws=500
        )
        assert math.isnan(report.rows[0].std_regret)


def _reference_replicate(scenario, schemes, n, seed, n_folds, regret_draws, oracle_nuisances):
    """The per-scheme regret loop before the shared d=1 sweep and the loss
    table: learn_linear with no cache, the matmul form of LinearPolicy.act,
    a 2-d gather of the chosen arm means and the mean shortfall. The oracle
    set is built from the scenario's matrices here, the reference for
    ScenarioSpec.nuisances."""
    data = generate(scenario, n, seed)
    if oracle_nuisances:
        x = data.covariates
        variance = np.maximum(np.broadcast_to(scenario.noise_sd**2, (n, scenario.m)), 1e-12)
        nuis = NuisanceSet(propensity=scenario.propensity_matrix(x),
                           outcome_mean=scenario.mean_matrix(x), variance=variance,
                           provenance="oracle")
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
            got = _replicate(scenario, DEFAULT_SCHEMES, 500, seed, oracle_nuisances,
                             NuisanceConfig(folds=2), _RegretSample(scenario, 20_000))
            want = _reference_replicate(scenario, DEFAULT_SCHEMES, 500, seed, 2, 20_000,
                                        oracle_nuisances)
            assert got.tobytes() == want.tobytes(), seed

    @pytest.mark.parametrize("n, n_folds", [(500, 2), (499, 3), (501, 2)])
    def test_grouped_folds(self, n, n_folds):
        # Folds of equal training size fit as one stack; at n = 499 with three
        # folds the sizes are 332, 333 and 333, so the stacks hold one and two
        # folds. w0_dp:0 is the kept w0 scheme, and -0.5 a fractional power.
        schemes = ("uniform", "w0", "w0_dp:0", "w0_dp:-0.5", "w0_dp:2")
        for scenario in default_scenarios():
            for seed in (0, 7):
                got = _replicate(scenario, schemes, n, seed, False,
                                 NuisanceConfig(folds=n_folds), _RegretSample(scenario, 5_000))
                want = _reference_replicate(scenario, schemes, n, seed, n_folds, 5_000, False)
                assert got.tobytes() == want.tobytes(), (scenario.name, seed)

    def test_errors_come_in_scheme_order(self, monkeypatch):
        # Scheme names are options: run_benchmark checks them in order before
        # the first replication, so a bad name at any position raises its own
        # error ahead of the m=3 scenario's search error, and nothing is drawn.
        from retarget import simulation

        calls = []
        real = simulation.generate
        monkeypatch.setattr(simulation, "generate", lambda *args: calls.append(args) or real(*args))
        scenario = random_scenario(1, 3, 1, "uniform", seed=2)
        for schemes, message in ((("uniform", "bogus"), "unknown weight scheme 'bogus'"),
                                 (("bogus", "uniform"), "unknown weight scheme 'bogus'"),
                                 (("w0", "w0_dp:x", "bogus"), "bad weight power in 'w0_dp:x'")):
            with pytest.raises(ValidationError, match=f"^{message}"):
                run_benchmark([scenario], schemes, reps=2, n=200, regret_draws=500)
        assert calls == []
        with pytest.raises(ValidationError, match="^linear policy search requires m=2"):
            run_benchmark([scenario], ("uniform", "w0"), reps=1, n=200, regret_draws=500)
        assert len(calls) == 1

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
            got = _replicate(scenario, DEFAULT_SCHEMES, 40, seed, oracle_nuisances,
                             NuisanceConfig(folds=2), _RegretSample(scenario, 3_000))
            want = _reference_replicate(scenario, DEFAULT_SCHEMES, 40, seed, 2, 3_000,
                                        oracle_nuisances)
            assert got.tobytes() == want.tobytes(), seed

    @pytest.mark.parametrize("oracle_nuisances", [False, True], ids=["fitted", "oracle"])
    def test_shared_work_is_built_once_per_replication(self, monkeypatch, oracle_nuisances):
        # The six default schemes share one w0, one gap vector and one d=1
        # sweep; the next replication, on a new dataset and nuisance set,
        # builds its own.
        from retarget import policy, weights

        built = {}
        for module, name in ((weights, "homoskedastic_weights"), (weights, "gap_statistics"),
                             (policy, "_sweep_1d")):
            def counted(obj, build=getattr(module, name), name=name):
                built[name] = built.get(name, 0) + 1
                return build(obj)

            monkeypatch.setattr(module, name, counted)
        scenario = default_scenarios()[0]
        args = (scenario, DEFAULT_SCHEMES, 200, 3, oracle_nuisances, NuisanceConfig(folds=2),
                _RegretSample(scenario, 2_000))
        for reps in (1, 2):
            _replicate(*args)
            assert built == dict.fromkeys(
                ("homoskedastic_weights", "gap_statistics", "_sweep_1d"), reps)

    @pytest.mark.parametrize("oracle_nuisances", [False, True], ids=["fitted", "oracle"])
    def test_one_nuisance_set_per_replication(self, monkeypatch, oracle_nuisances):
        # generate returns the dataset alone: a fitted replication builds only
        # cross_fit's set, and an oracle one only the scenario's truth.
        built = []
        check = NuisanceSet.__post_init__
        monkeypatch.setattr(NuisanceSet, "__post_init__",
                            lambda self: built.append(self.provenance) or check(self))
        run_benchmark([default_scenarios()[0]], reps=2, n=200, regret_draws=500,
                      oracle_nuisances=oracle_nuisances)
        assert built == ["oracle" if oracle_nuisances else "fitted(K=2)"] * 2


def random_scenario(d, m, degree, law, seed=0):
    rng = np.random.default_rng(seed)
    return ScenarioSpec(
        name=f"{law}-d{d}-m{m}-p{degree}",
        d=d,
        m=m,
        covariate_law=law,
        propensity_coef=0.5 * rng.standard_normal((m, d + 1)),
        mean_coef=rng.standard_normal((m, 1 + d * degree)),
        noise_sd=np.ones(m),
        mean_degree=degree,
    )


def _reference_covariates(scenario, n, rng):
    """sample_covariates before it wrote into a buffer."""
    if scenario.covariate_law == "uniform":
        return rng.uniform(-1.0, 1.0, size=(n, scenario.d))
    return rng.standard_normal(size=(n, scenario.d))


def _reference_mean_matrix(scenario, x):
    """mean_matrix before it built its design in one buffer: the stacked
    powers behind an intercept column, times the F-ordered mean_coef.T."""
    powers = np.hstack([x**p for p in range(1, scenario.mean_degree + 1)])
    return np.hstack([np.ones((x.shape[0], 1)), powers]) @ scenario.mean_coef.T


def _reference_in_place_mean_matrix(scenario, x):
    """mean_matrix, and its design, before the design came from add_intercept:
    its own C-ordered builder, times the F-ordered view mean_coef.T. (That
    builder took a C-ordered copy for more than one row, which BLAS rounds
    differently from 16 design columns on.)"""
    x = np.atleast_2d(x)
    n, d = x.shape
    design = np.empty((n, 1 + d * scenario.mean_degree))
    design[:, 0] = 1.0
    np.copyto(design[:, 1 : 1 + d], x)
    for p in range(2, scenario.mean_degree + 1):
        block = design[:, 1 + (p - 1) * d : 1 + p * d]
        if p == 2:
            np.square(x, out=block)
        else:
            np.power(x, p, out=block)
    return np.matmul(design, scenario.mean_coef.T), design


def _reference_shortfall(pi, scenario, n_eval, seed):
    """Per-row regret as a 2-d gather of the chosen arm means."""
    x = _reference_covariates(scenario, n_eval, np.random.default_rng(seed))
    mu = _reference_mean_matrix(scenario, x)
    return mu.max(axis=1) - mu[np.arange(n_eval), pi.act(x)]


class TestRegretBuffers:
    """The regret sample is drawn into buffers kept for a scenario's
    replications; its bits must be those of freshly allocated arrays."""

    @pytest.mark.parametrize("law", ["uniform", "normal"])
    def test_sample_covariates_into_a_buffer(self, law):
        for d in (1, 2, 3):
            scenario = random_scenario(d, 2, 1, law)
            for n in (1, 7, 500, 20_000):
                for seed in (0, 1, 17, 2_024):
                    rng = np.random.default_rng(seed)
                    expected = _reference_covariates(scenario, n, rng)
                    out = np.full((n, d), np.nan)
                    for buffer in (out, None):
                        got_rng = np.random.default_rng(seed)
                        got = scenario.sample_covariates(n, got_rng, out=buffer)
                        assert buffer is None or got is buffer
                        assert got.tobytes() == expected.tobytes(), (d, n, seed)
                        # generate draws on from the same generator.
                        assert got_rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("law", ["uniform", "normal"])
    def test_mean_matrix_into_buffers(self, law):
        rng = np.random.default_rng(5)
        # Up to 10 design columns, then 16 (d=1 at degree 15, 3 at 5, 5 at 3,
        # 15 at 1) and 17 (d=1 at 16, 4 at 4, 2 at 8, 16 at 1), where BLAS
        # rounds a C-ordered mean_coef.T differently from the view.
        shapes = [(d, degree) for d in (1, 2, 3) for degree in (1, 2, 3)]
        shapes += [(1, 15), (3, 5), (5, 3), (15, 1), (1, 16), (4, 4), (2, 8), (16, 1)]
        for d, degree in shapes:
            for m in (2, 3):
                scenario = random_scenario(d, m, degree, law, seed=10 * d + degree)
                for n in (1, 2, 500, 20_000):
                    x = 3.0 * rng.standard_normal((n, d))
                    expected = _reference_mean_matrix(scenario, x).tobytes()
                    assert scenario.mean_matrix(x).tobytes() == expected, (d, degree, m, n)
                    out = np.full((n, m), np.nan)
                    design = np.full((n, 1 + d * degree), np.nan)
                    got = scenario.mean_matrix(x, out=out, design=design)
                    assert got is out and got.tobytes() == expected, (d, degree, m, n)

    @pytest.mark.parametrize("n", [1, 2, 500, 20_000])
    def test_mean_matrix_matches_its_own_builder_for_any_layout(self, n):
        rng = np.random.default_rng(n)
        for d in (1, 2, 3, 4):
            for degree in (1, 2, 3, 4):
                scenario = random_scenario(d, 2, degree, "normal", seed=10 * d + degree)
                wide = 3.0 * rng.standard_normal((n, d + 1))
                subset = wide[:, list(range(d, 0, -1))]  # F-ordered from d = 2
                for x in (np.ascontiguousarray(subset), subset):
                    want_mu, want_design = _reference_in_place_mean_matrix(scenario, x)
                    assert scenario.mean_matrix(x).tobytes() == want_mu.tobytes(), (d, degree)
                    out = np.full((n, 2), np.nan)
                    design = np.full(want_design.shape, np.nan)
                    got = scenario.mean_matrix(x, out=out, design=design)
                    assert got is out and got.tobytes() == want_mu.tobytes(), (d, degree)
                    assert design.tobytes() == want_design.tobytes(), (d, degree)

    def test_reused_sample_across_shapes_matches_fresh_buffers(self):
        # Samples of several shapes, each drawn again and again into its own
        # buffers, give the bits of a freshly made sample and of the reference.
        cases = [
            (toy_scenario(), 3_000),
            (random_scenario(2, 3, 2, "normal", seed=1), 5_001),
            (random_scenario(3, 2, 3, "uniform", seed=2), 5_001),
            (toy_scenario(slope=-0.3), 2_000),
        ]
        rng = np.random.default_rng(9)
        for scenario, n_eval in cases:
            sample = _RegretSample(scenario, n_eval)
            policies = [ConstantPolicy(a) for a in range(scenario.m)]
            policies += [LinearPolicy(rng.standard_normal(scenario.d + 1)) for _ in range(3)]
            for seed in (0, 1, 2):
                sample.draw(seed)
                fresh = _RegretSample(scenario, n_eval).draw(seed)
                for pi in policies:
                    got = sample.shortfall(pi).tobytes()
                    assert got == fresh.shortfall(pi).tobytes()
                    assert got == _reference_shortfall(pi, scenario, n_eval, seed).tobytes()

    def test_replicate_with_a_reused_sample(self):
        # Replications that share one scenario's sample give the regrets of
        # replications that each draw into a fresh one.
        cases = [
            (default_scenarios()[0], 200, 3_000),
            (random_scenario(2, 2, 2, "normal", seed=3), 50, 2_000),
            (default_scenarios()[1], 200, 3_000),
        ]
        for scenario, n, draws in cases:
            sample = _RegretSample(scenario, draws)
            for seed in (3, 4):
                args = (scenario, DEFAULT_SCHEMES, n, seed, False, NuisanceConfig(folds=2))
                got = _replicate(*args, sample).tobytes()
                assert got == _replicate(*args, _RegretSample(scenario, draws)).tobytes()
        # A run over a d=1 scenario and a d=2 one with squared mean terms
        # gives, row for row, the rows of each scenario run alone.
        pair = [toy_scenario(), random_scenario(2, 2, 2, "normal", seed=3)]
        kwargs = dict(schemes=DEFAULT_SCHEMES, reps=3, n=200, regret_draws=3_000)
        alone = [row for s in pair for row in run_benchmark([s], **kwargs).rows]
        assert list(run_benchmark(pair, **kwargs).rows) == alone


class TestTracedCallPattern:
    """perfbench's tracer wraps every public function that
    retarget.simulation looks up from the package, plus
    ScenarioSpec.sample_covariates, ScenarioSpec.mean_matrix and
    LinearPolicy.act. It reads a replication's regret sample off the
    sample_covariates and mean_matrix calls made directly under
    run_benchmark, and one regret per scheme off the act calls made there.
    These counting wrappers pin that call pattern."""

    def test_regret_calls_per_replication(self, monkeypatch):
        import inspect

        from retarget import simulation

        stack = ["test"]  # names of the wrapped calls now open, innermost last
        events = []       # (name, name of the innermost open call) at each call
        seen = {}         # the regret sample of the open replication
        regrets = []

        def wrap(name, fn):
            def counted(*args, **kwargs):
                parent = stack[-1]
                events.append((name, parent))
                stack.append(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                if parent == "run_benchmark":
                    record(name, args, result)
                return result

            return counted

        def record(name, args, result):
            if name == "sample_covariates":
                assert args[1] == draws
                seen["x"] = result
            elif name == "mean_matrix":
                assert args[1] is seen["x"]
                assert result.shape == (draws, args[0].m)
                seen["mu"], seen["best"] = result, result.max(axis=1)
            elif name == "act":
                # Read as the tracer reads it: at the call, from the buffers.
                assert args[1] is seen["x"]
                assert result.shape == (draws,) and result.dtype.kind == "i"
                chosen = seen["mu"][np.arange(draws), result]
                regrets.append(float(np.mean(seen["best"] - chosen)))

        for attr, value in list(vars(simulation).items()):
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__.startswith("retarget.")):
                monkeypatch.setattr(simulation, attr, wrap(attr, value))
        for owner, attr in ((ScenarioSpec, "sample_covariates"), (ScenarioSpec, "mean_matrix"),
                            (LinearPolicy, "act")):
            monkeypatch.setattr(owner, attr, wrap(attr, getattr(owner, attr)))

        scenarios = [default_scenarios()[0], random_scenario(2, 2, 2, "normal", seed=4)]
        schemes = ("uniform", "w0", "w0_dp:1")
        reps, draws = 3, 1_500
        report = simulation.run_benchmark(
            scenarios, schemes=schemes, reps=reps, n=60, base_seed=2, regret_draws=draws
        )

        direct = [name for name, parent in events if parent == "run_benchmark"
                  and name in ("generate", "sample_covariates", "mean_matrix", "act")]
        one = ["generate", "sample_covariates", "mean_matrix"] + ["act"] * len(schemes)
        assert direct == one * (reps * len(scenarios))
        per_cell = np.array(regrets).reshape(len(scenarios), reps, len(schemes)).mean(axis=1)
        for row, rebuilt in zip(report.rows, per_cell.ravel()):
            assert rebuilt == pytest.approx(row.mean_regret, rel=1e-12, abs=1e-15)


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

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_empty_report_is_invalid(self, fmt):
        with pytest.raises(ValidationError, match="^cannot render an empty report$"):
            render_report(BenchmarkReport(rows=()), fmt)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError, match="format"):
            render_report(self.sample_report(), "html")

    def test_default_schemes_match_report_columns(self):
        assert DEFAULT_SCHEMES == ("uniform", "w0", "w0_dp:1", "w0_dp:2", "w0_dp:-1", "w0_dp:-2")
