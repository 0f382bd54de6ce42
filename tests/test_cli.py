"""Command-line wiring: exit codes, determinism, and output formats."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from retarget import (
    Dataset,
    FeatureMap,
    LinearPolicy,
    NuisanceConfig,
    ScenarioSpec,
    cross_fit,
    dr_pseudo_outcomes,
    generate,
    load_dataset,
    make_folds,
    save_dataset,
)
from retarget.cli import EXIT_ESTIMATION, EXIT_INVALID, EXIT_OK, EXIT_USAGE, main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
TEST_REFERENCE = Path(__file__).resolve().parent / "reference"


def error_lines(capsys) -> list[str]:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error[")]


def scenario_json(s: ScenarioSpec) -> dict:
    """A scenario as one object of the JSON list that load_scenarios reads."""
    return {"name": s.name, "d": s.d, "m": s.m, "covariate_law": s.covariate_law,
            "propensity_coef": s.propensity_coef.tolist(), "mean_coef": s.mean_coef.tolist(),
            "noise_sd": s.noise_sd.tolist(), "mean_degree": s.mean_degree}


@pytest.fixture()
def binary_csv(tmp_path):
    scenario = ScenarioSpec(
        name="cli",
        d=1,
        m=2,
        covariate_law="uniform",
        propensity_coef=np.array([[0.0, 0.0], [0.0, 1.0]]),
        mean_coef=np.array([[0.0, 0.0], [0.2, 0.8]]),
        noise_sd=np.array([0.5, 0.5]),
    )
    data = generate(scenario, 160, seed=21)
    path = tmp_path / "data.csv"
    save_dataset(data, str(path))
    return str(path)


@pytest.fixture()
def ternary_csv(tmp_path):
    rng = np.random.default_rng(0)
    n = 90
    data = Dataset(
        covariates=rng.uniform(-1, 1, (n, 1)),
        actions=rng.integers(0, 3, n),
        outcomes=rng.standard_normal(n),
        m=3,
    )
    path = tmp_path / "data3.csv"
    save_dataset(data, str(path))
    return str(path)


class TestSimulate:
    def test_writes_default_grid(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            [
                "simulate", "--reps", "2", "--n", "80", "--seed", "7",
                "--regret-draws", "500", "--out", str(out), "--threads", "1",
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert '"seed": 7' in lines[0]
        data_rows = [l for l in lines if l and not l.startswith("#")][1:]
        assert len(data_rows) == 18

    def test_markdown_format(self, tmp_path, capsys):
        code = main(
            [
                "simulate", "--reps", "2", "--n", "60", "--schemes", "uniform,w0",
                "--regret-draws", "300", "--format", "markdown", "--threads", "1",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "| scenario | uniform | w0 |" in out

    def test_matches_reference_report(self, tmp_path):
        # The stored seed-0 report pins every regret digit of the default grid.
        out = tmp_path / "report.csv"
        assert main(["simulate", "--reps", "4", "--seed", "0", "--out", str(out)]) == EXIT_OK
        config, body = out.read_text().split("\n", 1)
        assert config.startswith("# config: ")
        assert body == (REFERENCE / "simulate_seed0_reps4.csv").read_text()

    def test_matches_reference_report_normal_d2_degree2(self, tmp_path):
        # A normal covariate law, d=2 and squared terms in the arm means: the
        # regret sample's other draw and design paths, and the d=2 search.
        out = tmp_path / "report.csv"
        argv = ["simulate", "--scenarios", str(TEST_REFERENCE / "normal_d2_deg2.json"),
                "--reps", "4", "--seed", "0", "--n", "100", "--out", str(out)]
        assert main(argv) == EXIT_OK
        config, body = out.read_text().split("\n", 1)
        assert config.startswith("# config: ")
        assert body == (TEST_REFERENCE / "simulate_normal_d2_deg2_reps4_n100.csv").read_text()

    def test_matches_reference_report_oracle_nuisances(self, tmp_path):
        # Each replication's true nuisances in place of cross-fitted ones.
        out = tmp_path / "report.csv"
        argv = ["simulate", "--oracle-nuisances", "--reps", "4", "--seed", "0", "--out", str(out)]
        assert main(argv) == EXIT_OK
        config, body = out.read_text().split("\n", 1)
        assert '"oracle_nuisances": true' in config
        assert body == (TEST_REFERENCE / "simulate_oracle_seed0_reps4.csv").read_text()

    def test_matches_reference_report_n499_three_folds(self, tmp_path):
        # Folds of 332 and 333 training rows: the propensity models fit in two
        # stacks, one of one fold and one of two.
        out = tmp_path / "report.csv"
        argv = ["simulate", "--n", "499", "--folds", "3", "--reps", "4", "--seed", "0",
                "--schemes", "uniform,w0,w0_dp:0,w0_dp:-0.5", "--out", str(out)]
        assert main(argv) == EXIT_OK
        config, body = out.read_text().split("\n", 1)
        assert config.startswith("# config: ")
        assert body == (TEST_REFERENCE / "simulate_n499_folds3_reps4.csv").read_text()

    def test_bad_scheme_exits_invalid(self, capsys):
        # At n=3 every replication's cross-fit fails (exit 4), but a bad scheme
        # name is an option error, reported before any replication runs.
        for n in ("40", "3"):
            code = main(["simulate", "--reps", "1", "--n", n, "--schemes", "uniform,bogus",
                         "--threads", "1"])
            assert code == EXIT_INVALID
            assert capsys.readouterr().err == ("error[ValidationError]: unknown weight scheme "
                                               "'bogus'; expected uniform, w0, or w0_dp:<p>\n")

    def test_scenario_file(self, tmp_path, capsys):
        import json

        from retarget import default_scenarios

        path = tmp_path / "scn.json"
        path.write_text(json.dumps([scenario_json(default_scenarios()[2])]))
        code = main(
            [
                "simulate", "--scenarios", str(path), "--schemes", "uniform",
                "--reps", "2", "--n", "60", "--regret-draws", "300", "--threads", "1",
            ]
        )
        assert code == EXIT_OK
        assert "S-C,uniform," in capsys.readouterr().out

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"d": "x"}, "{path}: scenario 1: d: invalid literal for int() with base 10: 'x'"),
            ({"m": "two"}, "{path}: scenario 1: m: invalid literal for int() with base 10: 'two'"),
            ({"noise_sd": "abc"}, "{path}: scenario 1: noise_sd: could not convert string to float: 'abc'"),
            ({"mean_degree": None}, "{path}: scenario 1: mean_degree: int() argument must be"),
            ({"d": 1e400}, "{path}: scenario 1: d: cannot convert float infinity to integer"),
            ({"d": 1.5}, "{path}: scenario 1: d: expected an integer, got 1.5"),
            ({"m": 2.9}, "{path}: scenario 1: m: expected an integer, got 2.9"),
            ({"mean_degree": 1.5}, "{path}: scenario 1: mean_degree: expected an integer, got 1.5"),
            ({"d": True}, "{path}: scenario 1: d: expected an integer, got True"),
            ({"m": True}, "{path}: scenario 1: m: expected an integer, got True"),
            ({"mean_degree": True}, "{path}: scenario 1: mean_degree: expected an integer, got True"),
            ({"mean_coef": [[0.0, 0.0], [0.5]]}, "{path}: scenario 1: mean_coef: setting an array element"),
            # ScenarioSpec's own checks name the file and the scenario too.
            ({"noise_sd": [1.0, 1.0, 1.0]},
             "{path}: scenario 1: noise_sd must be a scalar or (2,), got (3,)"),
            ({"covariate_law": "cauchy"},
             "{path}: scenario 1: covariate_law must be uniform or normal, got 'cauchy'"),
            ({"propensity_coef": [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]},
             "{path}: scenario 1: propensity_coef must be (2, 2), got (2, 3)"),
            (None, "{path}: scenario 1: expected an object, got list"),
        ],
        ids=["d", "m", "noise_sd", "null", "infinite-d", "fractional-d", "fractional-m",
             "fractional-degree", "bool-d", "bool-m", "bool-degree", "ragged", "noise-length",
             "law", "propensity-shape", "not-an-object"],
    )
    def test_malformed_scenario_is_invalid(self, tmp_path, capsys, change, message):
        import json

        from retarget import default_scenarios

        good = scenario_json(default_scenarios()[0])
        bad = [1] if change is None else {**good, **change}
        path = tmp_path / "scn.json"
        # json.dumps writes 1e400 as Infinity, which json.load reads back as inf.
        path.write_text(json.dumps([good, bad]))
        code = main(["simulate", "--scenarios", str(path), "--reps", "2", "--threads", "1"])
        assert code == EXIT_INVALID
        errors = error_lines(capsys)
        assert len(errors) == 1
        assert errors[0].startswith("error[ValidationError]: " + message.format(path=path))

    @pytest.mark.parametrize("d, m", [(1, 2), (1.0, 2.0), ("1", "2")])
    def test_integral_scenario_fields_load(self, tmp_path, d, m):
        import json

        from retarget import default_scenarios, load_scenarios

        good = default_scenarios()[0]
        path = tmp_path / "scn.json"
        path.write_text(json.dumps([{**scenario_json(good), "d": d, "m": m, "mean_degree": 1.0}]))
        [loaded] = load_scenarios(str(path))
        assert scenario_json(loaded) == scenario_json(good)
        assert all(type(v) is int for v in (loaded.d, loaded.m, loaded.mean_degree))

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--regret-draws", "-1", "regret_draws"), ("--regret-draws", "0", "regret_draws"),
         ("--reps", "0", "reps"), ("--n", "0", "sample size")],
        ids=["-1", "0", "reps-0", "n-0"],
    )
    def test_regret_draws_below_one_is_invalid(self, capsys, flag, value, name):
        # The replication count has the same floor.
        code = main(["simulate", "--reps", "1", "--n", "40", "--schemes", "uniform",
                     flag, value])
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[ValidationError]: {name} must be >= 1, got {value}\n"

    @pytest.mark.parametrize(
        "change, argv",
        [({"mean_coef": [[0.0, 1e308], [0.0, -1e308]]}, ["--n", "100"]),
         ({"propensity_coef": [[0.0, 0.0], [0.0, 1e308]]}, ["--n", "200"]),
         ({"propensity_coef": [[0.0, 0.0], [0.0, 1e308]]}, ["--n", "200", "--oracle-nuisances"])],
        ids=["means", "probabilities", "probabilities-oracle"],
    )
    def test_overflowing_scenario_is_invalid(self, tmp_path, capsys, change, argv):
        # Each printed numpy's RuntimeWarning first. Overflowing means then
        # failed as "non-finite outcome at row 12, column 'y'", and overflowing
        # probabilities exited 0 with actions drawn from nan probabilities.
        from retarget import default_scenarios

        path = tmp_path / "scn.json"
        path.write_text(json.dumps([{**scenario_json(default_scenarios()[0]),
                                     "covariate_law": "normal", **change}]))
        line = _one_error_line(capsys, ["simulate", "--scenarios", str(path), "--reps", "2"] + argv,
                               EXIT_INVALID)
        assert line == ("error[ValidationError]: scenario 'S-A' at seed 0: "
                        "arm probabilities, means or outcomes overflow")

    def test_oracle_nuisances_flag(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            [
                "simulate", "--reps", "2", "--n", "60", "--schemes", "uniform",
                "--regret-draws", "300", "--oracle-nuisances", "--threads", "1",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert '"oracle_nuisances": true' in out.read_text().splitlines()[0]


class TestFit:
    def test_dv_on_three_arms_names_requirement(self, ternary_csv, capsys):
        code = main(["fit", "--equation", "dv", "--arm", "1", "--data", ternary_csv])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error[")
        assert "m=2" in err

    def test_best_fit_writes_key_value_file(self, binary_csv, tmp_path, capsys):
        out = tmp_path / "fit.txt"
        code = main(
            [
                "fit", "--equation", "best_fit", "--arm", "1", "--data", binary_csv,
                "--weights", "w0", "--seed", "3", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        body = out.read_text()
        assert body.startswith("# config: ")
        assert "equation=best_fit" in body
        assert "beta_0=" in body and "beta_1=" in body
        assert "residual_norm=" in body
        stdout = capsys.readouterr().out
        assert "best_fit regression" in stdout

    @pytest.mark.parametrize("arm", ["5", "2", "-1"])
    def test_best_fit_arm_outside_the_arms_is_invalid(self, binary_csv, tmp_path, capsys, arm):
        # The arm indexed the scores unchecked: 5 escaped as an IndexError and
        # -1 fitted the last arm. Every equation that reads --arm checks it
        # before any fit, also on a 4-row file whose cross-fit fails (it
        # exited 4 with the fit's singular Gram matrix).
        failing = tmp_path / "four.csv"
        failing.write_text("x1,a,y\n0.1,0,1\n0.2,1,2\n0.3,0,1\n0.4,1,2\n")
        out = tmp_path / "fit.txt"
        for data in (binary_csv, str(failing)):
            for equation in ("best_fit", "on_arm", "dv"):
                code = main(["fit", "--equation", equation, "--arm", arm, "--data", data,
                             "--out", str(out)])
                assert code == EXIT_INVALID, (data, equation)
                assert error_lines(capsys) == [f"error[ValidationError]: arm {arm} outside {{0..1}}"]
                assert not out.exists()

    def test_on_arm_modes(self, binary_csv, tmp_path):
        for mode in ("known", "ols", "irls"):
            code = main(
                [
                    "fit", "--equation", "on_arm", "--arm", "1", "--mode", mode,
                    "--data", binary_csv, "--out", str(tmp_path / f"{mode}.txt"),
                ]
            )
            assert code == EXIT_OK

    def test_cate_with_features(self, binary_csv, tmp_path):
        code = main(
            [
                "fit", "--equation", "cate", "--data", binary_csv,
                "--features", "poly:2", "--out", str(tmp_path / "cate.txt"),
            ]
        )
        assert code == EXIT_OK

    def test_missing_file_exits_invalid(self, capsys):
        code = main(["fit", "--equation", "cate", "--data", "/nonexistent.csv"])
        assert code == EXIT_INVALID

    def test_covariate_header_error_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "x2.csv"
        path.write_text("x2,a,y\n0.5,0,1.0\n-0.5,1,2.0\n")
        code = main(["fit", "--equation", "cate", "--data", str(path)])
        assert code == EXIT_INVALID
        assert error_lines(capsys) == [
            f"error[ValidationError]: {path}: covariate columns must be named x1..x1 in order, "
            "got ['x2']"
        ]

    def test_oracle_nuisances_file(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        n = 50
        x = rng.uniform(-1, 1, (n, 1))
        a = rng.integers(0, 2, n)
        a[:2] = [0, 1]
        y = rng.standard_normal(n)
        data = Dataset(covariates=x, actions=a, outcomes=y, m=2)
        data_path = tmp_path / "d.csv"
        save_dataset(data, str(data_path))
        phi = rng.uniform(0.2, 0.8, n)
        oracle_path = tmp_path / "oracle.csv"
        lines = ["phi_0,phi_1,mu_0,mu_1"]
        for i in range(n):
            lines.append(f"{float(1 - phi[i])!r},{float(phi[i])!r},0.0,0.0")
        oracle_path.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "fit", "--equation", "cate", "--data", str(data_path),
                "--oracle", str(oracle_path), "--weights", "w0",
                "--out", str(tmp_path / "fit.txt"),
            ]
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("header", ["phi_a,phi_1,mu_0,mu_1", "phi_0,phi_1,mu_0,mu_x",
                                        "phi_0,phi_1,mu_0,mu_1,var_,var_1"])
    def test_oracle_column_without_an_arm_number_is_invalid(
        self, binary_csv, tmp_path, capsys, header
    ):
        oracle = tmp_path / "oracle.csv"
        bad = next(h for h in header.split(",") if not h[-1].isdigit())
        oracle.write_text(header + "\n" + ",".join(["0.5"] * len(header.split(","))) + "\n")
        code = main(["fit", "--equation", "cate", "--data", binary_csv, "--oracle", str(oracle)])
        assert code == EXIT_INVALID
        prefix = bad[: bad.index("_") + 1]
        assert error_lines(capsys) == [
            f"error[ValidationError]: {oracle}: column {bad!r} is not {prefix}<arm number>"
        ]

    @pytest.mark.parametrize(
        "header, row, line, message",
        [
            ("phi_0,phi_1,mu_0,mu_1", 3, "", "row 3 has 0 cells, header has 4"),
            ("phi_0,phi_1,mu_0,mu_1", 5, "0.5,0.5,0", "row 5 has 3 cells, header has 4"),
            ("phi_0,phi_1,mu_0,mu_1", 7, "0.5,0.5,0,0,9", "row 7 has 5 cells, header has 4"),
            ("phi_0,phi_2,mu_0,mu_2", None, None,
             "phi_* columns must number the arms 0..1 once each, got ['phi_0', 'phi_2']"),
            ("phi_0,phi_1,mu_1,mu_2", None, None,
             "mu_* columns must number the arms 0..1 once each, got ['mu_1', 'mu_2']"),
            ("phi_0,phi_0,mu_0,mu_1", None, None,
             "phi_* columns must number the arms 0..1 once each, got ['phi_0', 'phi_0']"),
        ],
        ids=["blank-line", "short-row", "extra-cell", "arm-gap", "arms-from-1", "repeated-arm"],
    )
    def test_malformed_oracle_rows_and_arm_numbers_are_invalid(
        self, binary_csv, tmp_path, capsys, header, row, line, message
    ):
        lines = ["0.5,0.5,0,0"] * 160  # one row per observation of binary_csv
        if row is not None:
            lines[row] = line
        oracle = tmp_path / "oracle.csv"
        oracle.write_text(header + "\n" + "\n".join(lines) + "\n")
        code = main(["fit", "--equation", "cate", "--data", binary_csv, "--oracle", str(oracle)])
        assert code == EXIT_INVALID
        assert error_lines(capsys) == [f"error[ValidationError]: {oracle}: {message}"]

    def _oracle_on_arm_betas(self, binary_csv, path, columns):
        header = "phi_0,phi_1,mu_0,mu_1" + ",var_0,var_1" * (columns.shape[1] == 6)
        path.write_text(header + "\n" + "".join(
            ",".join(repr(float(v)) for v in r) + "\n" for r in columns))
        out = path.with_suffix(".txt")
        code = main(["fit", "--equation", "on_arm", "--mode", "known", "--arm", "1",
                     "--data", binary_csv, "--oracle", str(path), "--out", str(out)])
        assert code == EXIT_OK
        return [line for line in out.read_text().splitlines() if line.startswith("beta_")]

    def test_oracle_variances_weight_the_on_arm_fit(self, binary_csv, tmp_path):
        rng = np.random.default_rng(5)
        phi = rng.uniform(0.2, 0.8, 160)
        base = np.column_stack([1 - phi, phi, np.zeros(160), np.zeros(160)])
        var = rng.uniform(0.5, 2.0, (160, 2))
        constant = self._oracle_on_arm_betas(binary_csv, tmp_path / "c.csv", base)
        per_row = self._oracle_on_arm_betas(
            binary_csv, tmp_path / "v.csv", np.column_stack([base, var]))
        assert per_row != constant
        # Variances below 1e-12 are read as 1e-12.
        zero, floor = var.copy(), var.copy()
        zero[::4, 1], floor[::4, 1] = 0.0, 1e-12
        floored = self._oracle_on_arm_betas(
            binary_csv, tmp_path / "z.csv", np.column_stack([base, zero]))
        assert floored == self._oracle_on_arm_betas(
            binary_csv, tmp_path / "f.csv", np.column_stack([base, floor]))
        assert floored != per_row

    def test_oracle_variance_count_must_match(self, binary_csv, tmp_path, capsys):
        oracle = tmp_path / "oracle.csv"
        oracle.write_text("phi_0,phi_1,mu_0,mu_1,var_0\n" + "0.5,0.5,0,0,1\n" * 160)
        code = main(["fit", "--equation", "cate", "--data", binary_csv, "--oracle", str(oracle)])
        assert code == EXIT_INVALID
        assert error_lines(capsys) == [
            f"error[ValidationError]: {oracle}: var_* columns must match phi_* count"
        ]

    @pytest.mark.parametrize("variance", ["pooled", "per_arm"])
    def test_oracle_means_whose_residuals_overflow_their_variance(
        self, binary_csv, tmp_path, capsys, variance
    ):
        # With no var_* columns the variances come from the squared residuals,
        # which overflow at means of +-1.7e308.
        oracle = tmp_path / "oracle.csv"
        oracle.write_text("phi_0,phi_1,mu_0,mu_1\n" + "0.5,0.5,-1.7e308,1.7e308\n" * 160)
        code = _main_without_warnings(["fit", "--equation", "cate", "--data", binary_csv,
                                       "--oracle", str(oracle), "--variance", variance])
        assert code == EXIT_INVALID
        assert error_lines(capsys) == [
            f"error[ValidationError]: {oracle}: variances derived from the outcome means' "
            "residuals are not finite"
        ]

    @pytest.mark.parametrize(
        "rows, arms, message",
        [
            (155, 2, "oracle nuisances have 155 rows, the dataset 160"),
            (170, 2, "oracle nuisances have 170 rows, the dataset 160"),
            (160, 3, "oracle nuisances have 160 rows and 3 arms, the dataset 160 rows and 2 arms"),
            (150, 3, "oracle nuisances have 150 rows and 3 arms, the dataset 160 rows and 2 arms"),
        ],
        ids=["short", "long", "arms", "rows-and-arms"],
    )
    def test_oracle_row_count_names_the_file(
        self, binary_csv, tmp_path, capsys, rows, arms, message
    ):
        oracle = tmp_path / "oracle.csv"
        header = ",".join([f"phi_{k}" for k in range(arms)] + [f"mu_{k}" for k in range(arms)])
        row = ",".join([repr(1 / arms)] * arms + ["0"] * arms)
        oracle.write_text(header + "\n" + (row + "\n") * rows)
        code = main(["fit", "--equation", "cate", "--data", binary_csv, "--oracle", str(oracle)])
        assert code == EXIT_INVALID
        assert error_lines(capsys) == [f"error[ValidationError]: {oracle}: {message}"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--clip", "0.7"], "propensity_clip must be in (0, 0.5), got 0.7"),
            (["--folds", "999"], "fold count 999 exceeds sample size 160"),
            (["--features", "poly:x"], "bad polynomial degree in 'poly:x'"),
            (["--features", "poly:0"], "polynomial degree must be >= 1, got 0"),
            (["--features", "subset:a"], "bad subset indices in 'subset:a'"),
        ],
        ids=["clip", "folds", "poly-x", "poly-0", "subset-a"],
    )
    def test_option_errors_come_before_the_oracle_shape(
        self, binary_csv, tmp_path, capsys, flags, message
    ):
        oracle = tmp_path / "oracle.csv"
        oracle.write_text("phi_0,phi_1,mu_0,mu_1\n" + "0.5,0.5,0,0\n" * 20)  # 20 of 160 rows
        code = main(["fit", "--equation", "cate", "--data", binary_csv, "--oracle", str(oracle)]
                    + flags)
        assert code == EXIT_INVALID
        assert error_lines(capsys) == [f"error[ValidationError]: {message}"]

    def test_dump_psi(self, binary_csv, tmp_path):
        psi_path = tmp_path / "psi.csv"
        code = main(
            [
                "fit", "--equation", "cate", "--data", binary_csv,
                "--dump-psi", str(psi_path), "--out", str(tmp_path / "f.txt"),
            ]
        )
        assert code == EXIT_OK
        assert psi_path.read_text().startswith("psi_0,psi_1")

    def test_outcomes_that_overflow_the_fits_are_an_estimation_failure(self, tmp_path, capsys):
        # Arm 0's outcomes of -1.7e308 overflow its regression's z.T @ y: this
        # used to print numpy's warnings, then exit 3 with "nuisance matrices
        # must be finite", as if the file were malformed.
        data_path, _ = _huge_outcome_files(tmp_path, 1)
        code = _main_without_warnings(["fit", "--equation", "cate", "--data", str(data_path)])
        assert code == EXIT_ESTIMATION
        assert error_lines(capsys) == [
            "error[EstimationError]: fold 0: outcome regression of arm 0: "
            "overflow encountered in matmul"
        ]

    def test_residuals_that_overflow_their_variance_name_the_stage(self, tmp_path, capsys):
        # Outcomes of +-1e200, flipping sign every two rows, fit each arm's
        # regression, but their squared residuals overflow.
        path = tmp_path / "variance.csv"
        path.write_text("x1,a,y\n" + "".join(f"{i / 40!r},{i % 2},{(1e200, -1e200)[i // 2 % 2]!r}\n"
                                              for i in range(40)))
        line = _one_error_line(capsys, ["fit", "--equation", "dv", "--data", str(path)],
                               EXIT_ESTIMATION)
        assert line == ("error[EstimationError]: fold 0: residual variance: "
                        "overflow encountered in square")

    @pytest.mark.parametrize("mode", ["ols", "irls"])
    def test_outcomes_that_overflow_the_on_arm_fit_are_an_estimation_failure(
        self, tmp_path, capsys, mode
    ):
        # Arm 1's outcomes of 1.7e308 overflow z.T @ y: ols used to print
        # numpy's warning and exit 0 with nan coefficients, irls the warning
        # and then "SVD did not converge".
        data_path, _ = _huge_outcome_files(tmp_path, 1)
        out = tmp_path / "fit.txt"
        code = _main_without_warnings(["fit", "--equation", "on_arm", "--mode", mode,
                                       "--data", str(data_path), "--out", str(out)])
        assert code == EXIT_ESTIMATION
        assert error_lines(capsys) == [
            f"error[EstimationError]: on-arm regression (arm 1, mode {mode}): "
            "overflow encountered in matmul"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("levels, want", [("0,0.01,1", EXIT_OK), ("0,1", EXIT_ESTIMATION)])
    def test_irls_weights_that_underflow(self, tmp_path, capsys, levels, want):
        # Zero outcomes at the low levels and +-2^600 at x = 1: the fitted
        # log-variances span ~850, so the rows at x = 1 get weight 0. Two
        # levels left give a finite fit, one a singular design. Arm 0 holds
        # one row.
        rows = [(float(x), 2.0 ** 600 * (-1) ** i if x == "1" else 0.0)
                for x in levels.split(",") for i in range(8)]
        x, y = np.array(rows).T
        z = np.column_stack([np.ones_like(x), x])
        log_r2 = 2 * np.log(np.maximum(np.abs(y), 1e-3))  # the plain fit is exactly 0
        assert np.ptp(z @ np.linalg.lstsq(z, log_r2, rcond=None)[0]) > 745
        path, out = tmp_path / "steep.csv", tmp_path / "fit.txt"
        path.write_text("x1,a,y\n0.5,0,0.0\n" + "".join(f"{x!r},1,{y!r}\n" for x, y in rows))
        code = _main_without_warnings(["fit", "--equation", "on_arm", "--mode", "irls",
                                       "--data", str(path), "--out", str(out)])
        assert code == want
        if want == EXIT_OK:
            fit = _fit_file(out)
            assert all(np.isfinite(fit["beta"])) and fit["residual_norm"] <= fit["residual_tol"]
            assert error_lines(capsys) == []
        else:
            assert error_lines(capsys) == [
                "error[EstimationError]: singular weighted design in on-arm regression "
                "(arm 1, mode irls) (16 rows, 2 features); use a smaller feature map or a "
                "ridge-regularized preprocessing"
            ]

    @pytest.mark.parametrize("mode", ["ols", "irls"])
    def test_outcomes_near_1e200_fit_within_their_tolerance(self, tmp_path, mode):
        # The tolerance scales with max|y| as the residual does. On these 15
        # rows of arm 1 the residual is ~1e184; the tolerance used to read
        # 1.5e-07 (1e-8 * 15 rows * max|z| of 1) and the fit still exited 0.
        n = 30
        path, out = tmp_path / "e200.csv", tmp_path / "fit.txt"
        path.write_text("x1,a,y\n" + "".join(
            f"{i / n!r},{i % 2},{1e200 * ((i * 7919) % 13 - 6) / 6!r}\n" for i in range(n)))
        code = _main_without_warnings(["fit", "--equation", "on_arm", "--mode", mode,
                                       "--data", str(path), "--out", str(out)])
        assert code == EXIT_OK
        fit = _fit_file(out)
        assert 1e180 < fit["residual_norm"] <= fit["residual_tol"]

    def test_the_nuisance_set_is_dropped_before_the_regression(self, binary_csv, monkeypatch):
        # Once the scores and weights exist, best_fit, cate and learn hold no
        # reference to the cross-fitted nuisances, which are three n x m matrices.
        import weakref

        import retarget.cli as cli

        refs = []

        def tracked(*args, **kwargs):
            nuis = cross_fit(*args, **kwargs)
            refs.append(weakref.ref(nuis))
            return nuis

        def checked(run):
            def call(*args, **kwargs):
                assert refs[-1]() is None
                return run(*args, **kwargs)
            return call

        monkeypatch.setattr(cli, "cross_fit", tracked)
        for name in ("fit_best_fit", "fit_cate", "learn_linear", "learn_finite"):
            monkeypatch.setattr(cli, name, checked(getattr(cli, name)))
        policies = Path(binary_csv).with_name("policies.txt")
        policies.write_text("const,0\nconst,1\n")
        for argv in (["fit", "--equation", "best_fit"], ["fit", "--equation", "cate"],
                     ["learn", "--class", "linear"], ["learn", "--class", f"finite:{policies}"]):
            assert main(argv + ["--weights", "w0", "--data", binary_csv]) == EXIT_OK
        assert len(refs) == 4


def _reference_on_arm_fit(path, arm, zmap, mode):
    """The on-arm path before ols and irls skipped the cross-fit: the old
    _prepare cross-fitted every nuisance and built the scores for any fit.
    irls is two-stage feasible GLS: OLS of the floored log squared residuals
    on z, then one solve weighted by the inverse fitted variances."""
    data = load_dataset(path)
    config = NuisanceConfig(folds=2, ridge_lambda=0.0, propensity_clip=0.01,
                            variance_mode="pooled")
    folds = make_folds(data.n, 2, seed=0)
    nuis = cross_fit(data, folds, config)
    dr_pseudo_outcomes(data, nuis)

    def solve(z, target, sample_w):
        sample_w = sample_w / float(sample_w.max())
        wz = z * sample_w[:, None]
        beta = np.linalg.solve(wz.T @ z, wz.T @ target)
        resid = wz.T @ (target - z @ beta)
        residual_tol = (1e-8 * z.shape[0] * max(1.0, float(np.abs(z).max()))
                        * max(1.0, float(np.abs(target).max())))
        return beta, float(np.abs(resid).max()), residual_tol

    rows = np.flatnonzero(data.actions == arm)
    z = zmap(data.covariates[rows])
    y = data.outcomes[rows]
    sample_w = 1.0 / nuis.variance[rows, arm] if mode == "known" else np.ones(rows.size)
    beta, norm, tol = solve(z, y, sample_w)
    if mode == "irls":
        log_r2 = 2 * np.log(np.maximum(np.abs(y - z @ beta), 1e-3))
        s = z @ solve(z, log_r2, sample_w)[0]
        beta, norm, tol = solve(z, y, np.exp(s.min() - s))
    return {"beta": beta.tolist(), "residual_norm": norm, "residual_tol": tol,
            "iterations": int(mode == "irls"), "converged": True}


def _fit_file(path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        if "=" in line and not line.startswith("#"):
            key, value = line.split("=", 1)
            out[key] = value
    betas = [float(out[f"beta_{j}"]) for j in range(sum(k.startswith("beta_") for k in out))]
    return {"beta": betas, "residual_norm": float(out["residual_norm"]),
            "residual_tol": float(out["residual_tol"]), "iterations": int(out["iterations"]),
            "converged": out["converged"] == "True"}


def _bits(fit: dict) -> dict:
    """The fit with every float as its bytes, so that -0.0 and 0.0 differ."""
    def raw(v):
        return np.float64(v).tobytes()

    return {**fit, "beta": [raw(v) for v in fit["beta"]],
            "residual_norm": raw(fit["residual_norm"]), "residual_tol": raw(fit["residual_tol"])}


class TestOnArmWithoutCrossFit:
    """fit --equation on_arm --mode ols|irls reads no nuisance, so it skips
    the cross-fit and the scores, and dv and on_arm --mode known build no
    scores; every option is still checked."""

    @staticmethod
    def _draw(tmp_path, m, seed):
        rng = np.random.default_rng(seed)
        scenario = ScenarioSpec(
            name=f"m{m}", d=2, m=m, covariate_law="normal",
            propensity_coef=0.5 * rng.standard_normal((m, 3)),
            mean_coef=rng.standard_normal((m, 3)), noise_sd=np.linspace(0.5, 1.5, m),
        )
        data = generate(scenario, 2_000, seed=seed)
        path = tmp_path / f"m{m}_{seed}.csv"
        save_dataset(data, str(path))
        return str(path)

    @pytest.mark.parametrize("m, seed", [(2, 0), (2, 1), (3, 2)])
    def test_fits_match_the_cross_fitting_path(self, tmp_path, m, seed):
        path = self._draw(tmp_path, m, seed)
        for degree in (1, 2, 3):
            for arm in (0, 1):
                for mode in ("known", "ols", "irls"):
                    out = tmp_path / "fit.txt"
                    code = _main_without_warnings(["fit", "--equation", "on_arm", "--mode", mode,
                                                   "--arm", str(arm), "--features",
                                                   f"poly:{degree}", "--data", path,
                                                   "--out", str(out)])
                    assert code == EXIT_OK
                    got = _fit_file(out)
                    zmap = FeatureMap.parse(f"poly:{degree}")
                    want = _reference_on_arm_fit(path, arm, zmap, mode)
                    assert _bits(got) == _bits(want), (degree, arm, mode)
                    if mode == "irls":
                        assert (got["iterations"], got["converged"]) == (1, True)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--folds", "1"], "fold count must be >= 2, got 1"),
            (["--clip", "0.7"], "propensity_clip must be in (0, 0.5), got 0.7"),
            (["--ridge", "-1"], "ridge_lambda must be >= 0, got -1.0"),
            (["--oracle", "ORACLE"], "ORACLE: oracle nuisances have 20 rows, the dataset 160"),
        ],
        ids=["folds", "clip", "ridge", "oracle"],
    )
    def test_nuisance_options_are_still_checked(self, binary_csv, tmp_path, capsys, flags,
                                                message):
        oracle = tmp_path / "oracle.csv"
        oracle.write_text("phi_0,phi_1,mu_0,mu_1\n" + "0.5,0.5,0,0\n" * 20)  # 20 of 160 rows
        flags = [f.replace("ORACLE", str(oracle)) for f in flags]
        code = main(["fit", "--equation", "on_arm", "--mode", "irls", "--data", binary_csv]
                    + flags)
        assert code == EXIT_INVALID
        assert error_lines(capsys) == [f"error[ValidationError]: {message.replace('ORACLE', str(oracle))}"]

    def test_skips_the_cross_fit_and_the_scores(self, binary_csv, tmp_path, monkeypatch):
        import retarget.cli as cli

        def unused(*args, **kwargs):
            raise AssertionError("the on-arm ols and irls fits read no nuisance")

        oracle = tmp_path / "oracle.csv"
        oracle.write_text("phi_0,phi_1,mu_0,mu_1\n" + "0.5,0.5,0,0\n" * 160)
        monkeypatch.setattr(cli, "cross_fit", unused)
        monkeypatch.setattr(cli, "dr_pseudo_outcomes", unused)
        for mode in ("ols", "irls"):
            for extra in ([], ["--oracle", str(oracle)]):
                argv = ["fit", "--equation", "on_arm", "--mode", mode, "--data", binary_csv]
                assert main(argv + extra) == EXIT_OK

    def test_dv_and_known_build_no_scores(self, binary_csv, tmp_path, monkeypatch):
        import retarget.cli as cli

        def unused(*args, **kwargs):
            raise AssertionError("the dv and known-variance fits read no scores")

        oracle = tmp_path / "oracle.csv"
        oracle.write_text("phi_0,phi_1,mu_0,mu_1,var_0,var_1\n" + "0.5,0.5,0,0,1,1\n" * 160)
        monkeypatch.setattr(cli, "dr_pseudo_outcomes", unused)
        for equation in (["dv"], ["on_arm", "--mode", "known"]):
            for extra in ([], ["--oracle", str(oracle)]):
                argv = ["fit", "--equation", *equation, "--data", binary_csv]
                assert main(argv + extra) == EXIT_OK

    def test_overflowing_scores_stop_only_the_fits_that_read_them(self, tmp_path, capsys):
        # y = 1e300 over a propensity of 1e-16 overflows row 0's arm-0 score,
        # and the fits that read the scores refuse it without a numpy warning.
        n = 40
        rng = np.random.default_rng(5)
        y = rng.standard_normal(n)
        y[0] = 1e300
        data = Dataset(covariates=rng.uniform(-1, 1, (n, 1)), actions=np.arange(n) % 2,
                       outcomes=y, m=2)
        path, oracle = tmp_path / "big.csv", tmp_path / "oracle.csv"
        save_dataset(data, str(path))
        phi_0 = [1e-16] + [0.5] * (n - 1)
        oracle.write_text("phi_0,phi_1,mu_0,mu_1,var_0,var_1\n" + "".join(
            f"{p!r},{1 - p!r},0,0,1,1\n" for p in phi_0))
        base = ["fit", "--data", str(path), "--oracle", str(oracle), "--arm", "0"]
        for equation in (["dv"], ["on_arm", "--mode", "known"]):
            assert main(base + ["--equation", *equation]) == EXIT_OK
            assert error_lines(capsys) == []
        inputs = ["--data", str(path), "--oracle", str(oracle)]
        for command in (["fit", "--equation", "cate"], ["fit", "--equation", "best_fit"],
                        ["learn"]):
            assert _main_without_warnings(command + inputs) == EXIT_INVALID
            assert error_lines(capsys) == [
                "error[ValidationError]: pseudo-outcome matrix contains non-finite entries"
            ]

    def test_dump_psi_still_writes_the_scores(self, binary_csv, tmp_path):
        on_arm, cate = tmp_path / "on_arm.csv", tmp_path / "cate.csv"
        for equation, psi in (["on_arm", "--mode", "irls"], on_arm), (["cate"], cate):
            code = main(["fit", "--equation", *equation, "--data", binary_csv,
                         "--dump-psi", str(psi), "--out", str(tmp_path / "f.txt")])
            assert code == EXIT_OK
        assert on_arm.read_text().startswith("psi_0,psi_1\n")
        assert on_arm.read_bytes() == cate.read_bytes()

    def test_a_training_fold_without_an_arm(self, tmp_path, capsys):
        # Arm 1's rows all sit in fold 0, so fold 0's training rows lack it:
        # cross-fitting fails, and the plain on-arm fits never need it.
        n = 20
        fold_of = make_folds(n, 2, seed=0).fold_of
        a = np.zeros(n, int)
        a[np.flatnonzero(fold_of == 0)[:3]] = 1
        rng = np.random.default_rng(0)
        data = Dataset(covariates=rng.uniform(-1, 1, (n, 1)), actions=a,
                       outcomes=rng.standard_normal(n), m=2)
        path = tmp_path / "lopsided.csv"
        save_dataset(data, str(path))
        for mode in ("ols", "irls"):
            code = _main_without_warnings(["fit", "--equation", "on_arm", "--mode", mode,
                                           "--data", str(path)])
            assert code == EXIT_OK
            assert error_lines(capsys) == []
        for equation in (["best_fit"], ["on_arm", "--mode", "known"]):
            code = main(["fit", "--equation", *equation, "--data", str(path)])
            assert code == EXIT_ESTIMATION
            assert error_lines(capsys) == [
                "error[EstimationError]: fold 0: arm 1 absent from training data"
            ]


def _huge_outcome_files(tmp_path, d, variances=False):
    """A 30-row dataset whose outcomes alternate -+1.7e308 with the arm, and
    an oracle file whose arm means are those outcomes: every score is finite,
    the effect scores and sums of the scores are not."""
    n = 30
    data_path, oracle_path = tmp_path / "huge.csv", tmp_path / "oracle.csv"
    header = ",".join(f"x{j + 1}" for j in range(d))
    data_path.write_text(f"{header},a,y\n" + "".join(
        ",".join([repr(i / n)] * d) + f",{i % 2},{(-1.7e308, 1.7e308)[i % 2]!r}\n"
        for i in range(n)))
    var_header, var_cells = (",var_0,var_1", ",1,1") if variances else ("", "")
    oracle_path.write_text(f"phi_0,phi_1,mu_0,mu_1{var_header}\n"
                           + f"0.5,0.5,-1.7e308,1.7e308{var_cells}\n" * n)
    return data_path, oracle_path


def _main_without_warnings(argv) -> int:
    """main(argv), failing the test if it emits any warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code


class TestLearn:
    def test_byte_identical_reruns(self, binary_csv, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = [
            "learn", "--data", binary_csv, "--class", "linear",
            "--weights", "w0", "--seed", "7",
        ]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert b"theta_0=" in a.read_bytes()

    def test_heuristic_at_covariates_near_1e308(self, tmp_path):
        # 505 rows at d=2 go to the heuristic, whose breakpoints -rest / x at
        # x = 5e-324 and midpoints near 1e308 overflow: it used to return a NaN
        # theta and exit 3 as if the file were malformed.
        rows = [("1.0", 0, -0.0625), ("1e+308", 1, -0.0625), ("5e-324", 0, -0.3125),
                ("1.0", 1, 0.0625), ("-1.5e+308", 0, 0.25)] * 101
        data_path, oracle_path = tmp_path / "huge.csv", tmp_path / "oracle.csv"
        data_path.write_text("x1,x2,a,y\n" + "".join(f"{x},0.0,{a},{y!r}\n" for x, a, y in rows))
        oracle_path.write_text("phi_0,phi_1,mu_0,mu_1\n" + "0.5,0.5,0.0,0.0\n" * len(rows))
        out = tmp_path / "learn.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the margins overflow without a word
            code = main(["learn", "--data", str(data_path), "--oracle", str(oracle_path),
                         "--out", str(out)])
        assert code == EXIT_OK
        lines = dict(line.split("=", 1) for line in out.read_text().splitlines()[1:])
        assert lines["exact"] == "False"
        assert all(np.isfinite(float(lines[f"theta_{j}"])) for j in range(3))
        assert np.isfinite(float(lines["best_value"]))

    @pytest.mark.parametrize("d", [1, 2])
    def test_scores_whose_values_overflow_are_invalid(self, tmp_path, capsys, d):
        # Oracle means of -+1.7e308 and outcomes on them: the scores are finite,
        # but their difference, the effect score, is not. The search used to
        # print best_value=nan (with exact=True at d=2).
        data_path, oracle_path = _huge_outcome_files(tmp_path, d)
        out = tmp_path / "learn.txt"
        code = main(["learn", "--data", str(data_path), "--oracle", str(oracle_path),
                     "--out", str(out)])
        assert code == EXIT_INVALID
        assert error_lines(capsys) == [
            "error[ValidationError]: weighted scores too large: a policy value overflows"
        ]
        assert not out.exists()

    def test_finite_class_on_scores_whose_values_overflow_is_invalid(self, tmp_path, capsys):
        # The finite search used to exit 0 with best_value=inf (or nan) and
        # numpy's overflow warnings.
        data_path, oracle_path = _huge_outcome_files(tmp_path, 1, variances=True)
        policies = tmp_path / "policies.txt"
        policies.write_text("const,0\nconst,1\n0.0,1.0\n")
        code = _main_without_warnings(["learn", "--class", f"finite:{policies}",
                                       "--data", str(data_path), "--oracle", str(oracle_path)])
        assert code == EXIT_INVALID
        assert error_lines(capsys) == [
            "error[ValidationError]: weighted scores too large: a policy value overflows"
        ]

    def test_linear_search_matches_the_stored_outputs(self, tmp_path):
        # The six default schemes on a saved seed-0 draw of S-A (n = 300),
        # without the # config: lines, which name the data path.
        data = str(TEST_REFERENCE / "learn_linear_seed0_data.csv")
        body = []
        for scheme in ("uniform", "w0", "w0_dp:1", "w0_dp:2", "w0_dp:-1", "w0_dp:-2"):
            out = tmp_path / "learn.txt"
            assert main(["learn", "--class", "linear", "--weights", scheme, "--data", data,
                         "--out", str(out)]) == EXIT_OK
            body += [line for line in out.read_text().splitlines(keepends=True)
                     if not line.startswith("#")]
        assert "".join(body) == (TEST_REFERENCE / "learn_linear_seed0.txt").read_text()

    def test_year_valued_covariate_gives_the_labels_of_the_centred_file(self, tmp_path):
        # On [1, x] with x = 2020 + N(0, 1) the propensity Newton loop stalls
        # at its iteration cap; on the centred, scaled design it gives the
        # centred file's propensities, and the search its cut. x - 2020 is exact.
        rng = np.random.default_rng(0)
        n = 1_000
        year = 2020.0 + rng.standard_normal(n)
        a = (rng.random(n) < 1 / (1 + np.exp(2020.0 - year))).astype(int)
        y = a * (0.5 * (year - 2020.0) - 0.2) + rng.standard_normal(n)
        labels, values = [], []
        for x in (year, year - 2020.0):
            path, out = tmp_path / "data.csv", tmp_path / "learn.txt"
            path.write_text("x1,a,y\n" + "".join(f"{u!r},{k},{v!r}\n"
                                                for u, k, v in zip(x.tolist(), a, y.tolist())))
            assert _main_without_warnings(["learn", "--class", "linear", "--data", str(path),
                                           "--out", str(out)]) == EXIT_OK
            lines = dict(line.split("=", 1) for line in out.read_text().splitlines()[1:])
            theta = [float(lines["theta_0"]), float(lines["theta_1"])]
            labels.append(LinearPolicy(theta).act(x[:, None]))
            values.append(float(lines["best_value"]))
        assert np.array_equal(labels[0], labels[1])
        assert values[0] == pytest.approx(values[1], rel=1e-8)

    def test_finite_class(self, binary_csv, tmp_path):
        policies = tmp_path / "policies.txt"
        policies.write_text("const,0\nconst,1\n0.0,1.0\n")
        out = tmp_path / "learn.txt"
        code = main(
            [
                "learn", "--data", binary_csv, "--class", f"finite:{policies}",
                "--weights", "uniform", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        body = out.read_text()
        assert "class=finite(3)" in body
        assert "value_gap=" in body

    def test_unknown_class_invalid(self, binary_csv):
        assert main(["learn", "--data", binary_csv, "--class", "tree"]) == EXIT_INVALID


class TestOverflowingGapPower:
    """A gap power that overflows is one error line naming the scheme: numpy's
    overflow warning and its source line used to come first."""

    @pytest.mark.parametrize("command", ["learn", "simulate", "fit"])
    def test_one_error_line(self, binary_csv, capsys, command):
        argv = {
            "learn": ["learn", "--class", "linear", "--weights", "w0_dp:-400",
                      "--data", binary_csv],
            "simulate": ["simulate", "--schemes", "uniform,w0_dp:-400", "--reps", "1"],
            "fit": ["fit", "--equation", "best_fit", "--weights", "w0_dp:-400",
                    "--data", binary_csv],
        }[command]
        assert _main_without_warnings(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error[ValidationError]: raw weights of w0_dp:-400 have mean inf, not finite and > 0"
        ]


def _one_error_line(capsys, argv, code) -> str:
    """main(argv)'s only stderr line, once its exit code is checked and no
    warning or traceback came with it."""
    assert _main_without_warnings(argv) == code
    err = capsys.readouterr().err
    assert "Warning" not in err and "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    return err.splitlines()[0]


def _effect_overflow_files(tmp_path):
    """A 30-row d=1 file and oracle nuisances whose row-0 scores are
    -1.7e308 and 1.7e308: every score is finite and under w0 weights every
    weighted sum is too, but the effect score psi_1 - psi_0 is not."""
    n = 30
    data_path, oracle_path = tmp_path / "effect.csv", tmp_path / "effect_oracle.csv"
    data_path.write_text("x1,a,y\n0.0,0,-1.7e308\n" + "".join(
        f"{i / n!r},{i % 2},{float(i % 3)!r}\n" for i in range(1, n)))
    oracle_path.write_text("phi_0,phi_1,mu_0,mu_1\n0.99,0.01,-1.7e308,1.7e308\n"
                           + "0.5,0.5,0,1\n" * (n - 1))
    return str(data_path), str(oracle_path)


class TestFailuresAreOneErrorLine:
    """Each of these used to exit 0, warn before its error line, or end in a
    traceback."""

    @pytest.mark.parametrize("argv", [
        ["learn", "--class", "linear", "--weights", "w0"],
        ["fit", "--equation", "cate"],
    ], ids=["learn", "fit-cate"])
    def test_overflowing_effect_score(self, tmp_path, capsys, argv):
        # learn exited 0 with the heuristic's exact=False theta, fit with nan betas.
        data_path, oracle_path = _effect_overflow_files(tmp_path)
        line = _one_error_line(capsys, argv + ["--data", data_path, "--oracle", oracle_path],
                               EXIT_INVALID)
        assert line == "error[ValidationError]: effect scores overflow: psi_1 - psi_0 is not finite"

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--equation", "cate", "--ridge", "nan"], "ridge_lambda must be finite, got nan"),
        (["fit", "--equation", "cate", "--ridge", "inf"], "ridge_lambda must be finite, got inf"),
        (["fit", "--equation", "dv", "--weights", "bogus"],
         "unknown weight scheme 'bogus'; expected uniform, w0, or w0_dp:<p>"),
        (["fit", "--equation", "on_arm", "--mode", "ols", "--weights", "bogus"],
         "unknown weight scheme 'bogus'; expected uniform, w0, or w0_dp:<p>"),
        (["fit", "--equation", "on_arm", "--mode", "known", "--weights", "w0_dp:inf"],
         "power must be finite, got inf"),
        (["learn", "--delta-floor", "-1"], "gap floor must be finite and > 0, got -1.0"),
        (["learn", "--weights", "w0", "--delta-floor", "nan"],
         "gap floor must be finite and > 0, got nan"),
    ], ids=["ridge-nan", "ridge-inf", "dv-weights", "ols-weights", "known-power",
            "floor-negative", "floor-nan"])
    def test_option_checked_for_every_command(self, binary_csv, capsys, argv, message):
        line = _one_error_line(capsys, argv + ["--data", binary_csv], EXIT_INVALID)
        assert line == f"error[ValidationError]: {message}"

    def test_overflowing_feature_power(self, tmp_path, capsys):
        path = tmp_path / "twenty.csv"
        path.write_text("x1,a,y\n20.0,0,1\n" + "".join(f"{i / 10},{i % 2},{i % 3}\n"
                                                      for i in range(1, 30)))
        argv = ["fit", "--equation", "best_fit", "--features", "poly:400", "--data", str(path)]
        line = _one_error_line(capsys, argv, EXIT_INVALID)
        assert line == "error[ValidationError]: feature map produced non-finite values"

    # Sizes past a 64-bit address space fail at once, touching no memory.
    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", str(10**15), "--reps", "1"],
        ["fit", "--equation", "on_arm", "--mode", "ols", "--features", f"poly:{10**15}"],
    ], ids=["simulate-n", "fit-poly"])
    def test_failed_allocation(self, binary_csv, capsys, argv):
        if argv[0] == "fit":
            argv = argv + ["--data", binary_csv]
        line = _one_error_line(capsys, argv, EXIT_INVALID)
        assert line.startswith("error[MemoryError]: Unable to allocate "), line


class TestReport:
    def test_csv_to_markdown(self, tmp_path, capsys):
        src = tmp_path / "r.csv"
        main(
            [
                "simulate", "--reps", "2", "--n", "60", "--schemes", "uniform,w0",
                "--regret-draws", "300", "--out", str(src), "--threads", "1",
            ]
        )
        code = main(["report", "--in", str(src), "--format", "markdown"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "| scenario | uniform | w0 |" in out
        assert "(" in out and ")" in out

    @pytest.mark.parametrize(
        "body, message",
        [
            ("S-A,uniform,abc,0.1,4,500,0\n",
             "malformed report row {'scenario': 'S-A', 'scheme': 'uniform', 'mean_regret': "
             "'abc', 'std_regret': '0.1', 'R': '4', 'n': '500', 'seed': '0'}: "
             "could not convert string to float: 'abc'"),
            ("S-A,uniform,0.1\n",
             "malformed report row {'scenario': 'S-A', 'scheme': 'uniform', 'mean_regret': "
             "'0.1', 'std_regret': None, 'R': None, 'n': None, 'seed': None}: too few fields"),
            ("", "no report rows"),
        ],
        ids=["non-numeric-mean", "short-row", "header-only"],
    )
    def test_malformed_report_is_invalid(self, tmp_path, capsys, body, message):
        path = tmp_path / "r.csv"
        path.write_text("# config: {}\nscenario,scheme,mean_regret,std_regret,R,n,seed\n" + body)
        assert main(["report", "--in", str(path)]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[ValidationError]: {path}: {message}\n"


    def test_markdown_of_a_sparse_report_is_invalid(self, tmp_path, capsys):
        # A scenario without a row for some scheme escaped as a KeyError.
        path = tmp_path / "r.csv"
        path.write_text("scenario,scheme,mean_regret,std_regret,R,n,seed\n"
                        "S-A,uniform,0.1,0.01,4,500,0\nS-B,w0,0.2,0.01,4,500,0\n")
        assert main(["report", "--in", str(path), "--format", "markdown"]) == EXIT_INVALID
        assert error_lines(capsys) == [
            "error[ValidationError]: report has no row for scenario 'S-A' and scheme 'w0'"
        ]
        assert main(["report", "--in", str(path), "--format", "csv"]) == EXIT_OK


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["simulate", "--bogus-flag"]) == EXIT_USAGE

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "simulate" in capsys.readouterr().out

    def test_estimation_failure_code(self, tmp_path, capsys):
        # 2 rows per arm, 1 covariate, ridge 0: singular outcome regressions
        # inside cross-fitting surface as estimation errors.
        path = tmp_path / "tiny.csv"
        path.write_text("x1,a,y\n0.1,0,1.0\n0.1,1,2.0\n0.2,0,1.5\n0.2,1,2.5\n")
        code = main(["fit", "--equation", "cate", "--data", str(path)])
        assert code == EXIT_ESTIMATION

    def test_linear_search_on_a_covariate_free_file_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "no_covariates.csv"
        rng = np.random.default_rng(8)
        path.write_text("a,y\n" + "".join(f"{i % 2},{rng.normal()!r}\n" for i in range(40)))
        code = main(["learn", "--class", "linear", "--data", str(path)])
        assert code == EXIT_INVALID
        assert error_lines(capsys) == [
            "error[ValidationError]: linear policy search needs at least one covariate"
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--equation", "dv", "--arm", "5"], "error[ValidationError]: arm 5 outside {{0..1}}"),
            (["fit", "--equation", "best_fit", "--features", "subset:7"],
             "error[ValidationError]: subset indices [7] outside 0..0"),
            (["learn", "--class", "bogus"],
             "error[ValidationError]: unknown policy class 'bogus'; expected linear or finite:<file>"),
            (["learn", "--class", "finite:{missing}"],
             "error[FileNotFoundError]: [Errno 2] No such file or directory: '{missing}'"),
        ],
        ids=["dv-arm", "subset", "class", "policy-file"],
    )
    def test_options_and_files_are_checked_before_any_fit(self, tmp_path, capsys, monkeypatch,
                                                          argv, message):
        # On a 4-row file whose cross-fit fails, each of these exited 4 with
        # the fit's singular Gram matrix instead of naming its own error.
        from retarget import cli

        monkeypatch.setattr(cli, "cross_fit", lambda *args: pytest.fail("cross-fitted"))
        data, psi, missing = tmp_path / "four.csv", tmp_path / "psi.csv", tmp_path / "missing.txt"
        data.write_text("x1,a,y\n0.1,0,1\n0.2,1,2\n0.3,0,1\n0.4,1,2\n")
        argv = [arg.format(missing=missing) for arg in argv]
        assert main([*argv, "--data", str(data), "--dump-psi", str(psi)]) == EXIT_INVALID
        assert error_lines(capsys) == [message.format(missing=missing)]
        assert not psi.exists()

    @pytest.mark.parametrize(
        "argv, method",
        [
            (["fit", "--equation", "dv"], "overlap-weighted regression"),
            (["fit", "--equation", "cate"], "effect regression"),
            (["learn", "--class", "linear"], "linear policy search"),
        ],
        ids=["dv", "cate", "learn-linear"],
    )
    def test_binary_only_methods_check_the_arm_count_before_any_fit(
            self, tmp_path, capsys, monkeypatch, argv, method):
        # On this 6-row m=3 file each exited 4 with the cross-fit's
        # "fold 0: arm 0 absent from training data".
        from retarget import cli

        monkeypatch.setattr(cli, "cross_fit", lambda *args: pytest.fail("cross-fitted"))
        data = tmp_path / "three_arms.csv"
        data.write_text("x1,a,y\n0.1,0,1\n0.2,1,2\n0.3,2,1\n0.4,0,2\n0.5,1,1\n0.6,2,2\n")
        assert _one_error_line(capsys, [*argv, "--data", str(data)], EXIT_INVALID) == (
            f"error[ValidationError]: {method} requires m=2, got m=3")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,y\n0,1\n1,2\n0,1\n0,3\n", "linear policy search needs at least one covariate"),
            ("a,y\n0,1\n1,2\n2,1\n0,3\n", "linear policy search requires m=2, got m=3"),
        ],
        ids=["no-covariate", "m3-no-covariate"],
    )
    def test_linear_class_checks_the_covariates_before_any_fit(
            self, tmp_path, capsys, monkeypatch, text, message):
        # The 4-row covariate-free file exited 4 with the cross-fit's
        # "fold 0: arm 1 absent from training data"; the arm count is reported first.
        from retarget import cli

        monkeypatch.setattr(cli, "cross_fit", lambda *args: pytest.fail("cross-fitted"))
        data = tmp_path / "no_covariates.csv"
        data.write_text(text)
        assert _one_error_line(capsys, ["learn", "--class", "linear", "--data", str(data)],
                               EXIT_INVALID) == f"error[ValidationError]: {message}"

    def test_malformed_policy_file_is_one_error_line(self, binary_csv, tmp_path, capsys):
        policies = tmp_path / "policies.txt"
        policies.write_text("const,0\nconst,abc\n")
        code = main(["learn", "--data", binary_csv, "--class", f"finite:{policies}"])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error[")] == [
            f"error[ValidationError]: {policies}:2: const action must be an integer, got 'abc'"
        ]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "body, line",
        [
            ("const,0\n0.5\n", 2),                    # theta shorter than 2
            ("const,1\n\n0.5,nan\n", 3),              # non-finite theta
            ("# policies\nconst,-1\n", 2),            # negative action
            ("0.5,1.0\n# wider\n0.5,1.0,2.0\n", 3),  # length differs from the first theta
            ("const,1\n0.5,1.0,2.0\n", 2),            # theta length is not d + 1
        ],
    )
    def test_policy_file_errors_name_the_line(self, binary_csv, tmp_path, capsys, body, line):
        policies = tmp_path / "policies.txt"
        policies.write_text(body)
        code = main(["learn", "--data", binary_csv, "--class", f"finite:{policies}"])
        assert code == EXIT_INVALID
        errors = error_lines(capsys)
        assert len(errors) == 1
        assert f"{policies}:{line}:" in errors[0]

    def test_action_beyond_the_data_arms_is_invalid(self, binary_csv, tmp_path, capsys):
        policies = tmp_path / "policies.txt"
        policies.write_text("const,0\nconst,5\n")
        code = main(["learn", "--data", binary_csv, "--class", f"finite:{policies}"])
        assert code == EXIT_INVALID
        assert error_lines(capsys) == [
            f"error[ValidationError]: {policies}:2: const action 5 is outside 0..1"
        ]

    def test_label_gap_is_invalid_at_load(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        rows = "".join(f"{i / 10},{2 * (i % 2)},{i % 3}\n" for i in range(20))  # labels 0 and 2
        path.write_text("x1,a,y\n" + rows)
        code = main(["fit", "--equation", "cate", "--data", str(path)])
        assert code == EXIT_INVALID
        errors = error_lines(capsys)
        assert len(errors) == 1
        assert "action label 1 never appears" in errors[0]

    @pytest.mark.parametrize(
        "label, message",
        [
            ("99999999999999999999", "action label 99999999999999999999 at row 1 is beyond the int64 range"),
            ("9223372036854775808", "action label 9223372036854775808 at row 1 is beyond the int64 range"),
            # inside int64 but far above the row count: no counter per label
            ("1000000000000", "action label 1 never appears, but labels run up to 1000000000000"),
        ],
        ids=["beyond-int64", "2**63", "far-above-row-count"],
    )
    def test_huge_action_label_is_invalid_at_load(self, tmp_path, capsys, label, message):
        path = tmp_path / "big.csv"
        path.write_text(f"x1,a,y\n0.5,0,1.0\n0.25,{label},2.0\n")
        code = main(["fit", "--equation", "cate", "--data", str(path)])
        assert code == EXIT_INVALID
        errors = error_lines(capsys)
        assert len(errors) == 1
        assert errors[0].startswith(f"error[ValidationError]: {path}: {message}")

    @pytest.mark.parametrize("reader", ["data", "oracle", "policies", "scenarios", "report"])
    def test_non_utf8_input_is_invalid(self, binary_csv, tmp_path, capsys, reader):
        bad = tmp_path / "bad.txt"
        body, argv = {
            "data": (b"x1,a,y\n0.5,0,1.0\n0.2\xff5,1,2.0\n",
                     ["fit", "--equation", "cate", "--data", str(bad)]),
            "oracle": (b"phi_0,phi_1,mu_0,mu_1\n0.5,0.5,0.0,1\xff\n",
                       ["fit", "--equation", "cate", "--data", binary_csv, "--oracle", str(bad)]),
            "policies": (b"const,0\n\xff\n",
                         ["learn", "--data", binary_csv, "--class", f"finite:{bad}"]),
            "scenarios": (b'[{"name": "\xff"}]', ["simulate", "--scenarios", str(bad), "--reps", "2"]),
            "report": (b"scenario,scheme,mean_regret,std_regret,R,n,seed\n\xff\n",
                       ["report", "--in", str(bad)]),
        }[reader]
        bad.write_bytes(body)
        assert main(argv) == EXIT_INVALID
        assert error_lines(capsys) == [
            f"error[ValidationError]: {bad}: not UTF-8 text: byte 0xff (invalid start byte)"
        ]

    @pytest.mark.parametrize("reader, body, message", [
        ("data", 'x1,a,y\n"0.5,1,2\n' + "0.25,0,1\n" * 20_000,
         "field larger than field limit (131072)"),
        ("data", "x1,a,y," + "h" * 140_000 + "\n0.5,1,2,3\n0.5,0,1,3\n",
         "field larger than field limit (131072)"),
        ("oracle", 'phi_0,phi_1,mu_0,mu_1\n"0.5,0.5,0,1\n' + "0.5,0.5,0,1\n" * 20_000,
         "field larger than field limit (131072)"),
        ("report", 'scenario,scheme,mean_regret,std_regret,R,n,seed\n"S-A,w0,0.1,0.01,4,500,0\n'
         + "x" * 140_000 + "\n", "field larger than field limit (131072)"),
        ("scenarios", "[" * 200_000 + "]" * 200_000, "invalid scenario JSON: maximum recursion "
         "depth exceeded while decoding a JSON array from a unicode string"),
        ("scenarios", '[{"name": "s", "d": ' + "1" * 5_001 + "}]", "invalid scenario JSON: "
         "Exceeds the limit (4300 digits) for integer string conversion: value has 5001 digits"),
    ], ids=["data-quote", "data-header", "oracle-quote", "report-quote", "json-depth",
            "json-digits"])
    def test_csv_and_json_limits_name_the_file(self, binary_csv, tmp_path, capsys, reader, body,
                                               message):
        # Each escaped as a csv.Error, a RecursionError or a ValueError with a traceback.
        bad = tmp_path / "bad.txt"
        bad.write_text(body)
        argv = {
            "data": ["fit", "--equation", "cate", "--data", str(bad)],
            "oracle": ["fit", "--equation", "cate", "--data", binary_csv, "--oracle", str(bad)],
            "scenarios": ["simulate", "--scenarios", str(bad), "--reps", "2"],
            "report": ["report", "--in", str(bad)],
        }[reader]
        assert main(argv) == EXIT_INVALID
        errors = error_lines(capsys)
        assert len(errors) == 1
        assert errors[0].startswith(f"error[ValidationError]: {bad}: {message}")

    def test_directory_as_input_is_invalid(self, tmp_path, capsys):
        code = main(["fit", "--equation", "cate", "--data", str(tmp_path)])
        assert code == EXIT_INVALID
        errors = error_lines(capsys)
        assert len(errors) == 1
        assert errors[0].startswith("error[IsADirectoryError]: ")
        assert str(tmp_path) in errors[0]

    def test_single_label_is_invalid_at_load(self, tmp_path, capsys):
        # One arm only: rejected naming the file, not passed on to fail in
        # cross-fitting as "arm 1 absent" (exit 4).
        path = tmp_path / "one_arm.csv"
        path.write_text("x1,a,y\n" + "".join(f"{i / 10},0,{i % 3}\n" for i in range(20)))
        code = main(["fit", "--equation", "cate", "--data", str(path)])
        assert code == EXIT_INVALID
        assert error_lines(capsys) == [
            f"error[ValidationError]: {path}: every action is 0; at least two arms are needed"
        ]


# Fragments of the CSV inputs: cells both readers accept or reject, rows of
# the wrong length, blank lines, three line ends, bad headers. Valid headers
# come first and repeat, so that many examples get past them.
_CELLS = ["x", "1_0", "nan", "inf", "-inf", '"0.5"', " 0.5 ", "", "1e400", "0x10", "1.0",
          "-1", "99999999999999999999", "9223372036854775808", "-9223372036854775809"]
_DATA_HEADERS = ["x1,a,y", "x1,x2,a,y", "y,a,x1", '"x1",a,y', "x1,a,y,y"] * 3 + [
    "a,y", "x2,a,y", "x1,y", "x1,a", "a,a,y", ""]
_ORACLE_HEADERS = ["phi_0,phi_1,mu_0,mu_1", "phi_0,phi_1,mu_0,mu_1,var_0,var_1",
                   "mu_1,phi_1,id,mu_0,phi_0"] * 3 + [
    "phi_0,phi_1,phi_2,mu_0,mu_1,mu_2", "phi_a,phi_1,mu_0,mu_1", "phi_0,phi_1",
    "phi_0,phi_2,mu_0,mu_2", "phi_0,phi_1,mu_0,mu_1,var_0", ""]
_REPORT_HEADERS = ["scenario,scheme,mean_regret,std_regret,R,n,seed"] * 5 + [
    "seed,n,R,std_regret,mean_regret,scheme,scenario", "scenario,scheme,mean_regret", ""]
# csv's field limit: a longer field, such as an unmatched quote's, stops csv.reader.
_FIELD_LIMIT = 131_072


def _valid_cell(column, i, rng):
    if column in ("a", "R", "n", "seed"):
        return str(i % 2)
    if column == "scenario":
        return f"r{i % 2}"
    if column in ("id", "scheme"):
        return f"r{i // 2}"
    if column.startswith("phi_"):
        return repr(0.5)
    if column.startswith("var_"):
        return repr(float(rng.uniform(0.5, 2)))
    return repr(float(rng.normal()))


def _one_in_ten_with_a_bad_byte(draw, body):
    """body, or one time in ten body with a non-UTF-8 byte put in."""
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(body)))
        body = body[:cut] + b"\xff" + body[cut:]
    return body


def _csv_file(draw, headers, n):
    """Bytes of a file: a header, n valid rows, then up to two faults."""
    header = draw(st.sampled_from(headers))
    columns = header.replace('"', "").split(",")
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = [[_valid_cell(c, i, rng) for c in columns] for i in range(n)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1)) if rows[i] else None
        fault = draw(st.sampled_from(["cell", "short", "long", "blank", "quote", "nul", "header"]))
        if fault == "cell" and j is not None:
            rows[i][j] = draw(st.sampled_from(_CELLS))
        elif fault == "quote" and j is not None:  # the rest of the file is one field
            rows[i][j] = '"' + rows[i][j] + "," * _FIELD_LIMIT
        elif fault == "nul" and j is not None:
            rows[i][j] += "\0"
        elif fault == "header":
            header += ",h" + "h" * _FIELD_LIMIT
        elif fault == "short":
            rows[i] = rows[i][:-1]
        elif fault == "long":
            rows[i] = rows[i] + ["0.5"]
        else:
            rows.insert(i, [])
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    body = (eol.join([header] + [",".join(r) for r in rows]) + eol).encode("utf-8")
    return _one_in_ten_with_a_bad_byte(draw, body)


@st.composite
def _input_files(draw):
    """A --data and an --oracle file, mostly of the same row count."""
    n = draw(st.integers(4, 14))
    oracle_rows = draw(st.sampled_from([n, n, n, n - 1, n + 1, 0]))
    return _csv_file(draw, _DATA_HEADERS, n), _csv_file(draw, _ORACLE_HEADERS, oracle_rows)


def _assert_clean_exit(capsys, argv):
    """main(argv) exits 0, 3 or 4 with no traceback, and prints one `error[`
    line exactly when it fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # Newton cap, overflow
        code = main(argv)
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_ESTIMATION)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error[")]
    assert len(errors) == (code != EXIT_OK), err


class TestFuzzedInputFiles:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(files=_input_files(),
           command=st.sampled_from([
               ["fit", "--equation", "cate"],
               ["fit", "--equation", "on_arm", "--mode", "known"],
               ["fit", "--equation", "on_arm", "--mode", "irls"],
               ["learn", "--weights", "w0"],
           ]),
           with_oracle=st.booleans())
    def test_every_exit_is_0_3_or_4_with_one_error_line(
        self, tmp_path, capsys, files, command, with_oracle
    ):
        data_path, oracle_path = tmp_path / "data.csv", tmp_path / "oracle.csv"
        data_path.write_bytes(files[0])
        oracle_path.write_bytes(files[1])
        argv = command + ["--data", str(data_path)]
        if with_oracle:
            argv += ["--oracle", str(oracle_path)]
        _assert_clean_exit(capsys, argv)


# Lines of a finite policy class file, valid and not, and a d=1 dataset's
# neighbours: theta of the wrong length, actions outside {0, 1}, odd numbers.
_POLICY_LINES = ["const,0", "const,1", "0.5,-1", " 0.25 , 2 ", "1e-3,1e3", "# a comment", "",
                 "   "] * 3 + [
    "const,2", "const,-1", "const,1.5", "const,x", "const", "const,0,1", "0.5", "0.5,1,2",
    "nan,1", "inf,0", "1e400,0", "1_0,2", "x,1", "1,,2", ",", "0x10,1", "const,99999999999999999999"]


@st.composite
def _policy_file(draw):
    lines = draw(st.lists(st.sampled_from(_POLICY_LINES), max_size=8))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    body = eol.join(lines).encode("utf-8")
    return _one_in_ten_with_a_bad_byte(draw, body)


def _matrix(rows, cols):
    return st.lists(st.lists(st.floats(-2, 2), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


# Values a scenario field may wrongly hold.
_ODD_VALUES = st.sampled_from([None, True, "x", "2", 1.5, -1, 0, 10**30, float("nan"),
                               float("inf"), [], [[]], [1, [2]], {"a": 1}, [[1.0, "x"]]])


@st.composite
def _scenario(draw):
    """A scenario object: mostly well formed and small, else one field
    missing, of the wrong shape or of the wrong type."""
    d, m, degree = draw(st.integers(1, 2)), draw(st.integers(2, 3)), draw(st.integers(1, 2))
    entry = {
        "name": draw(st.sampled_from(["s", "t", ""])),
        "d": d, "m": m, "mean_degree": degree,
        "covariate_law": draw(st.sampled_from(["uniform", "normal"])),
        "propensity_coef": draw(_matrix(m, d + 1)),
        "mean_coef": draw(_matrix(m, 1 + d * degree)),
        "noise_sd": draw(st.sampled_from([1.0, [0.5] * m, [0.0] * m])),
    }
    fault = draw(st.sampled_from(["none"] * 8 + ["missing", "shape", "odd", "law"]))
    key = draw(st.sampled_from(sorted(entry)))
    if fault == "missing":
        del entry[key]
    elif fault == "shape":
        entry[key] = draw(_matrix(draw(st.integers(0, 3)), draw(st.integers(0, 4))))
    elif fault == "odd":
        entry[key] = draw(_ODD_VALUES)
    elif fault == "law":
        entry["covariate_law"] = "cauchy"
    return entry


@st.composite
def _scenario_file(draw):
    text = json.dumps(draw(st.one_of(
        st.lists(_scenario(), min_size=1, max_size=2), _scenario(), _ODD_VALUES, st.just([]))))
    cut = draw(st.sampled_from([None] * 8 + ["truncate", "byte", "deep", "digits"]))
    body = text.encode("utf-8")
    if cut == "deep":  # nested beyond the recursion limit
        body = b"[" * 100_000 + body + b"]" * 100_000
    elif cut == "digits":  # beyond int()'s 4,300-digit limit
        body = b'[{"name": "s", "d": ' + b"1" * 5_000 + b"}]"
    elif cut is not None:
        at = draw(st.integers(0, len(body)))
        body = body[:at] if cut == "truncate" else body[:at] + b"\xff" + body[at:]
    return body


class TestFuzzedPolicyAndScenarioFiles:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=_policy_file())
    def test_policy_file(self, tmp_path, capsys, binary_csv, body):
        path = tmp_path / "policies.txt"
        path.write_bytes(body)
        _assert_clean_exit(capsys, ["learn", "--data", binary_csv, "--class", f"finite:{path}",
                                    "--weights", "w0"])

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=_scenario_file(), n=st.sampled_from([40, 40, 12, 1]))
    def test_scenario_file(self, tmp_path, capsys, body, n):
        path = tmp_path / "scenarios.json"
        path.write_bytes(body)
        _assert_clean_exit(capsys, ["simulate", "--scenarios", str(path), "--reps", "1",
                                    "--n", str(n), "--regret-draws", "50",
                                    "--schemes", "uniform,w0"])


@st.composite
def _report_file(draw):
    """A report CSV with the fit inputs' faults, under a comment line or not."""
    body = _csv_file(draw, _REPORT_HEADERS, draw(st.integers(0, 6)))
    return (b"# config: {}\n" if draw(st.booleans()) else b"") + body


class TestFuzzedReportFiles:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=_report_file(), fmt=st.sampled_from(["markdown", "csv"]))
    def test_report_file(self, tmp_path, capsys, body, fmt):
        path = tmp_path / "report.csv"
        path.write_bytes(body)
        _assert_clean_exit(capsys, ["report", "--in", str(path), "--format", fmt])
