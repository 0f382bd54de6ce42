"""Dataset construction, CSV round trips, and fold assignment."""

import numpy as np
import pytest

from retarget import Dataset, FoldAssignment, ValidationError, load_dataset, make_folds, save_dataset


def small_dataset():
    return Dataset(
        covariates=np.array([[0.1, 1.0], [0.2, -1.0], [0.3, 0.5]]),
        actions=np.array([0, 1, 0]),
        outcomes=np.array([1.0, 2.0, 3.0]),
        m=2,
    )


class TestDataset:
    def test_shapes_and_properties(self):
        data = small_dataset()
        assert (data.n, data.d, data.m) == (3, 2, 2)
        assert data.arm_counts().tolist() == [2, 1]

    def test_rejects_label_at_m(self):
        with pytest.raises(ValidationError, match="action label 2"):
            Dataset(
                covariates=np.zeros((2, 1)),
                actions=np.array([0, 2]),
                outcomes=np.zeros(2),
                m=2,
            )

    def test_rejects_negative_label(self):
        with pytest.raises(ValidationError, match="row 1"):
            Dataset(
                covariates=np.zeros((2, 1)),
                actions=np.array([0, -1]),
                outcomes=np.zeros(2),
                m=2,
            )

    def test_rejects_nan_outcome(self):
        with pytest.raises(ValidationError, match="non-finite outcome at row 1"):
            Dataset(
                covariates=np.zeros((2, 1)),
                actions=np.array([0, 1]),
                outcomes=np.array([0.0, np.nan]),
                m=2,
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="length mismatch"):
            Dataset(
                covariates=np.zeros((3, 1)),
                actions=np.array([0, 1]),
                outcomes=np.zeros(3),
                m=2,
            )

    def test_immutable(self):
        data = small_dataset()
        with pytest.raises(ValueError):
            data.outcomes[0] = 9.0


class TestLoadDataset:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,a,y\n0.5,1.5,0,2.0\n-0.5,0.25,1,3.0\n0.0,0.0,1,4.0\n")
        data = load_dataset(str(path))
        assert (data.n, data.d, data.m) == (3, 2, 2)
        assert data.actions.tolist() == [0, 1, 1]

    def test_negative_action_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,a,y\n0.5,0,2.0\n0.6,-1,3.0\n")
        with pytest.raises(ValidationError, match="row 1"):
            load_dataset(str(path))

    def test_nan_outcome_names_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,a,y\n0.5,0,2.0\n0.6,1,nan\n")
        with pytest.raises(ValidationError, match="row 1.*'y'"):
            load_dataset(str(path))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,a\n0.5,0\n")
        with pytest.raises(ValidationError, match="missing column 'y'"):
            load_dataset(str(path))

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,a,y\nhello,0,2.0\n")
        with pytest.raises(ValidationError, match="non-numeric cell at row 0"):
            load_dataset(str(path))

    def test_rejects_label_gap(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,a,y\n0.5,0,2.0\n0.6,3,3.0\n0.7,1,1.0\n")
        with pytest.raises(ValidationError, match="label 2 never appears.*up to 3"):
            load_dataset(str(path))

    def test_m_override(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,a,y\n0.5,0,2.0\n0.6,1,3.0\n")
        assert load_dataset(str(path), m=4).m == 4

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = Dataset(
            covariates=rng.standard_normal((50, 3)) * 1e3,
            actions=rng.integers(0, 3, 50),
            outcomes=rng.standard_normal(50) / 7.0,
            m=3,
        )
        path = tmp_path / "round.csv"
        save_dataset(data, str(path))
        back = load_dataset(str(path))
        assert np.array_equal(back.covariates, data.covariates)
        assert np.array_equal(back.actions, data.actions)
        assert np.array_equal(back.outcomes, data.outcomes)
        assert back.m == data.m


class TestMakeFolds:
    def test_two_folds_of_two(self):
        folds = make_folds(4, 2, seed=9)
        sizes = np.bincount(folds.fold_of, minlength=2)
        assert sorted(sizes.tolist()) == [2, 2]

    def test_odd_split(self):
        folds = make_folds(5, 2, seed=9)
        sizes = np.bincount(folds.fold_of, minlength=2)
        assert sorted(sizes.tolist()) == [2, 3]

    def test_deterministic(self):
        a = make_folds(40, 4, seed=123)
        b = make_folds(40, 4, seed=123)
        assert np.array_equal(a.fold_of, b.fold_of)

    def test_seed_changes_assignment(self):
        a = make_folds(40, 4, seed=1)
        b = make_folds(40, 4, seed=2)
        assert not np.array_equal(a.fold_of, b.fold_of)

    @pytest.mark.parametrize("n,k", [(10, 3), (11, 4), (97, 5)])
    def test_balance(self, n, k):
        sizes = np.bincount(make_folds(n, k, seed=0).fold_of, minlength=k)
        assert sizes.max() - sizes.min() <= 1

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            make_folds(5, 1, seed=0)
        with pytest.raises(ValidationError):
            make_folds(3, 4, seed=0)

    def test_stratified_keeps_balance(self):
        rng = np.random.default_rng(5)
        actions = rng.integers(0, 3, 53)
        folds = make_folds(53, 4, seed=7, actions=actions)
        sizes = np.bincount(folds.fold_of, minlength=4)
        assert sizes.max() - sizes.min() <= 1
        # each arm is spread across folds roughly evenly
        for arm in range(3):
            per_fold = np.bincount(folds.fold_of[actions == arm], minlength=4)
            assert per_fold.max() - per_fold.min() <= 1

    def test_fold_assignment_validates(self):
        with pytest.raises(ValidationError, match="differ by at most 1"):
            FoldAssignment(fold_of=np.array([0, 0, 0, 1]), n_folds=2)
        with pytest.raises(ValidationError, match="appear at least once"):
            FoldAssignment(fold_of=np.array([0, 0, 0, 0]), n_folds=2)
