"""Dataset construction, CSV round trips, and fold assignment."""

import csv
import gzip
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from retarget import Dataset, FoldAssignment, ValidationError, load_dataset, make_folds, save_dataset
from retarget.data import _input_file


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
        assert np.bincount(data.actions, minlength=data.m).tolist() == [2, 1]

    def test_the_callers_arrays_stay_writable(self):
        # The record holds read-only views of the caller's arrays: no copy,
        # and the caller's own arrays were made read-only before.
        x, a, y = np.zeros((3, 1)), np.array([0, 1, 0]), np.zeros(3)
        data = Dataset(covariates=x, actions=a, outcomes=y, m=2)
        for mine, held in ((x, data.covariates), (a, data.actions), (y, data.outcomes)):
            assert mine.flags.writeable and not held.flags.writeable
            assert np.shares_memory(mine, held)
        x[0, 0] = 2.0
        assert data.covariates[0, 0] == 2.0
        with pytest.raises(ValueError, match="read-only"):
            data.covariates[0, 0] = 3.0

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

    def test_names_the_loader_columns_outcome_first(self):
        # The messages the dataset loader prints for its cells.
        x = np.array([[0.0, 1.0], [0.0, np.inf]])
        with pytest.raises(ValidationError, match=r"^non-finite covariate at row 1, column 'x2'$"):
            Dataset(covariates=x, actions=np.array([0, 1]), outcomes=np.zeros(2), m=2)
        with pytest.raises(ValidationError, match=r"^non-finite outcome at row 0, column 'y'$"):
            Dataset(covariates=x, actions=np.array([0, 1]), outcomes=np.array([np.nan, 0.0]), m=2)

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


class TestInputFile:
    def test_labels_each_kind_once(self):
        for exc, message in [(ValidationError("bad cell"), "bad cell"),
                             (csv.Error("field larger than field limit (131072)"),
                              "field larger than field limit (131072)"),
                             (UnicodeDecodeError("utf-8", b"a\xff", 1, 2, "invalid start byte"),
                              "not UTF-8 text: byte 0xff (invalid start byte)")]:
            with pytest.raises(ValidationError) as info:
                with _input_file("f.csv"):
                    raise exc
            assert str(info.value) == f"f.csv: {message}"

    def test_innermost_label_wins(self):
        with pytest.raises(ValidationError) as info:
            with _input_file("f.txt"), _input_file("f.txt:3"):
                raise ValidationError("bad line")
        assert str(info.value) == "f.txt:3: bad line"

    def test_other_exceptions_pass_unless_named(self):
        with pytest.raises(TypeError):
            with _input_file("f.json"):
                raise TypeError("boom")


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

    def test_m_below_two_is_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,a,y\n0.5,0,2.0\n0.6,0,3.0\n")
        with pytest.raises(ValidationError, match=f"^{path}: every action is 0; at least two arms"):
            load_dataset(str(path))
        with pytest.raises(ValidationError, match="^action count m must be >= 2, got 1$"):
            Dataset(covariates=np.zeros((2, 1)), actions=np.zeros(2, int), outcomes=np.zeros(2), m=1)

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


def _reference_load(path):
    """The row-by-row loader that `load_dataset` replaced, kept as the
    reference for its arrays and error messages (the `m` handling and the
    Dataset construction are left out). It carries the row parser's int64
    range check, without which a label beyond int64 escaped `np.bincount` as
    a TypeError; its label-gap check keeps the full `np.bincount`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        for col in ("a", "y"):
            if col not in header:
                raise ValidationError(f"{path}: missing column {col!r}")
        xcols = [h for h in header if h not in ("a", "y")]
        if xcols != [f"x{i + 1}" for i in range(len(xcols))]:
            raise ValidationError(
                f"{path}: covariate columns must be named x1..x{len(xcols)} in order, got {xcols}"
            )
        idx = {name: header.index(name) for name in header}
        xs, acts, ys = [], [], []
        for rownum, row in enumerate(reader):
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: row {rownum} has {len(row)} cells, header has {len(header)}"
                )
            try:
                xs.append([float(row[idx[c]]) for c in xcols])
                ys.append(float(row[idx["y"]]))
            except ValueError as exc:
                raise ValidationError(f"{path}: non-numeric cell at row {rownum}: {exc}") from None
            raw_a = row[idx["a"]]
            try:
                a_val = int(raw_a)
            except ValueError:
                raise ValidationError(
                    f"{path}: action {raw_a!r} at row {rownum} is not an integer"
                ) from None
            if a_val < 0:
                raise ValidationError(f"{path}: action label {a_val} at row {rownum} is negative")
            if a_val > np.iinfo(np.int64).max:
                raise ValidationError(
                    f"{path}: action label {a_val} at row {rownum} is beyond the int64 range"
                )
            acts.append(a_val)
        if not acts:
            raise ValidationError(f"{path}: no data rows")
        if not np.all(np.isfinite(ys)):
            bad = int(np.argmax(~np.isfinite(np.asarray(ys))))
            raise ValidationError(f"{path}: non-finite outcome at row {bad}, column 'y'")
        x_arr = np.asarray(xs, dtype=float)
        if not np.all(np.isfinite(x_arr)):
            i, j = np.argwhere(~np.isfinite(x_arr))[0]
            raise ValidationError(f"{path}: non-finite covariate at row {i}, column {xcols[j]!r}")
    actions = np.asarray(acts)
    counts = np.bincount(actions)
    if np.any(counts == 0):
        raise ValidationError(
            f"{path}: action label {int(np.argmax(counts == 0))} never appears, but labels "
            f"run up to {counts.size - 1}; every label from 0 to the largest must be present"
        )
    return x_arr, actions, np.asarray(ys)


def assert_loads_like_reference(path):
    """`load_dataset` gives the reference loader's arrays bit for bit (dtype,
    shape and bytes), or raises the same exception type with the same text.
    A file whose labels are all 0 loads in the reference only."""
    try:
        expected = _reference_load(path)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            load_dataset(path)
        assert str(info.value) == str(exc)
        return
    if not expected[1].any():
        with pytest.raises(ValidationError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: every action is 0; at least two arms are needed"
        return
    data = load_dataset(path)
    for want, got in zip(expected, (data.covariates, data.actions, data.outcomes)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous


def _write_repr_lines(data, path):
    """The layout `perfbench` writes: LF line ends, floats in repr form."""
    lines = [",".join([f"x{j + 1}" for j in range(data.d)] + ["a", "y"])]
    for xi, ai, yi in zip(data.covariates.tolist(), data.actions.tolist(), data.outcomes.tolist()):
        lines.append(",".join([*map(repr, xi), str(ai), repr(yi)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(0, 3))
    cells = st.floats(allow_nan=False, allow_infinity=False)
    x = np.array(draw(st.lists(cells, min_size=n * d, max_size=n * d)), dtype=float)
    y = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=float)
    a = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return Dataset(covariates=x.reshape(n, d), actions=a, outcomes=y, m=max(int(a.max()) + 1, 2))


class TestLoaderMatchesReference:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=datasets(), writer=st.sampled_from([save_dataset, _write_repr_lines]))
    def test_written_files(self, tmp_path, data, writer):
        # save_dataset writes CRLF through csv.writer; the repr writer LF.
        path = str(tmp_path / "h.csv")
        writer(data, path)
        assert_loads_like_reference(path)

    @pytest.mark.parametrize(
        "text",
        [
            "x1,a,y\r\n0.5,0,1.0\r\n0.25,1,2.0\r\n",           # CRLF
            "x1,a,y\r0.5,0,1.0\r0.25,1,2.0\r",                     # lone CR
            "x1,a,y\n0.5,0,1.0\n0.25,1,2.0",                        # no trailing newline
            "x1,a,y\n0.5,0,1.0\n\n0.25,1,2.0\n",                    # interior blank line
            "x1,a,y\n0.5,0,1.0\n0.25,1,2.0\n\n",                    # trailing blank line
            "x1,a,y\r\n0.5,0,1.0\r\n\r\n0.25,1,2.0\r\n",           # blank CRLF line
            "x1,a,y\n0.5,0,1.0\n   \n0.25,1,2.0\n",                 # whitespace-only line
            "x1,a,y\n 0.5 , 0 ,1.0 \n0.25,1 ,\t2.0\n",              # spaces around cells
            "x1,a,y\nnan,0,1.0\n0.25,1,2.0\n",                     # nan covariate
            "x1,a,y\n0.5,0,-inf\n0.25,1,2.0\n",                    # infinite outcome
            "x1,a,y\n0.5,0,1.0\n0.25,-1,2.0\n",                    # negative action
            "x1,a,y\n0.5,0,1.0\n0.25,1.0,2.0\n",                   # 1.0 action
            "x1,a,y\n0.5,0,1.0\n0.25,1e0,2.0\n",                   # 1e0 action
            "x1,a,y\n1_0,0,1.0\n0.25,0_1,2_0.5\n",                 # digit underscores
            "x1,a,y\n\uff11,0,1.0\n0.25,\uff11,2.0\n",             # full-width digits
            'x1,a,y\n"0.5",0,1.0\n0.25,"1",2.0\n',                 # quoted cells
            '"x1",a,"y"\n0.5,0,1.0\n0.25,1,2.0\n',                  # quoted header cells
            "a,y\n0,1.0\n1,2.0\n",                                 # d=0
            "x1,a,y\n0.5,0,1.0\n",                                  # one row
            "x1,a,y\n0.5,0,1.0\n0.25,99999999999999999999,2.0\n",  # action beyond int64
            "x1,a,y\n0.5,0,1.0\n0.25,9223372036854775808,2.0\n",   # action 2**63
            "y,x1,a,x2\n1.0,0.5,1,-2\n2.0,0.25,0,3e-300\n",          # a and y among the x's
            "x1,a,y,y\n0.5,0,1.0,hello\n0.25,1,2.0,3\n",            # a second y is not read
            "x1,a,y\n0.5,0,1.0,4\n0.25,1,2.0\n",                   # extra cell
            "x1,a,y\n0.5,0\n0.25,1,2.0\n",                         # missing cell
            "x1,a,y\n0.5,,1.0\n0.25,1,2.0\n",                      # empty action
            "x1,a,y\n",                                            # header only
            "x1,a,y",                                               # header, no newline
            "x1,a,y\n0.5,0,1.0\n0.25,2,2.0\n",                     # label gap
            "x1,a,y\n0.5,0,1.0\r0.25,1,2.0\n\n",                   # lone CR, then a blank line
            'x1,a,"y\nz"\n0.5,0,1.0\n0.25,1,2.0\n',                 # quoted newline in the header
            'x1,a,y,"y\r\nz"\r\n0.5,0,1.0,3\r\n0.25,1,2.0,4\r\n',    # ... in an extra column
        ],
    )
    def test_pinned_files(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_loads_like_reference(str(path))

    @pytest.mark.parametrize("suffix", [".csv.gz", ".csv.xz", ".csv.bz2", ".csv.lzma"])
    @pytest.mark.parametrize("rows", [1, 3_000])
    def test_plain_text_under_a_compressed_name(self, tmp_path, suffix, rows):
        # numpy would open such a name through a decompressor; it is read as text.
        data = Dataset(covariates=np.arange(2.0 * rows).reshape(rows, 2) / 7,
                       actions=np.arange(rows) % 2, outcomes=np.ones(rows), m=2)
        path = str(tmp_path / f"p{suffix}")
        _write_repr_lines(data, path)
        assert_loads_like_reference(path)

    @pytest.mark.parametrize("rows", [2, 3_000])
    def test_pipe(self, tmp_path, rows):
        # A pipe (such as bash's <(...)) is read once, as the parent read it.
        data = Dataset(covariates=np.arange(2.0 * rows).reshape(rows, 2) / 7,
                       actions=np.arange(rows) % 2, outcomes=np.ones(rows), m=2)
        path = str(tmp_path / "p.csv")
        _write_repr_lines(data, path)
        with open(path, "rb") as fh:
            text = fh.read()
        read_end, write_end = os.pipe()

        def feed():
            with os.fdopen(write_end, "wb") as out:
                out.write(text)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            back = load_dataset(f"/dev/fd/{read_end}")
        finally:
            writer.join(timeout=10)
            os.close(read_end)
        assert not writer.is_alive()
        for want, got in zip(_reference_load(path), (back.covariates, back.actions, back.outcomes)):
            assert got.tobytes() == want.tobytes()

    def test_gzip_file_is_not_decompressed(self, tmp_path):
        path = tmp_path / "p.csv.gz"
        path.write_bytes(gzip.compress(b"x1,a,y\n0.5,0,1.0\n0.25,1,2.0\n"))
        with pytest.raises(ValidationError, match=r"not UTF-8 text: byte 0x8b \(invalid start byte\)"):
            load_dataset(str(path))

    @pytest.mark.parametrize("rows", [1, 3_000])
    def test_non_utf8_byte_after_a_bad_cell(self, tmp_path, rows):
        # The whole body is decoded before a cell is parsed, so the byte is
        # named even behind the bad cell, and behind 8 KiB of good rows.
        path = tmp_path / "p.csv"
        path.write_bytes(b"x1,a,y\n" + b"0.25,1,2.0\n" * rows + b"0.5,0,oops\n0.5,0,\xff\n")
        with pytest.raises(ValidationError) as info:
            load_dataset(str(path))
        assert str(info.value) == f"{path}: not UTF-8 text: byte 0xff (invalid start byte)"

    def test_load_peaks_below_three_times_the_table(self, tmp_path):
        rng = np.random.default_rng(4)
        n, d = 20_000, 4
        data = Dataset(covariates=rng.standard_normal((n, d)), actions=rng.integers(0, 2, n),
                       outcomes=rng.standard_normal(n), m=2)
        path = str(tmp_path / "big.csv")
        _write_repr_lines(data, path)
        load_dataset(path)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            back = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.covariates, data.covariates)
        table = n * (d + 2) * 8
        assert peak < 3 * table, peak / table


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

    def test_fold_assignment_validates(self):
        with pytest.raises(ValidationError, match="differ by at most 1"):
            FoldAssignment(fold_of=np.array([0, 0, 0, 1]), n_folds=2)
        with pytest.raises(ValidationError, match="appear at least once"):
            FoldAssignment(fold_of=np.array([0, 0, 0, 0]), n_folds=2)
