"""Dataset container, CSV ingestion, and fold assignment for cross-fitting."""

from __future__ import annotations

import csv
import io
import os
import stat
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_CHUNK_BYTES = 1 << 16
# Names numpy's DataSource opens through a decompressor.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _freeze(record, **arrays: np.ndarray) -> None:
    """Set a read-only view of each array on the frozen record. The view
    shares the array's memory, and the caller's array stays writable."""
    for name, arr in arrays.items():
        view = arr.view()
        view.setflags(write=False)
        object.__setattr__(record, name, view)


def _check_binary(m: int, method: str) -> None:
    """Reject an arm count other than 2 for a method defined on binary actions."""
    if m != 2:
        raise ValidationError(f"{method} requires m=2, got m={m}")


def _repeated(items) -> list:
    """The items that occur more than once, each once, in order of first occurrence."""
    return [item for item, count in Counter(items).items() if count > 1]


@dataclass(frozen=True)
class Dataset:
    """Observational sample of (covariates, action, outcome) triples.

    Actions are dense integer labels in {0..m-1}; for binary problems the
    convention is 1 = treated, 0 = untreated.
    """

    covariates: np.ndarray  # (n, d) float
    actions: np.ndarray     # (n,) int, values in {0..m-1}
    outcomes: np.ndarray    # (n,) float
    m: int

    def __post_init__(self):
        x = np.asarray(self.covariates, dtype=float)
        if x.ndim != 2:
            raise ValidationError(f"covariates must be 2-d, got shape {x.shape}")
        a = np.asarray(self.actions, dtype=int)
        y = np.asarray(self.outcomes, dtype=float)
        n = x.shape[0]
        if n < 1:
            raise ValidationError("dataset must contain at least one observation")
        if a.shape != (n,) or y.shape != (n,):
            raise ValidationError(
                f"length mismatch: covariates n={n}, actions {a.shape}, outcomes {y.shape}"
            )
        if self.m < 2:
            raise ValidationError(f"action count m must be >= 2, got {self.m}")
        if a.min() < 0 or a.max() >= self.m:
            bad = int(np.argmax((a < 0) | (a >= self.m)))
            raise ValidationError(
                f"action label {a[bad]} at row {bad} outside {{0..{self.m - 1}}}"
            )
        if not np.isfinite(y).all():
            i = int(np.argmax(~np.isfinite(y)))
            raise ValidationError(f"non-finite outcome at row {i}, column 'y'")
        if not np.isfinite(x).all():
            i, j = np.argwhere(~np.isfinite(x))[0]
            raise ValidationError(f"non-finite covariate at row {i}, column 'x{j + 1}'")
        _freeze(self, covariates=x, actions=a, outcomes=y)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]


@dataclass(frozen=True)
class FoldAssignment:
    """Balanced fold labels for cross-fitting; fold sizes differ by at most 1."""

    fold_of: np.ndarray  # (n,) int in {0..n_folds-1}
    n_folds: int

    def __post_init__(self):
        f = np.asarray(self.fold_of, dtype=int)
        if self.n_folds < 2:
            raise ValidationError(f"fold count must be >= 2, got {self.n_folds}")
        sizes = np.bincount(f, minlength=self.n_folds)
        if f.min() < 0 or f.max() >= self.n_folds or (sizes == 0).any():
            raise ValidationError("every fold index in {0..K-1} must appear at least once")
        if sizes.max() - sizes.min() > 1:
            raise ValidationError(f"fold sizes must differ by at most 1, got {sizes.tolist()}")
        _freeze(self, fold_of=f)

    @property
    def n(self) -> int:
        return self.fold_of.shape[0]

    def members(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def complement(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)


@contextmanager
def _input_file(label: str):
    """Name an input file in its errors: a ValidationError, a byte that does
    not decode as UTF-8 or a csv.Error, raised inside the with-block, leaves
    as one ValidationError "<label>: <message>". Nested blocks label a part
    of the file (a line, an entry); the innermost wins."""
    try:
        yield
    except UnicodeDecodeError as exc:
        message = f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
    except (ValidationError, csv.Error) as exc:
        if getattr(exc, "labelled", False):
            raise
        message = str(exc)
    else:
        return
    error = ValidationError(f"{label}: {message}")
    error.labelled = True
    raise error from None


def load_dataset(path: str) -> Dataset:
    """Read a comma-separated dataset file into a validated Dataset.

    The file must carry a header row with covariate columns x1..xd in order,
    an action column `a` and an outcome column `y`; the action column must
    parse as a nonnegative integer within the int64 range and every other
    column as a finite float, with no blank lines. Every label from 0 up to
    the largest one present must appear. m is (max action label + 1) and
    must be >= 2. The file must be UTF-8 text.
    """

    def columns(header: list[str]) -> list[str]:
        for col in ("a", "y"):
            if col not in header:
                raise ValidationError(f"missing column {col!r}")
        xcols = [h for h in header if h not in ("a", "y")]
        if xcols != [f"x{i + 1}" for i in range(len(xcols))]:
            raise ValidationError(
                f"covariate columns must be named x1..x{len(xcols)} in order, got {xcols}"
            )
        return xcols + ["a", "y"]

    with _input_file(path):
        cols = _read_csv(path, columns, label="a")
        actions = np.ascontiguousarray(cols.pop("a"))
        y_arr = np.ascontiguousarray(cols.pop("y"))
        x_arr = np.empty((actions.size, len(cols)))
        for j, column in enumerate(cols.values()):
            x_arr[:, j] = column
        top = int(actions.max())
        # Dataset's checks of the cells come first; m=2 lets an all-zero file
        # through them, to be named below.
        dataset = Dataset(covariates=x_arr, actions=actions, outcomes=y_arr, m=max(top + 1, 2))
        # n rows cannot hold n + 1 labels, so when the top label is n or more a
        # gap lies below n: counting labels clipped at n finds the first one
        # without allocating a counter per label.
        counts = np.bincount(np.minimum(actions, actions.size))
        if np.any(counts[:top] == 0):
            raise ValidationError(
                f"action label {int(np.argmax(counts == 0))} never appears, but labels "
                f"run up to {top}; every label from 0 to the largest must be present"
            )
        if top < 1:
            raise ValidationError("every action is 0; at least two arms are needed")
    return dataset


def _read_csv(path: str, columns, label: str | None = None) -> dict[str, np.ndarray]:
    """Read a UTF-8 file of comma-separated numbers under a header row.

    `columns(header)` checks the header before the body is read and names the
    columns to return, as float64 (the `label` column: int64) views of one
    table. The rows follow `_parse_rows`'s rules; one np.loadtxt call, which
    reads the file from its path in chunks, parses them when it gives the
    same table, and `_parse_rows` otherwise.
    """
    # numpy reads a path string as a URL when it looks like one; an absolute
    # path never does.
    full = os.path.join(os.getcwd(), path)
    with open(path, newline="", encoding="utf-8") as fh:
        head = []  # the lines the header row spans
        try:
            header = next(csv.reader(head.append(line) or line for line in fh))
        except StopIteration:
            raise ValidationError("empty file") from None
        names = columns(header)
        # numpy would open a name with a compression suffix through a
        # decompressor, and a pipe cannot be read twice: their bodies are read
        # here, for the row parser.
        whole = (full.endswith(_COMPRESSED_SUFFIXES)
                 or not stat.S_ISREG(os.fstat(fh.fileno()).st_mode))
        body = fh.read() if whole else None
    il = header.index(label) if label is not None else -1
    dtype = np.dtype([(f"f{j}", np.int64 if j == il else np.float64) for j in range(len(header))])
    table = None
    if not whole:
        with warnings.catch_warnings():
            # numpy < 2 reads an integer column through float ("1.0" -> 1) with
            # only a DeprecationWarning; as an error it sends the file to the row
            # parser, which rejects the cell.
            warnings.simplefilter("error")
            try:
                table = np.loadtxt(full, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                                   skiprows=len(head), encoding="utf-8")
            except (ValueError, Warning):  # a UnicodeDecodeError among them
                pass
    # loadtxt rejects text Python's float/int accept (such as `1_0`) and skips
    # blank lines; a lone carriage return ends a row for it and for csv.reader,
    # but is not counted as one here, so any such file goes to the row parser.
    if table is not None:
        n_lf, lone_cr, last = _line_feeds(path)
        n_lines = n_lf - "".join(head).count("\n") + (last != b"\n")
        if lone_cr or table.size != n_lines or (il >= 0 and np.any(table[f"f{il}"] < 0)):
            table = None
    if table is None:
        if body is None:
            with open(path, newline="", encoding="utf-8") as fh:
                for _ in head:
                    fh.readline()
                body = fh.read()
        table = _parse_rows(body, header, names, il, dtype)
    if table.size == 0:
        raise ValidationError("no data rows")
    return {name: table[f"f{header.index(name)}"] for name in names}


def _line_feeds(path: str) -> tuple[int, bool, bytes]:
    r"""The file's count of b"\n", whether any b"\r" stands before anything
    but b"\n", and its last byte, read in fixed-size chunks."""
    n_lf, lone_cr, last = 0, False, b""
    with open(path, "rb") as fb:
        while chunk := fb.read(_CHUNK_BYTES):
            if chunk.endswith(b"\r"):
                chunk += fb.read(1)
            n_lf += chunk.count(b"\n")
            if b"\r" in chunk:  # memchr: a CR-free chunk costs no count
                lone_cr = lone_cr or chunk.count(b"\r") != chunk.count(b"\r\n")
            last = chunk[-1:]
    return n_lf, lone_cr, last


def _parse_rows(body: str, header: list[str], names: list[str], il: int, dtype):
    """Parse the data lines one cell at a time, naming the first bad row: each
    needs one cell per header column, the named cells must be floats, and the
    cell in column `il` (if il >= 0) a nonnegative int64 action label."""
    floats = [j for j in map(header.index, names) if j != il]
    records = []
    for rownum, row in enumerate(csv.reader(io.StringIO(body, newline=""))):
        if len(row) != len(header):
            raise ValidationError(f"row {rownum} has {len(row)} cells, header has {len(header)}")
        record = [0.0] * len(header)
        try:
            for j in floats:
                record[j] = float(row[j])
        except ValueError as exc:
            raise ValidationError(f"non-numeric cell at row {rownum}: {exc}") from None
        if il >= 0:
            try:
                record[il] = a_val = int(row[il])
            except ValueError:
                raise ValidationError(f"action {row[il]!r} at row {rownum} is not an integer") from None
            if a_val < 0:
                raise ValidationError(f"action label {a_val} at row {rownum} is negative")
            if a_val > np.iinfo(np.int64).max:
                raise ValidationError(f"action label {a_val} at row {rownum} is beyond the int64 range")
        records.append(tuple(record))
    return np.array(records, dtype)


def save_dataset(data: Dataset, path: str) -> None:
    """Write a Dataset as columns x1..xd, a, y so that load_dataset
    reproduces it bit-exactly (for every label up to the largest present).

    Floats are written with repr, which round-trips IEEE doubles.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(data.d)] + ["a", "y"])
        for i in range(data.n):
            row = [repr(float(v)) for v in data.covariates[i]]
            row.append(str(int(data.actions[i])))
            row.append(repr(float(data.outcomes[i])))
            writer.writerow(row)


def make_folds(n: int, n_folds: int, seed: int) -> FoldAssignment:
    """Assign each of n observations to one of `n_folds` balanced folds.

    Deterministic in (n, n_folds, seed): a seeded uniform shuffle followed by a
    round-robin split.
    """
    if n_folds < 2:
        raise ValidationError(f"fold count must be >= 2, got {n_folds}")
    if n_folds > n:
        raise ValidationError(f"fold count {n_folds} exceeds sample size {n}")
    order = np.random.default_rng(seed).permutation(n)
    fold_of = np.empty(n, dtype=int)
    fold_of[order] = np.arange(n) % n_folds
    return FoldAssignment(fold_of=fold_of, n_folds=n_folds)
