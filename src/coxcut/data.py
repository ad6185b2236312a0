"""Dataset container, CSV round-trip, stratified partitioning and synthetic generators."""

from __future__ import annotations

import csv
import itertools
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

UNLABELED = 0  # label value marking a row without a class
_INT64_MAX = int(np.iinfo(np.int64).max)  # largest label the int64 label vector holds
_SHOWN = 40  # characters of a cell echoed in an error message
# sign and digits of an integer literal, leading zeros apart; int() refuses one
# of more than 4300 digits, Python's limit on integer-string conversion
_INT_LITERAL = re.compile(r"([+-]?)(?=\d)0*(\d*)")
# Largest working set of rows that the gen and bench commands may build in
# memory, counted before anything is allocated (rows_bytes for gen).
MAX_ROWS_BYTES = 2**30  # 1 GiB: about 5.8 million rows of 2-D points for gen


@dataclass
class Dataset:
    """Covariate matrix with (possibly missing) class labels in {1..num_classes}.

    ``labels[i] == 0`` marks row ``i`` as unlabeled. Treated as immutable
    after construction.
    """

    covariates: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        x = np.asarray(self.covariates, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"covariates must be a 2-D matrix, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariates contain non-finite values")
        y = np.asarray(self.labels, dtype=np.int64)
        if y.shape != (x.shape[0],):
            raise ValueError(f"labels shape {y.shape} does not match {x.shape[0]} rows")
        q = int(self.num_classes)
        if q < 2:
            raise ValueError(f"num_classes must be >= 2, got {q}")
        if y.size and (y.min() < 0 or y.max() > q):
            raise ValueError(f"labels must lie in {{0..{q}}} (0 = unlabeled)")
        self.covariates = x
        self.labels = y
        self.num_classes = q

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def dim(self) -> int:
        return self.covariates.shape[1]

    @property
    def labeled_mask(self) -> np.ndarray:
        return self.labels != UNLABELED

    def labeled(self) -> tuple[np.ndarray, np.ndarray]:
        """Covariates and labels of the labeled rows."""
        m = self.labeled_mask
        return self.covariates[m], self.labels[m]

    def unlabeled_points(self) -> np.ndarray:
        return self.covariates[~self.labeled_mask]

    def class_points(self, i: int) -> np.ndarray:
        return self.covariates[self.labels == i]

    def class_counts(self) -> np.ndarray:
        """Number of labeled rows per class, shape (num_classes,)."""
        return np.bincount(self.labels, minlength=self.num_classes + 1)[1:]


def _shown(text: str) -> str:
    """``text`` cut to _SHOWN characters for an error message, with its length."""
    if len(text) <= _SHOWN:
        return text
    return f"{text[:_SHOWN]}... ({len(text)} characters)"


def _refused_int(cell: str) -> int | None:
    """Value of a cell that int() refused, or None if it is no integer literal.

    int() also refuses literals past Python's int-string limit. Without its
    leading zeros, such a literal of more than 19 digits lies beyond int64
    and comes back as +-(_INT64_MAX + 1), outside every class range.
    """
    m = _INT_LITERAL.fullmatch(cell)
    if m is None:
        return None
    sign, digits = m.groups()
    if len(digits) <= 19:
        return int(sign + (digits or "0"))
    return -(_INT64_MAX + 1) if sign == "-" else _INT64_MAX + 1


def _read_rows(path) -> tuple[list[str], list[list[str]], list[int]]:
    """Header cells, data rows and each data row's line number in a CSV file.

    Blank lines and lines starting with '#' are skipped before CSV parsing,
    so a comment may hold any text; every data row must have as many cells
    as the header. Line numbers count every line of the file; a row whose
    quoted cell spans lines gets the number of its last line.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise ValueError(f"cannot open dataset file {path}: {e}") from e
    with fh:
        lines = fh.readlines()
    kept = [(no, line) for no, line in enumerate(lines, 1) if line.strip()[:1] not in ("", "#")]
    reader = csv.reader([line for _, line in kept])
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        header = [c.strip() for c in header]
        rows, line_nos = [], []
        for raw in reader:
            line_no = kept[reader.line_num - 1][0]  # line_num counts the lines read so far
            if len(raw) != len(header):
                raise ValueError(
                    f"{path} row {line_no}: expected {len(header)} cells, got {len(raw)}"
                )
            rows.append(raw)
            line_nos.append(line_no)
    except csv.Error as e:  # e.g. a cell over csv.field_size_limit() characters
        raise ValueError(f"{path} row {kept[reader.line_num - 1][0]}: {e}") from None
    return header, rows, line_nos


def _covariate_fault(covs: np.ndarray) -> tuple[int, str] | None:
    """Index and reason of the first row the loaders refuse, or None if they take every row.

    A non-finite value anywhere is reported before a row that is too large.
    A squared distance (|a| + |b|)^2 between two rows is at most 4 max |x|^2.
    kernels._sq_dists rounds its dot products and norms, so it may come out
    above that by about (D + 3) 2**-53 of it: for rows x and -x at the edge
    of exactly 4 |x|^2 it overflowed in 124 of 15,000 random directions of
    2 to 17 dimensions. A row is refused when (4 + 2**-18) |x|^2 overflows,
    which keeps 2**-20 of the bound in hand.
    """
    finite = np.isfinite(covs)
    if not finite.all():
        return int(np.argwhere(~finite)[0][0]), "non-finite covariate value"
    with np.errstate(over="ignore"):
        big = np.flatnonzero((4.0 + 2.0**-18) * np.square(covs).sum(axis=1) == np.inf)
    if len(big):
        return int(big[0]), "covariates too large, squared distances up to 4 |x|^2 overflow float64"
    return None


def _covariate_matrix(path, header, rows, line_nos, cols) -> np.ndarray:
    """Parse columns ``cols`` of every row as finite floats."""
    values = []
    try:
        values.extend(map(float, [raw[i] for raw in rows for i in cols]))
    except ValueError:
        r, c = divmod(len(values), len(cols))  # the cell that float() refused
        i = cols[c]
        raise ValueError(
            f"{path} row {line_nos[r]}: non-numeric covariate {_shown(repr(rows[r][i]))} "
            f"in column {_shown(repr(header[i]))}"
        ) from None
    covs = np.array(values, dtype=np.float64).reshape(len(rows), len(cols))
    fault = _covariate_fault(covs)
    if fault is not None:
        raise ValueError(f"{path} row {line_nos[fault[0]]}: {fault[1]}")
    return covs


def _label_cell(cell: str) -> float:
    """A label cell that the fast reader takes as is: blank (0) or 1 to 15 plain digits.

    Every other cell raises, a sign, a leading zero, padding and an explicit
    0 included, so that the reference reader parses the file. Fifteen digits
    stay exact in float64 and below the int64 bound.
    """
    if not cell:
        return 0.0
    if len(cell) <= 15 and cell.isascii() and cell.isdigit() and cell[0] != "0":
        return float(cell)
    raise ValueError("label cell left to the reference reader")


def _read_fast(path, label_column):
    """Covariates and labels of a plain numeric CSV through numpy's C parser, or None.

    The header is found and parsed as ``_read_rows`` does. The data rows go
    to one ``np.loadtxt`` call, every column included, the label column (if
    the header has one) through ``_label_cell``; labels come back as None
    without it. On anything unusual (a quote, a comment, a whitespace-only
    line or a cell that is not a plain number after the header, a row of
    another width, no data rows, a row ``_covariate_fault`` refuses) this
    returns None and the caller runs the reference reader, which accepts
    what this accepts with the same result and locates every error.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for line in fh:
                if line.strip()[:1] not in ("", "#"):
                    break
            else:
                return None
            if '"' in line:  # a quoted header cell may span lines
                return None
            header = [c.strip() for c in next(csv.reader([line]))]
            lbl_idx = header.index(label_column) if label_column in header else None
            for first in fh:  # np.loadtxt skips empty lines, but warns when it finds no row
                if first.strip("\r\n"):
                    break
            else:
                return None
            matrix = np.loadtxt(
                itertools.chain((first,), fh), delimiter=",", comments=None, quotechar=None,
                ndmin=2, encoding="utf-8",
                converters=None if lbl_idx is None else {lbl_idx: _label_cell},
            )
    except (OSError, ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        return None
    cov_idx = [i for i in range(len(header)) if i != lbl_idx]
    if not (len(matrix) and cov_idx and matrix.shape[1] == len(header)):
        return None
    labels = None
    if lbl_idx is not None:  # the parsed matrix is freed before the covariates are checked
        labels = matrix[:, lbl_idx].astype(np.int64)
        matrix = matrix[:, cov_idx]
    return None if _covariate_fault(matrix) else (matrix, labels)


def load_covariates(path, label_column: str = "label") -> np.ndarray:
    """Covariate matrix of a CSV in ``load_csv``'s layout, checked the same way.

    The label column is optional and ignored when present, so the columns
    are those ``load_csv`` would read. A file with a header and no data rows
    gives a (0, D) matrix.
    """
    fast = _read_fast(path, label_column)
    if fast is not None:
        return fast[0]
    header, rows, line_nos = _read_rows(path)
    lbl_idx = header.index(label_column) if label_column in header else None
    cols = [i for i in range(len(header)) if i != lbl_idx]
    if not cols:
        raise ValueError(f"{path}: no covariate columns")
    return _covariate_matrix(path, header, rows, line_nos, cols)


def load_csv(path, label_column: str = "label", num_classes: int | None = None) -> Dataset:
    """Read a dataset from CSV: header row, covariate columns, one label column.

    Empty label cells mark unlabeled rows. Blank lines and lines starting
    with '#' are skipped. Unless overridden, the class count is the largest
    observed label. A plain numeric file is parsed by numpy's C reader;
    any other file, and every error, goes through the reference reader.
    """
    fast = _read_fast(path, label_column)
    if fast is not None and fast[1] is not None:
        covs, labels = fast
        observed = int(labels.max())
        q = observed if num_classes is None else num_classes
        if q >= 2 and q >= observed:
            return Dataset(covs, labels, q)
    header, rows, line_nos = _read_rows(path)
    if label_column not in header:
        raise ValueError(
            f"{path}: no column named {_shown(repr(label_column))} in header {_shown(str(header))}"
        )
    lbl_idx = header.index(label_column)
    cov_idx = [i for i in range(len(header)) if i != lbl_idx]
    if not cov_idx:
        raise ValueError(f"{path}: no covariate columns besides {label_column!r}")
    covs = _covariate_matrix(path, header, rows, line_nos, cov_idx)

    labels = []
    for line_no, raw in zip(line_nos, rows):
        cell = raw[lbl_idx].strip()
        lab = 0
        if cell:
            try:
                lab = int(cell)
            except ValueError:
                lab = _refused_int(cell)
                if lab is None:
                    raise ValueError(
                        f"{path} row {line_no}: label {_shown(repr(cell))} is not an integer"
                    ) from None
            if not 1 <= lab <= _INT64_MAX:
                shown = str(lab) if abs(lab) <= _INT64_MAX else cell
                raise ValueError(f"{path} row {line_no}: label {_shown(shown)} outside {{1..Q}}")
        labels.append(lab)
    labels = np.array(labels, dtype=np.int64)

    observed = int(labels.max()) if labels.size else 0
    q = num_classes if num_classes is not None else observed
    if q < 2:
        raise ValueError(
            f"{path}: need at least two classes, observed max label {observed}; "
            "pass num_classes to override"
        )
    if observed > q:
        r = int(np.argmax(labels > q))
        raise ValueError(f"{path} row {line_nos[r]}: label {labels[r]} outside {{1..{q}}}")
    return Dataset(covs, labels, q)


def write_csv(path, header, rows, comments=()) -> None:
    """Write ``header`` then ``rows`` as CSV to ``path``, or to stdout if it is None or '-'.

    Rows end in CRLF, the csv module's default. Each comment is one ``# `` line
    before the header, so it may not contain a line break. Comments are
    checked and encoded before the file is opened, so a bad one leaves no file.
    """
    for line in comments:
        if "\n" in line or "\r" in line:
            raise ValueError(f"comment {line!r} contains a line break")
    preamble = "".join(f"# {line}\n" for line in comments)
    preamble.encode("utf-8")  # raises UnicodeEncodeError, e.g. on a lone surrogate
    to_file = path and path != "-"
    sink = open(path, "w", newline="", encoding="utf-8") if to_file else nullcontext(sys.stdout)
    with sink as fh:
        fh.write(preamble)
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def save_csv(dataset: Dataset, path, comments: list[str] | None = None) -> None:
    """Write a dataset with ``write_csv``: columns x1..xD then ``label``; round-trips exactly."""
    header = [f"x{i + 1}" for i in range(dataset.dim)] + ["label"]
    rows = zip(dataset.covariates.tolist(), dataset.labels.tolist())
    # repr() of a Python float is the shortest exact round-trip form
    write_csv(path, header, ([*map(repr, x), str(lab) if lab else ""] for x, lab in rows),
              comments or ())


def rows_bytes(rows: int, dim: int) -> int:
    """Bytes held at most to generate ``rows`` rows of ``dim`` covariates and save them.

    A generator builds each class's block and stacks the blocks, so two
    float64 copies of the covariates and labels may be alive (16 (dim + 1)
    bytes a row). ``save_csv`` then holds its ``tolist`` copy while it
    writes: per row a list of dim Python floats (64 + 32 dim bytes) and a
    slot in the label list (8 bytes; small ints are shared objects).
    """
    return rows * (16 * (dim + 1) + 64 + 32 * dim + 8)


def _check_noise_and_class_size(noise_std: float, n_per_class: int) -> None:
    if not 0 <= noise_std < np.inf:  # False for NaN
        raise ValueError(f"noise_std must be a finite real >= 0, got {noise_std!r}")
    if n_per_class < 1:
        raise ValueError(f"points per class must be at least 1, got {n_per_class}")


def _add_noise(pts: np.ndarray, noise_std: float, rng) -> np.ndarray:
    """``pts`` plus N(0, noise_std^2) draws, refused when a noisy coordinate overflows."""
    if noise_std > 0:
        with np.errstate(over="ignore"):
            pts = pts + rng.normal(0.0, noise_std, size=pts.shape)
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"noise_std {noise_std!r} is too large: coordinates overflow")
    return pts


def gen_concentric_circles(
    n_per_class: int, radii, noise_std: float = 0.0, seed: int = 0
) -> Dataset:
    """Q concentric noisy circles in the plane, class i on radius radii[i-1]."""
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim != 1 or len(radii) < 2:
        raise ValueError("radii must list at least two values")
    if not (np.all(np.isfinite(radii)) and np.all(np.diff(radii) > 0)):
        raise ValueError(f"radii must be finite and strictly increasing, got {radii.tolist()}")
    _check_noise_and_class_size(noise_std, n_per_class)
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for i, r in enumerate(radii, start=1):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n_per_class)
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        xs.append(_add_noise(pts, noise_std, rng))
        ys.append(np.full(n_per_class, i, dtype=np.int64))
    return Dataset(np.vstack(xs), np.concatenate(ys), len(radii))


def gen_double_helix(
    n_per_class: int,
    radius: float = 1.0,
    pitch: float = 1.0,
    turns: float = 2.0,
    noise_std: float = 0.1,
    seed: int = 0,
) -> Dataset:
    """Two interleaved 3-D helices (phase offset pi), one class per strand."""
    for name, v in (("radius", radius), ("pitch", pitch), ("turns", turns)):
        if not 0 < v < np.inf:  # False for NaN
            raise ValueError(f"{name} must be a positive finite real, got {v!r}")
    span = 2.0 * np.pi * turns  # t is drawn from [0, span); heights are pitch * t / (2 pi)
    if not span * pitch < np.inf:
        name, v = ("turns", turns) if span == np.inf else ("pitch", pitch)
        raise ValueError(f"{name} {v!r} is too large: helix heights overflow")
    _check_noise_and_class_size(noise_std, n_per_class)
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for i, phase in enumerate((0.0, np.pi), start=1):
        t = rng.uniform(0.0, span, size=n_per_class)
        pts = np.column_stack(
            [
                radius * np.cos(t + phase),
                radius * np.sin(t + phase),
                pitch * t / (2.0 * np.pi),
            ]
        )
        xs.append(_add_noise(pts, noise_std, rng))
        ys.append(np.full(n_per_class, i, dtype=np.int64))
    return Dataset(np.vstack(xs), np.concatenate(ys), 2)


def stratified_mask(dataset: Dataset, n_labeled_per_class: int, seed: int = 0) -> np.ndarray:
    """Boolean mask selecting n labeled rows per class, uniformly at random."""
    if n_labeled_per_class < 0:
        raise ValueError(f"labeled points per class must be >= 0, got {n_labeled_per_class}")
    rng = np.random.default_rng(seed)
    mask = np.zeros(dataset.n, dtype=bool)
    for c in range(1, dataset.num_classes + 1):
        idx = np.flatnonzero(dataset.labels == c)
        if len(idx) < n_labeled_per_class:
            raise ValueError(
                f"class {c} has {len(idx)} labeled points, need {n_labeled_per_class}"
            )
        mask[rng.permutation(idx)[:n_labeled_per_class]] = True
    return mask


def partition(
    dataset: Dataset, n_labeled_per_class: int, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Stratified split into a labeled part and a held-out part.

    The held-out part keeps its true labels so callers can score recovered
    labelings; pass only its covariates to a solver. Row order is preserved
    within each part and the two parts are the original rows exactly once.
    """
    mask = stratified_mask(dataset, n_labeled_per_class, seed)
    q = dataset.num_classes
    labeled = Dataset(dataset.covariates[mask], dataset.labels[mask], q)
    heldout = Dataset(dataset.covariates[~mask], dataset.labels[~mask], q)
    return labeled, heldout
