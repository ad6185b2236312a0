"""Reference CSV reader: the cell-by-cell form of ``coxcut.data``'s loaders.

Lines are numbered while they are streamed to the CSV reader, covariates
are written into a numpy matrix one cell at a time and labels into an int64
vector. ``load_csv`` and ``load_covariates`` parse a plain numeric file with
numpy's C reader and any other file, or a file with an error, with a reader
that reads the whole file at once and parses into Python lists; tests
require them to give identical arrays and identical error messages.
"""

import csv

import numpy as np

from coxcut import Dataset


def read_rows_reference(path):
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise ValueError(f"cannot open dataset file {path}: {e}") from e
    with fh:
        kept = []  # file line number of each line handed to the CSV reader

        def content_lines():
            for line_no, line in enumerate(fh, 1):
                stripped = line.strip()
                if stripped and not stripped.startswith("#"):
                    kept.append(line_no)
                    yield line

        rows = []
        header = None
        for raw in csv.reader(content_lines()):
            line_no = kept[-1]
            if header is None:
                header = [c.strip() for c in raw]
            elif len(raw) != len(header):
                raise ValueError(f"{path} row {line_no}: expected {len(header)} cells, got {len(raw)}")
            else:
                rows.append((line_no, raw))
    if header is None:
        raise ValueError(f"{path}: empty file, expected a header row")
    return header, rows


def _covariate_matrix(path, header, rows, cols):
    covs = np.empty((len(rows), len(cols)))
    for r, (line_no, raw) in enumerate(rows):
        for c, i in enumerate(cols):
            try:
                covs[r, c] = float(raw[i])
            except ValueError:
                raise ValueError(
                    f"{path} row {line_no}: non-numeric covariate {raw[i]!r} "
                    f"in column {header[i]!r}"
                ) from None
    if not np.all(np.isfinite(covs)):
        bad = int(np.argwhere(~np.isfinite(covs))[0][0])
        raise ValueError(f"{path} row {rows[bad][0]}: non-finite covariate value")
    for (line_no, _), row in zip(rows, covs.tolist()):
        if (4.0 + 2.0**-18) * sum(v * v for v in row) == float("inf"):
            raise ValueError(
                f"{path} row {line_no}: covariates too large, "
                "squared distances up to 4 |x|^2 overflow float64"
            )
    return covs


def load_covariates_reference(path, label_column="label"):
    header, rows = read_rows_reference(path)
    lbl_idx = header.index(label_column) if label_column in header else None
    cols = [i for i in range(len(header)) if i != lbl_idx]
    if not cols:
        raise ValueError(f"{path}: no covariate columns")
    return _covariate_matrix(path, header, rows, cols)


def load_csv_reference(path, label_column="label", num_classes=None):
    header, rows = read_rows_reference(path)
    if label_column not in header:
        raise ValueError(f"{path}: no column named {label_column!r} in header {header}")
    lbl_idx = header.index(label_column)
    cov_idx = [i for i in range(len(header)) if i != lbl_idx]
    if not cov_idx:
        raise ValueError(f"{path}: no covariate columns besides {label_column!r}")
    covs = _covariate_matrix(path, header, rows, cov_idx)

    labels = np.zeros(len(rows), dtype=np.int64)
    for r, (line_no, raw) in enumerate(rows):
        cell = raw[lbl_idx].strip()
        if cell:
            try:
                lab = int(cell)
            except ValueError:
                raise ValueError(f"{path} row {line_no}: label {cell!r} is not an integer") from None
            if lab < 1:
                raise ValueError(f"{path} row {line_no}: label {lab} outside {{1..Q}}")
            labels[r] = lab

    observed = int(labels.max()) if labels.size else 0
    q = num_classes if num_classes is not None else observed
    if q < 2:
        raise ValueError(
            f"{path}: need at least two classes, observed max label {observed}; "
            "pass num_classes to override"
        )
    if observed > q:
        r = int(np.argmax(labels > q))
        raise ValueError(f"{path} row {rows[r][0]}: label {labels[r]} outside {{1..{q}}}")
    return Dataset(covs, labels, q)
