import csv
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _reference_csv import load_covariates_reference, load_csv_reference
from coxcut import (
    Dataset,
    Kernel,
    data,
    gen_concentric_circles,
    gen_double_helix,
    load_covariates,
    load_csv,
    partition,
    save_csv,
)
from coxcut.kernels import sym_sq_dists


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_basic_with_unlabeled_row(self, tmp_path):
        p = _write(tmp_path, "x1,x2,label\n0.0,1.0,1\n2.0,3.0,2\n4.0,5.0,\n")
        ds = load_csv(p)
        assert ds.n == 3 and ds.dim == 2 and ds.num_classes == 2
        assert ds.labels.tolist() == [1, 2, 0]
        assert np.array_equal(ds.covariates, [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])

    def test_label_only_file_rejected(self, tmp_path):
        p = _write(tmp_path, "label\n1\n2\n")
        with pytest.raises(ValueError, match="covariate"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot open"):
            load_csv(tmp_path / "nope.csv")

    def test_non_numeric_covariate_reports_row(self, tmp_path):
        p = _write(tmp_path, "x1,label\n1.0,1\nhello,2\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(p)

    def test_bad_labels_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="row 2"):
            load_csv(_write(tmp_path, "x1,label\n1.0,0\n2.0,2\n"))
        with pytest.raises(ValueError, match="not an integer"):
            load_csv(_write(tmp_path, "x1,label\n1.0,1.5\n", name="b.csv"))
        with pytest.raises(ValueError, match="outside"):
            load_csv(_write(tmp_path, "x1,label\n1.0,1\n2.0,5\n", name="c.csv"), num_classes=2)

    def test_single_observed_class_needs_override(self, tmp_path):
        p = _write(tmp_path, "x1,label\n1.0,1\n2.0,1\n")
        with pytest.raises(ValueError, match="num_classes"):
            load_csv(p)
        assert load_csv(p, num_classes=2).num_classes == 2

    def test_comment_lines_skipped(self, tmp_path):
        p = _write(tmp_path, "# solve-mode: exact\nx1,label\n1.0,1\n2.0,2\n")
        assert load_csv(p).n == 2

    def test_comment_with_quote_does_not_swallow_rows(self, tmp_path):
        ds = Dataset(np.array([[1.0], [2.0]]), np.array([1, 2]), 2)
        p = tmp_path / "c.csv"
        save_csv(ds, p, comments=['x,"abc'])
        assert np.array_equal(load_csv(p).covariates, ds.covariates)

    def test_errors_name_file_lines_past_comments_and_blanks(self, tmp_path):
        p = _write(tmp_path, '# a,"b\n\nx1,label\n# c\n1.0,1\n\nbad,2\n')
        with pytest.raises(ValueError, match="row 7: non-numeric"):
            load_csv(p)

    @pytest.mark.parametrize("text, line", [
        ("# c\nx1,label\n1,1\n\n{big},2\n", 5),
        ("{big},label\n1,1\n", 1),
    ], ids=["data row", "header"])
    def test_cell_over_the_csv_field_limit_names_its_line(self, tmp_path, text, line):
        p = _write(tmp_path, text.format(big="1" * 200_000))
        for load in (load_csv, load_covariates):
            with pytest.raises(ValueError, match=rf"^.* row {line}: field larger than field limit"):
                load(p)

    @pytest.mark.parametrize("digits, value, shown", [
        ("9" * 5000, None, "9" * 40 + "... (5000 characters)"),
        ("-" + "9" * 5000, None, "-" + "9" * 39 + "... (5001 characters)"),
        ("0" * 5000, None, "0"),
        ("0" * 4999 + "1", 1, None),
        ("+" + "0" * 4999 + "2", 2, None),
    ], ids=["large", "negative", "zeros", "leading-zeros-1", "leading-zeros-2"])
    def test_label_past_the_int_string_limit_is_an_integer(self, tmp_path, digits, value, shown):
        # int() refuses more than 4300 digits; such a cell is still an integer literal
        p = _write(tmp_path, f"x1,label\n1,1\n2,{digits}\n")
        if value is not None:
            assert load_csv(p, num_classes=2).labels.tolist() == [1, value]
            return
        with pytest.raises(ValueError) as e:
            load_csv(p)
        assert str(e.value) == f"{p} row 3: label {shown} outside {{1..Q}}"

    @pytest.mark.parametrize("text, message", [
        ("x1,label\n1,1\n2,{big}x\n",
         " row 3: label '{ones}... (5003 characters) is not an integer"),
        ("x1,label\n{big}x,1\n2,2\n",
         " row 2: non-numeric covariate '{ones}... (5003 characters) in column 'x1'"),
        ("{big},label\nzz,1\n2,2\n",
         " row 2: non-numeric covariate 'zz' in column '{ones}... (5002 characters)"),
        ("x1,{big}\n1,1\n",
         ": no column named 'label' in header ['x1', '{ones8}... (5010 characters)"),
    ], ids=["label", "covariate", "column name", "header"])
    def test_long_cells_are_shortened_in_errors(self, tmp_path, text, message):
        p = _write(tmp_path, text.format(big="1" * 5000))
        with pytest.raises(ValueError) as e:
            load_csv(p)
        assert str(e.value) == f"{p}" + message.format(ones="1" * 39, ones8="1" * 32)

    @pytest.mark.parametrize("comment", ["two\nlines", "carriage\rreturn"])
    def test_save_rejects_comment_with_line_break(self, tmp_path, comment):
        ds = Dataset(np.zeros((1, 1)), np.array([1]), 2)
        with pytest.raises(ValueError, match="line break"):
            save_csv(ds, tmp_path / "c.csv", comments=[comment])
        assert not (tmp_path / "c.csv").exists()

    def test_save_rejects_unencodable_comment_without_creating_file(self, tmp_path):
        ds = Dataset(np.zeros((1, 1)), np.array([1]), 2)
        with pytest.raises(UnicodeEncodeError):
            save_csv(ds, tmp_path / "c.csv", comments=["ok", "\ud800"])
        assert not (tmp_path / "c.csv").exists()

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(0, 1, (20, 3)), rng.integers(0, 4, 20), 3)
        p = tmp_path / "rt.csv"
        save_csv(ds, p)
        back = load_csv(p, num_classes=3)
        assert np.array_equal(back.covariates, ds.covariates)
        assert np.array_equal(back.labels, ds.labels)


@st.composite
def _datasets(draw):
    q = draw(st.integers(2, 4))
    n = draw(st.integers(0, 12))
    d = draw(st.integers(1, 3))
    x = draw(arrays(np.float64, (n, d), elements=st.floats(allow_nan=False, allow_infinity=False)))
    y = draw(arrays(np.int64, n, elements=st.integers(0, q)))
    return Dataset(x, y, q)


def _too_large(x):
    """Some row's (4 + 2**-18) |x|^2 overflows float64, which the loaders refuse."""
    return any((4.0 + 2.0**-18) * sum(v * v for v in row) == float("inf") for row in x.tolist())


def _saved(ds, directory, comments=None):
    path = os.path.join(directory, "ds.csv")
    save_csv(ds, path, comments)
    return path


# CSV metacharacters are drawn often, so quotes after commas do occur; lone
# surrogates are left out because UTF-8 cannot encode them
_single_line_comments = st.lists(
    st.text(
        st.one_of(
            st.sampled_from(',"# '),
            st.characters(exclude_categories=("Cs",), exclude_characters="\n\r"),
        )
    )
)


class TestCsvProperties:
    @settings(max_examples=60, deadline=None)
    @given(ds=_datasets(), comments=_single_line_comments)
    def test_save_load_round_trips_exactly(self, ds, comments):
        with tempfile.TemporaryDirectory() as d:
            path = _saved(ds, d, comments)
            if _too_large(ds.covariates):
                with pytest.raises(ValueError, match=r"row \d+: covariates too large"):
                    load_csv(path, num_classes=ds.num_classes)
                return
            back = load_csv(path, num_classes=ds.num_classes)
        assert back.covariates.shape == ds.covariates.shape
        assert back.covariates.tobytes() == ds.covariates.tobytes()  # bit-exact, -0.0 included
        assert np.array_equal(back.labels, ds.labels)

    @settings(max_examples=60, deadline=None)
    @given(ds=_datasets())
    def test_covariate_loader_matches_load_csv(self, ds):
        with tempfile.TemporaryDirectory() as d:
            path = _saved(ds, d)
            if _too_large(ds.covariates):
                expected = _outcome(load_csv, path, num_classes=ds.num_classes)
                assert expected[0] is ValueError
                assert _outcome(load_covariates, path) == expected
                return
            x = load_covariates(path)
            expected = load_csv(path, num_classes=ds.num_classes).covariates
        assert x.shape == expected.shape
        assert x.tobytes() == expected.tobytes()


def _outcome(load, path, **kw):
    """What a loader gives: its arrays, or the type and message of what it raised."""
    try:
        got = load(path, **kw)
    except Exception as e:  # the readers must agree on every failure, not only ValueError
        return type(e), str(e)
    return _arrays(got)


def _arrays(got):
    """Bytes, shapes and labels of what a loader returned."""
    if isinstance(got, Dataset):
        return got.covariates.tobytes(), got.covariates.shape, got.labels.tolist(), got.num_classes
    return got.tobytes(), got.shape, got.dtype


# Each file below is read by load_csv (with and without a class-count
# override) and load_covariates and by the cell-by-cell reference reader;
# the arrays, or the exact messages of the first error, must agree.
_READER_CASES = {
    "plain": "x1,x2,label\n0.5,1e-3,1\n2,3,\n-4,5,2\n",
    "comments and blanks": "# c,\"q\n\nx1,label\n\n1,1\n# mid\n2,2\n  \n3,\n",
    "crlf": "x1,x2,label\r\n1,2,1\r\n3,4,2\r\n",
    "lone cr": "x1,label\r1,1\r2,2\r",
    "padded cells": " x1 , label \n 1.5 , 2 \n3, 1\n",
    "quoted covariate over two lines": 'x1,x2,label\n1,2,1\n"3\n4",5,2\n',
    "quoted label over two lines, then a bad label": 'x1,label\n1,"1\n"\n2,2\n3,x\n',
    "quoted cell around a skipped blank line": 'x1,label\n"1\n\n2",1\n',
    "quoted header over two lines": '"x\n1",label\n1,1\n# c\nbad,2\n',
    "non-numeric in a middle column": "x1,x2,x3,label\n1,2,3,1\n4,five,6,2\n",
    "covariate error after a label error": "x1,label\n1,abc\nzz,2\n",
    "non-finite after a label error": "x1,label\n1,0\nnan,2\n",
    "non-finite": "x1,label\n1,1\ninf,2\n",
    "covariates too large": "x1,x2,label\n1,2,1\n4.2e153,4.2e153,2\n7e153,0,1\n",
    "too large after a label error": "x1,label\n1,0\n-7e153,2\n",
    "label below one": "x1,label\n1,1\n2,-3\n",
    "non-integer label": "x1,label\n1,1\n2,1.5\n",
    "label above the override": "x1,label\n1,1\n2,3\n",
    "one observed class": "x1,label\n1,1\n2,1\n",
    "label too large for int64": "x1,label\n1,1\n2,99999999999999999999999\n",
    "short row": "x1,x2,label\n1,2,1\n3,2\n",
    "empty": "",
    "comments only": "# a\n\n",
    "header only": "x1,x2,label\n",
    "no label column": "x1,x2\n1,2\n",
    "label column only": "label\n1\n",
}


# Cases where load_csv departs from the reference reader on purpose: the
# reference's int64 label vector raises OverflowError, a traceback at the CLI.
_LOAD_CSV_ERRORS = {
    "label too large for int64": "row 3: label 99999999999999999999999 outside {1..Q}",
}


class TestReaderMatchesReference:
    @pytest.mark.parametrize("name, text", _READER_CASES.items(), ids=_READER_CASES.keys())
    def test_arrays_and_error_messages(self, tmp_path, name, text):
        p = tmp_path / "data.csv"
        p.write_bytes(text.encode())
        for kw in ({}, {"num_classes": 2}):
            expected = _outcome(load_csv_reference, p, **kw)
            if name in _LOAD_CSV_ERRORS:
                expected = ValueError, f"{p} {_LOAD_CSV_ERRORS[name]}"
            assert _outcome(load_csv, p, **kw) == expected
        assert _outcome(load_covariates, p) == _outcome(load_covariates_reference, p)

    def test_missing_file(self, tmp_path):
        p = tmp_path / "absent.csv"
        assert _outcome(load_csv, p) == _outcome(load_csv_reference, p)

    @settings(max_examples=60, deadline=None)
    @given(ds=_datasets(), comments=_single_line_comments)
    def test_saved_datasets(self, ds, comments):
        with tempfile.TemporaryDirectory() as d:
            path = _saved(ds, d, comments)
            for load, reference in ((load_csv, load_csv_reference),
                                    (load_covariates, load_covariates_reference)):
                assert _outcome(load, path) == _outcome(reference, path)


class _Declined(Exception):
    """The fast path left the file to the reference reader."""


def _declined(path):
    raise _Declined


def _fast_only(load, path, **kw):
    """What ``load`` returns through numpy's C parser alone, or None if it falls back."""
    with mock.patch.object(data, "_read_rows", _declined):
        try:
            return load(path, **kw)
        except _Declined:
            return None


_Q_MAX = int(np.iinfo(np.int64).max)  # the class count eval passes: any label is in range


def _fast_path_agrees(path) -> bool:
    """Check each loader's fast result against the reference; True if load_covariates took it.

    A fast result for a file that the reference refuses compares unequal
    to the reference's (type, message), so that fails too.
    """
    for kw in ({}, {"num_classes": 2}, {"num_classes": _Q_MAX}):
        fast = _fast_only(load_csv, path, **kw)
        assert fast is None or _arrays(fast) == _outcome(load_csv_reference, path, **kw)
    fast = _fast_only(load_covariates, path)
    assert fast is None or _arrays(fast) == _outcome(load_covariates_reference, path)
    return fast is not None


_FIELD_PAST_LIMIT = "1" * (csv.field_size_limit() + 1)

# File text -> whether load_covariates reads it through the fast path. Every
# case must also agree with the reference reader wherever the fast path answers.
_FAST_PATH_CASES = {
    "plain": ("x1,x2,label\n0.5,1e-3,1\n2,3,\n-4,5,2\n", True),
    "comments, blank lines and crlf": ('# a,"b\r\n\r\nx1,label\r\n1,1\r\n\r\n2,\r\n\n', True),
    "lone cr": ("x1,label\r1,1\r2,2\r", True),
    "no final line break": ("x1,label\n1,1\n2,2", True),
    "padded numbers": ("x1,x2,label\n 1.5 ,\t2,1\n3,4,2\n", True),
    "utf-8 bom": ("\ufeffx1,label\n1,1\n2,2\n", True),
    "utf-8 bom before the label column": ("\ufefflabel,x1\n1,1\n2,2\n", True),
    "no label column": ("x1,x2\n1,2\n3,4\n", True),
    "label column twice": ("label,x1,label\n1,2,3\n2,4,5\n", True),
    "label of 15 digits": ("x1,label\n1,1\n2,999999999999999\n", True),
    "extra cell": ("x1,label\n1,1\n2,2,3\n", False),
    "extra cell in every row": ("x1,label\n1,1,3\n2,2,3\n", False),
    "missing cell": ("x1,x2,label\n1,2,1\n3,2\n", False),
    "missing cell in every row": ("x1,x2,label\n1,1\n2,2\n", False),
    "whitespace-only line": ("x1,label\n1,1\n \n2,2\n", False),
    "whitespace-only line in one column": ("x1\n1\n\t\n2\n", False),
    "whitespace-only line first": ("x1,label\n \n1,1\n2,2\n", False),
    "# mid-line": ("x1,label\n1,1#c\n2,2\n", False),
    "comment after the header": ("x1,label\n# c\n1,1\n2,2\n", False),
    "comment between rows": ("x1,label\n1,1\n# c\n2,2\n", False),
    "quoted covariate": ('x1,label\n"1",1\n2,2\n', False),
    "quoted label": ('x1,label\n1,"1"\n2,2\n', False),
    "quoted cell over two lines": ('x1,label\n1,"a\n2,b"\n', False),
    "quoted header cell": ('"x1",label\n1,1\n2,2\n', False),
    "header cell past the csv field limit": (f"{_FIELD_PAST_LIMIT},label\n1,1\n2,2\n", False),
    "data cell past the csv field limit": (f"x1,label\n{_FIELD_PAST_LIMIT},1\n2,2\n", False),
    "label 0": ("x1,label\n1,0\n2,2\n", False),
    "label +1": ("x1,label\n1,+1\n2,2\n", False),
    "label 01": ("x1,label\n1,01\n2,2\n", False),
    "padded label": ("x1,label\n1, 1 \n2,2\n", False),
    "label past 2**53": (f"x1,label\n1,1\n2,{2**53 + 1}\n", False),
    "label of 16 digits": ("x1,label\n1,1\n2,1000000000000000\n", False),
    "covariate 1_0": ("x1,label\n1_0,1\n2,2\n", False),
    "covariate nan": ("x1,label\nnan,1\n2,2\n", False),
    "covariate inf": ("x1,label\n1,1\n-inf,2\n", False),
    "covariate past float64": ("x1,label\n1e400,1\n2,2\n", False),
    "covariate too large": ("x1,label\n7e153,1\n2,2\n", False),
    "non-ascii digit": ("x1,label\n\u0661,1\n2,2\n", False),
    "nul in a cell": ("x1,label\n1\x00,1\n2,2\n", False),
    "header only": ("x1,label\n", False),
    "header and blank lines": ("x1,label\n\n\r\n\r", False),
    "label column only": ("label\n1\n2\n", False),
    "comments only": ("# a\n\n", False),
    "empty": ("", False),
}

# Cells, lines and other oddities that _csv_texts puts into otherwise plain files
_ODD_COVARIATES = ["1_0", "nan", "-inf", "1e400", "7e153", " 2.5 ", "", "#1", '"1"', "1 2",
                   "\u0661", "0x1p3", "1\x00"]
_ODD_LABELS = ["0", "+1", "01", " 1 ", "-1", "1.0", "x", '"2"', "9" * 15, str(2**53 + 1),
               "12345678901234567"]
_ODD_LINES = ["", " ", "\t", "# c", '# ,"', "#"]


@st.composite
def _csv_texts(draw):
    """A plain file in the loaders' layout with up to two oddities the fast path may decline."""
    d = draw(st.integers(1, 3))
    header = [f"x{i + 1}" for i in range(d)]
    if draw(st.integers(0, 3)):
        header.insert(draw(st.integers(0, d)), "label")
    covariate = st.one_of(st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False))
    rows = [[draw(st.sampled_from(["", "1", "2", "3"])) if h == "label" else repr(draw(covariate))
             for h in header] for _ in range(draw(st.integers(0, 5)))]
    bom = ""
    # sorted, so that a row changes its width after its cells are replaced
    kinds = ["bom", "covariate", "label", "quote", "width"]
    for odd in sorted(draw(st.lists(st.sampled_from(kinds), max_size=2))):
        if odd in ("covariate", "label") and rows:
            cols = [c for c, h in enumerate(header) if (h == "label") == (odd == "label")]
            if cols:
                r, c = draw(st.integers(0, len(rows) - 1)), draw(st.sampled_from(cols))
                rows[r][c] = draw(st.sampled_from(_ODD_LABELS if odd == "label"
                                                  else _ODD_COVARIATES))
        elif odd == "width" and rows:  # an extra or a missing cell, in one row or in all
            extra = draw(st.booleans())
            every = range(len(rows)) if draw(st.booleans()) else []
            for r in every or [draw(st.integers(0, len(rows) - 1))]:
                rows[r] = rows[r] + ["1"] if extra else rows[r][:-1]
        elif odd == "quote":
            header[0] = f'"{header[0]}"'
        elif odd == "bom":
            bom = "\ufeff"
    lines = [",".join(cells) for cells in [header, *rows]]
    for odd in draw(st.lists(st.sampled_from(_ODD_LINES), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return bom + text


class TestFastPathMatchesReference:
    """numpy's C parser returns the reference reader's arrays bit for bit, or falls back."""

    @pytest.mark.parametrize("text, taken", _FAST_PATH_CASES.values(), ids=_FAST_PATH_CASES.keys())
    def test_cases(self, tmp_path, text, taken):
        p = tmp_path / "data.csv"
        p.write_bytes(text.encode())
        assert _fast_path_agrees(p) == taken

    @settings(max_examples=500, deadline=None)
    @given(text=_csv_texts())
    def test_generated_files(self, text):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "data.csv")
            with open(p, "wb") as fh:
                fh.write(text.encode())
            _fast_path_agrees(p)

    @settings(max_examples=60, deadline=None)
    @given(ds=_datasets(), comments=_single_line_comments)
    def test_saved_datasets_take_the_fast_path(self, ds, comments):
        with tempfile.TemporaryDirectory() as d:
            path = _saved(ds, d, comments)
            taken = _fast_path_agrees(path)
        assert taken == (ds.n > 0 and not _too_large(ds.covariates))


def test_load_csv_peak_memory(tmp_path):
    # Measured 1.10 MB with numpy 2.4: the parsed 16,384 x 4 matrix (0.52 MB)
    # is alive while the labels (0.13 MB) and the covariates (0.39 MB) are
    # copied out of it. The bound is 36% above that, for other numpy versions;
    # the Python-list reader it replaced as the common path peaked at 7.1-8.6 MB.
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(16_384, 3)), rng.integers(0, 3, 16_384), 2)
    path = tmp_path / "big.csv"
    save_csv(ds, path, comments=["solve-mode: exact"])
    tracemalloc.start()
    try:
        back = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.covariates.tobytes() == ds.covariates.tobytes()
    assert peak < 1.5e6


class TestLoadCovariates:
    def test_label_column_optional_and_ignored(self, tmp_path):
        with_label = load_covariates(_write(tmp_path, "x1,label,x2\n1.0,2,3.0\n4.0,,5.0\n"))
        without = load_covariates(_write(tmp_path, "x1,x2\n1.0,3.0\n4.0,5.0\n", name="b.csv"))
        assert np.array_equal(with_label, [[1.0, 3.0], [4.0, 5.0]])
        assert np.array_equal(without, with_label)

    def test_header_only_gives_empty_matrix(self, tmp_path):
        assert load_covariates(_write(tmp_path, "# note\n\nx1,x2\n\n")).shape == (0, 2)

    @pytest.mark.parametrize(
        "text, match", [("", "empty file"), ("label\n1\n", "no covariate columns")]
    )
    def test_files_without_covariates_rejected(self, tmp_path, text, match):
        with pytest.raises(ValueError, match=match):
            load_covariates(_write(tmp_path, text))


class TestCovariateMagnitude:
    """Rows whose (4 + 2**-18) |x|^2 overflows float64 are refused before any distance."""

    def test_both_loaders_name_the_file_and_row(self, tmp_path):
        path = _write(tmp_path, "x1,label\n1e200,1\n0,2\n1,1\n2e200,2\n")
        message = (f"{path} row 2: covariates too large, "
                   "squared distances up to 4 |x|^2 overflow float64")
        for load in (load_csv, load_covariates):
            with pytest.raises(ValueError) as info:
                load(path)
            assert str(info.value) == message

    @staticmethod
    def _largest_accepted(direction):
        """``direction`` scaled to the loaders' bound: taken, and refused one ulp further out."""
        x = direction / np.linalg.norm(direction)
        x = x * np.sqrt(np.finfo(np.float64).max / (4.0 + 2.0**-18))
        while data._covariate_fault(x[None]) is not None:
            x = np.nextafter(x, 0.0)
        while data._covariate_fault(np.nextafter(x, np.inf * x)[None]) is None:
            x = np.nextafter(x, np.inf * x)
        return x

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bound_is_on_the_row_norm(self, tmp_path):
        top = float(self._largest_accepted(np.ones(1))[0])  # about 6.7e153
        above = float(np.nextafter(top, np.inf))
        ds = load_csv(_write(tmp_path, f"x1,label\n{top!r},1\n{-top!r},2\n0,1\n"))
        with pytest.raises(ValueError, match="row 3: covariates too large"):
            load_csv(_write(tmp_path, f"x1,label\n{top!r},1\n{above!r},2\n", "b.csv"))
        # 5e153 alone passes (4 * 2.5e307 < 1.8e308); two of them in one row do not
        load_csv(_write(tmp_path, "x1,x2,label\n5e153,0,1\n0,-5e153,2\n", "c.csv"))
        with pytest.raises(ValueError, match="row 3: covariates too large"):
            load_csv(_write(tmp_path, "x1,x2,label\n5e153,0,1\n5e153,5e153,2\n", "d.csv"))
        # the largest accepted rows, top and -top, give the largest distance: finite
        x = ds.covariates
        d2 = sym_sq_dists(x)
        assert np.isfinite(d2).all() and d2[0, 1] == 4.0 * top * top
        for family in ("se", "exp"):
            kernel = Kernel(family, 1.0, 1.0)
            assert np.isfinite(kernel.gram(x)).all()
            assert np.isfinite(kernel.row_sums(x, x)).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_rows_keep_distances_finite_in_every_dimension(self):
        # at exactly 4 |x|^2, rounding in the dot products overflowed about 1% of these
        rng = np.random.default_rng(0)
        for d in (2, 3, 5, 17):
            for _ in range(100):
                x = self._largest_accepted(rng.normal(size=d))
                pair = np.vstack([x, -x])
                assert np.isfinite(sym_sq_dists(pair)).all()
                assert np.isfinite(Kernel("exp", 1.0, 1.0).row_sums(pair, pair)).all()


class TestDatasetInvariants:
    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((2, 1)), np.array([1, 3]), 2)

    def test_non_finite_covariates_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[np.nan]]), np.array([1]), 2)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="num_classes"):
            Dataset(np.zeros((1, 1)), np.array([1]), 1)


class TestCircles:
    def test_noiseless_points_on_circles(self):
        ds = gen_concentric_circles(4, (1.0, 2.0), noise_std=0.0, seed=5)
        assert ds.n == 8 and ds.num_classes == 2
        radii = np.hypot(ds.covariates[:, 0], ds.covariates[:, 1])
        expected = np.where(ds.labels == 1, 1.0, 2.0)
        assert np.allclose(radii, expected, rtol=0, atol=1e-12)

    def test_deterministic_given_seed(self):
        a = gen_concentric_circles(10, (1, 2), 0.1, seed=3)
        b = gen_concentric_circles(10, (1, 2), 0.1, seed=3)
        assert np.array_equal(a.covariates, b.covariates)
        assert np.array_equal(a.labels, b.labels)

    def test_three_classes(self):
        ds = gen_concentric_circles(5, (1.0, 2.0, 3.0), 0.05, seed=1)
        assert ds.num_classes == 3
        assert ds.class_counts().tolist() == [5, 5, 5]

    def test_non_increasing_radii_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            gen_concentric_circles(5, (2.0, 1.0))


class TestDoubleHelix:
    def test_noiseless_on_cylinder(self):
        ds = gen_double_helix(20, radius=1.5, noise_std=0.0, seed=2)
        r = np.hypot(ds.covariates[:, 0], ds.covariates[:, 1])
        assert np.allclose(r, 1.5, rtol=0, atol=1e-12)

    def test_strands_separated(self):
        # brute-force nearest cross-class distance
        ds = gen_double_helix(40, noise_std=0.0, seed=7)
        a = ds.covariates[ds.labels == 1]
        b = ds.covariates[ds.labels == 2]
        d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
        assert d.min() > 0.0

    def test_deterministic_given_seed(self):
        a = gen_double_helix(15, seed=9)
        b = gen_double_helix(15, seed=9)
        assert np.array_equal(a.covariates, b.covariates)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            gen_double_helix(5, radius=-1.0)


class TestPartition:
    def _ds(self):
        return gen_concentric_circles(12, (1, 2), 0.05, seed=0)

    def test_all_labeled_leaves_empty_heldout(self):
        labeled, heldout = partition(self._ds(), 12, seed=1)
        assert heldout.n == 0 and labeled.n == 24

    def test_union_is_original_multiset(self):
        ds = self._ds()
        labeled, heldout = partition(ds, 5, seed=2)
        assert labeled.n + heldout.n == ds.n
        merged = np.vstack([labeled.covariates, heldout.covariates])
        key = np.lexsort(merged.T)
        orig_key = np.lexsort(ds.covariates.T)
        assert np.array_equal(merged[key], ds.covariates[orig_key])

    def test_distinct_seeds_give_distinct_splits(self):
        ds = self._ds()
        picks = set()
        for seed in range(10):
            labeled, _ = partition(ds, 5, seed=seed)
            picks.add(labeled.covariates.tobytes())
        assert len(picks) == 10

    def test_insufficient_class_count_rejected(self):
        with pytest.raises(ValueError, match="class"):
            partition(self._ds(), 13, seed=0)

    def test_heldout_keeps_true_labels(self):
        ds = self._ds()
        _, heldout = partition(ds, 5, seed=3)
        assert set(np.unique(heldout.labels)) <= {1, 2}
        assert np.all(heldout.labels > 0)
