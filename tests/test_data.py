import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _reference_csv import load_covariates_reference, load_csv_reference
from coxcut import (
    Dataset,
    gen_concentric_circles,
    gen_double_helix,
    load_covariates,
    load_csv,
    partition,
    save_csv,
)


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
            back = load_csv(_saved(ds, d, comments), num_classes=ds.num_classes)
        assert back.covariates.shape == ds.covariates.shape
        assert back.covariates.tobytes() == ds.covariates.tobytes()  # bit-exact, -0.0 included
        assert np.array_equal(back.labels, ds.labels)

    @settings(max_examples=60, deadline=None)
    @given(ds=_datasets())
    def test_covariate_loader_matches_load_csv(self, ds):
        with tempfile.TemporaryDirectory() as d:
            path = _saved(ds, d)
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
