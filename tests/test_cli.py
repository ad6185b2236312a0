import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import coxcut
from _reference_csv import load_covariates_reference, load_csv_reference
from _reference_energy import build_energy_reference
from coxcut import Dataset, load_covariates, load_csv, save_csv
from coxcut.cli import run
from coxcut.cv import MAX_LOO_POINTS
from coxcut.kernels import Kernel
from coxcut.mrf import SOLVE_BYTES_PER_PAIR


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _gen_circles(tmp_path, capsys, labeled_per_class=0, name="data.csv", truth=None):
    argv = [
        "gen", "--shape", "circles", "--radii", "1,4", "--n-per-class", "30",
        "--noise", "0.05", "--seed", "3", "--out", str(tmp_path / name),
    ]
    if labeled_per_class:
        argv += ["--labeled-per-class", str(labeled_per_class)]
    if truth:
        argv += ["--truth-out", str(tmp_path / truth)]
    code, *_ = _run(capsys, *argv)
    assert code == 0
    return tmp_path / name


class TestGen:
    def test_writes_loadable_deterministic_file(self, tmp_path, capsys):
        p1 = _gen_circles(tmp_path, capsys, name="a.csv")
        p2 = _gen_circles(tmp_path, capsys, name="b.csv")
        assert p1.read_text() == p2.read_text()
        ds = load_csv(p1)
        assert ds.n == 60 and ds.num_classes == 2

    def test_masked_output_with_truth(self, tmp_path, capsys):
        _gen_circles(tmp_path, capsys, labeled_per_class=5, truth="truth.csv")
        masked = load_csv(tmp_path / "data.csv")
        truth = load_csv(tmp_path / "truth.csv")
        assert masked.labeled_mask.sum() == 10
        assert np.all(truth.labels > 0)
        assert np.array_equal(masked.covariates, truth.covariates)

    def test_helix_shape(self, tmp_path, capsys):
        code, *_ = _run(
            capsys, "gen", "--shape", "helix", "--n-per-class", "10",
            "--out", str(tmp_path / "h.csv"),
        )
        assert code == 0
        assert load_csv(tmp_path / "h.csv").dim == 3


    @pytest.mark.parametrize("shape", ["circles", "helix"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_class_size_below_one_is_one_line_error(self, tmp_path, capsys, shape, n):
        out = tmp_path / "d.csv"
        code, stdout, err = _run(
            capsys, "gen", "--shape", shape, "--n-per-class", n, "--out", str(out)
        )
        assert code == 1 and stdout == ""
        assert err.splitlines() == [f"coxcut: error: points per class must be at least 1, got {n}"]
        assert not out.exists()

    def test_negative_labeled_per_class_is_one_line_error(self, tmp_path, capsys):
        out, truth = tmp_path / "d.csv", tmp_path / "truth.csv"
        code, stdout, err = _run(
            capsys, "gen", "--shape", "circles", "--n-per-class", "30",
            "--labeled-per-class", "-1", "--truth-out", str(truth), "--out", str(out),
        )
        assert code == 1 and stdout == ""
        assert err.splitlines() == [
            "coxcut: error: labeled points per class must be >= 0, got -1"
        ]
        assert not out.exists() and not truth.exists()


    @pytest.mark.parametrize("shape, flags, message", [
        ("helix", ["--turns", "inf"], "turns must be a positive finite real, got inf"),
        ("helix", ["--turns", "1e308"], "turns 1e+308 is too large: helix heights overflow"),
        ("helix", ["--pitch", "1e308"], "pitch 1e+308 is too large: helix heights overflow"),
        ("helix", ["--radius", "1e308", "--noise", "1e308"],
         "noise_std 1e+308 is too large: coordinates overflow"),
        ("helix", ["--noise", "nan"], "noise_std must be a finite real >= 0, got nan"),
        ("circles", ["--noise", "nan"], "noise_std must be a finite real >= 0, got nan"),
        ("circles", ["--radii", "1,inf"],
         "radii must be finite and strictly increasing, got [1.0, inf]"),
    ], ids=["turns-inf", "turns-1e308", "pitch", "radius-noise", "helix-noise-nan",
            "circles-noise-nan", "radii-inf"])
    def test_extreme_shape_flags_are_one_line_error(self, tmp_path, shape, flags, message):
        out, truth = tmp_path / "d.csv", tmp_path / "truth.csv"
        argv = ["gen", "--shape", shape, *flags, "--truth-out", str(truth), "--out", str(out)]
        # a separate process, so that a warning or traceback on the way fails the test
        res = subprocess.run([sys.executable, "-m", "coxcut", *argv], capture_output=True,
                             text=True, env=_module_env(), timeout=120)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.splitlines() == [f"coxcut: error: {message}"]
        assert not out.exists() and not truth.exists()

    @pytest.mark.parametrize("shape, flags, classes, dim", [
        ("circles", ["--radii", "1,2,3"], 3, 2),
        ("helix", [], 2, 3),
    ], ids=["circles", "helix"])
    def test_rows_past_the_byte_guard_are_one_line_error(self, tmp_path, capsys, monkeypatch,
                                                         shape, flags, classes, dim):
        from coxcut import cli
        from coxcut.data import MAX_ROWS_BYTES, rows_bytes

        # the smallest class size whose rows pass the guard
        n = MAX_ROWS_BYTES // rows_bytes(classes, dim) + 1
        assert rows_bytes(n * classes, dim) > MAX_ROWS_BYTES >= rows_bytes((n - 1) * classes, dim)

        def forbidden(*_):
            raise AssertionError("rows generated past the byte guard")

        monkeypatch.setattr(cli, "gen_concentric_circles", forbidden)
        monkeypatch.setattr(cli, "gen_double_helix", forbidden)
        out, truth = tmp_path / "d.csv", tmp_path / "truth.csv"
        tracemalloc.start()
        try:
            code, stdout, err = _run(
                capsys, "gen", "--shape", shape, *flags, "--n-per-class", str(n),
                "--labeled-per-class", "5", "--truth-out", str(truth), "--out", str(out),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"coxcut: error: {n * classes} rows to generate and write need ")
        assert err.rstrip().endswith("GB guard; use fewer points per class (--n-per-class)")
        assert not out.exists() and not truth.exists()
        assert peak < 1e6  # nothing the size of the rows was allocated

    @pytest.mark.parametrize("shape, classes, dim", [("circles", 2, 2), ("helix", 2, 3)])
    def test_row_bytes_bound_what_gen_holds(self, tmp_path, capsys, shape, classes, dim):
        from coxcut.data import rows_bytes

        def gen(n):
            return _run(capsys, "gen", "--shape", shape, "--n-per-class", str(n),
                        "--labeled-per-class", "5", "--truth-out", str(tmp_path / "truth.csv"),
                        "--out", str(tmp_path / "d.csv"))[0]

        assert gen(10) == 0  # untraced first call
        n = 50_000
        tracemalloc.start()
        try:
            code = gen(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        # measured 0.92 (circles) and 0.91 (helix) of the estimate
        assert peak <= rows_bytes(n * classes, dim)


class TestSimulate:
    def test_field_and_points_files(self, tmp_path, capsys):
        code, *_ = _run(
            capsys, "simulate", "--window", "-1,-1,1,1", "--grid", "8",
            "--kernel", "se", "--lengthscale", "1", "--variance", "1",
            "--seed", "7", "--out-field", str(tmp_path / "field.csv"),
            "--out-points", str(tmp_path / "points.csv"),
        )
        assert code == 0
        with open(tmp_path / "field.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "x2", "intensity"]
        assert len(rows) - 1 == 64
        vals = np.array([[float(v) for v in r] for r in rows[1:]])
        assert np.all(vals[:, 2] >= 0)
        with open(tmp_path / "points.csv", newline="") as fh:
            prows = list(csv.reader(fh))
        assert prows[0] == ["x1", "x2"]

    @pytest.mark.parametrize("flag", ["--variance", "--mean"])
    def test_overflowing_field_is_one_line_error_without_warning(self, tmp_path, flag):
        argv = ["simulate", "--window", "-1,-1,1,1", "--grid", "8", flag, "1e308",
                "--out-field", str(tmp_path / "field.csv"),
                "--out-points", str(tmp_path / "points.csv")]
        # a separate process, so that a warning printed on the way fails the test
        res = subprocess.run([sys.executable, "-m", "coxcut", *argv], capture_output=True,
                             text=True, env=_module_env(), timeout=120)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.splitlines() == [
            "coxcut: error: intensities must be finite and non-negative"
        ]
        assert not (tmp_path / "field.csv").exists()

    def test_grid_past_the_byte_guard_is_one_line_error(self, tmp_path):
        # 10,000 cells passed the old cell count guard and then needed a 0.8 GB gram
        argv = ["simulate", "--window", "0,1", "--grid", "10000",
                "--out-field", str(tmp_path / "field.csv"),
                "--out-points", str(tmp_path / "points.csv")]
        res = subprocess.run([sys.executable, "-m", "coxcut", *argv], capture_output=True,
                             text=True, env=_module_env(), timeout=120)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.splitlines() == [
            "coxcut: error: grid has 10000 cells: factorizing their covariance holds 3 "
            "10000x10000 float64 matrices (2.4 GB), above the 0.54 GB guard; use fewer "
            "cells per axis (--grid)"
        ]
        assert not (tmp_path / "field.csv").exists()


class TestPredictEval:
    def test_predict_output_schema(self, tmp_path, capsys):
        data = _gen_circles(tmp_path, capsys)
        code, *_ = _run(
            capsys, "predict", "--train", str(data), "--test", str(data),
            "--kernel", "se", "--lengthscale", "1", "--variance", "0.25",
            "--out", str(tmp_path / "preds.csv"),
        )
        assert code == 0
        with open(tmp_path / "preds.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["prob_1", "prob_2", "label"]
        probs = np.array([[float(r[0]), float(r[1])] for r in rows[1:]])
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        labels = [int(r[2]) for r in rows[1:]]
        assert set(labels) <= {1, 2}

    @pytest.mark.parametrize(
        "text, suffix",
        [
            ("x1,x2\n0.1,0.2\n0.3\n", " row 3: expected 2 cells, got 1"),
            ("# comment\nx1,x2,label\n0.1,0.2,1\n0.3,0.4,,\n", " row 4: expected 3 cells, got 4"),
            ("x1,x2\n", ": no test points"),
            ("x1,x2\n0.1,0.2\n0.3,abc\n", " row 3: non-numeric covariate 'abc' in column 'x2'"),
            ("x1,x2,label\n0.1,nan,\n", " row 2: non-finite covariate value"),
        ],
        ids=["short-row", "long-row", "header-only", "non-numeric", "nan"],
    )
    def test_malformed_test_file_is_one_line_error(self, tmp_path, capsys, text, suffix):
        data = _gen_circles(tmp_path, capsys)
        test = tmp_path / "test.csv"
        test.write_text(text)
        code, _, err = _run(
            capsys, "predict", "--train", str(data), "--test", str(test),
            "--lengthscale", "1", "--out", str(tmp_path / "preds.csv"),
        )
        assert code == 1
        assert err.splitlines() == [f"coxcut: error: {test}{suffix}"]

    def test_eval_perfect_and_inverted(self, tmp_path, capsys):
        truth = _gen_circles(tmp_path, capsys, name="truth.csv")
        ds = load_csv(truth)
        code, out, _ = _run(capsys, "eval", "--pred", str(truth), "--truth", str(truth))
        assert code == 0 and out.startswith("error=0.000000")
        inverted = Dataset(ds.covariates, 3 - ds.labels, 2)
        save_csv(inverted, tmp_path / "inv.csv")
        code, out, _ = _run(
            capsys, "eval", "--pred", str(tmp_path / "inv.csv"), "--truth", str(truth)
        )
        assert code == 0 and out.startswith("error=1.000000")


    def test_eval_refuses_scored_rows_without_a_prediction(self, tmp_path, capsys):
        truth = _gen_circles(tmp_path, capsys, name="truth.csv")
        masked = _gen_circles(tmp_path, capsys, labeled_per_class=5, name="masked.csv")
        for extra in ([], ["--data", str(masked)]):
            code, out, err = _run(
                capsys, "eval", "--pred", str(masked), "--truth", str(truth), *extra
            )
            assert code == 1 and out == ""
            assert err.splitlines() == [
                f"coxcut: error: {masked}: 50 scored rows have no predicted label"
            ]
        # blank rows that are not scored are fine
        m, t = load_csv(masked), load_csv(truth)
        pred = tmp_path / "pred.csv"
        save_csv(Dataset(t.covariates, np.where(m.labeled_mask, 0, t.labels), 2), pred)
        code, out, _ = _run(
            capsys, "eval", "--pred", str(pred), "--truth", str(truth), "--data", str(masked)
        )
        assert code == 0 and out.startswith("error=0.000000 scored=50 ")

    @pytest.mark.parametrize("truth_labels, data, line", [
        ("two-class", False, "error=0.500000 scored=60 wrong=30"),
        ("all-class-1", False, "error=0.000000 scored=60 wrong=0"),
        ("two-class", True, "error=0.508475 scored=59 wrong=30"),
    ], ids=["two-class-truth", "one-class-truth", "one-class-data"])
    def test_eval_scores_a_one_class_prediction(self, tmp_path, capsys, truth_labels, data,
                                                line):
        # predict may give every test point class 1; scoring compares labels only
        truth = load_csv(_gen_circles(tmp_path, capsys, name="gen.csv"))
        ones = np.ones(truth.n, dtype=np.int64)
        save_csv(Dataset(truth.covariates, ones, 2), tmp_path / "pred.csv")
        if truth_labels == "all-class-1":
            truth = Dataset(truth.covariates, ones, 2)
        save_csv(truth, tmp_path / "truth.csv")
        argv = ["eval", "--pred", str(tmp_path / "pred.csv"),
                "--truth", str(tmp_path / "truth.csv")]
        if data:  # --data labels one class-1 row, which is then not scored
            labels = np.zeros(truth.n, dtype=np.int64)
            labels[np.argmax(truth.labels == 1)] = 1
            save_csv(Dataset(truth.covariates, labels, 2), tmp_path / "masked.csv")
            argv += ["--data", str(tmp_path / "masked.csv")]
        res = subprocess.run([sys.executable, "-m", "coxcut", *argv], capture_output=True,
                             text=True, env=_module_env(), timeout=120)
        assert (res.returncode, res.stdout, res.stderr) == (0, line + "\n", "")


class TestSsl:
    def test_end_to_end_labels_and_header(self, tmp_path, capsys):
        _gen_circles(tmp_path, capsys, labeled_per_class=10, truth="truth.csv")
        code, *_ = _run(
            capsys, "ssl", "--data", str(tmp_path / "data.csv"),
            "--kernel", "se", "--lengthscale", "1", "--variance", "0.25",
            "--out", str(tmp_path / "labels.csv"),
        )
        assert code == 0
        text = (tmp_path / "labels.csv").read_text()
        assert text.startswith("# solve-mode: exact")
        assert "tie-break" in text.splitlines()[1]
        solved = load_csv(tmp_path / "labels.csv")
        assert np.all(solved.labels > 0)
        code, out, _ = _run(
            capsys, "eval", "--pred", str(tmp_path / "labels.csv"),
            "--truth", str(tmp_path / "truth.csv"), "--data", str(tmp_path / "data.csv"),
        )
        assert code == 0
        assert float(out.split()[0].split("=")[1]) <= 0.05

    def test_cell_over_the_csv_field_limit_is_one_line_error(self, tmp_path):
        data = tmp_path / "big.csv"
        data.write_text("x1,label\n1,1\n2,2\n" + "1" * 200_000 + ",\n")
        out = tmp_path / "out.csv"
        res = subprocess.run(
            [sys.executable, "-m", "coxcut", "ssl", "--data", str(data), "--lengthscale",
             "0.5", "--out", str(out)],
            capture_output=True, text=True, env=_module_env(), timeout=120,
        )
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.splitlines() == [
            f"coxcut: error: {data} row 4: field larger than field limit (131072)"
        ]
        assert not out.exists()


    def test_label_past_the_int_string_limit_is_one_short_line(self, tmp_path):
        data = tmp_path / "long.csv"
        data.write_text("x1,label\n1,1\n2,2\n3," + "9" * 5000 + "\n4,\n")
        out = tmp_path / "out.csv"
        res = subprocess.run(
            [sys.executable, "-m", "coxcut", "ssl", "--data", str(data), "--lengthscale",
             "0.5", "--out", str(out)],
            capture_output=True, text=True, env=_module_env(), timeout=120,
        )
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.splitlines() == [
            f"coxcut: error: {data} row 4: label {'9' * 40}... (5000 characters) outside {{1..Q}}"
        ]
        assert not out.exists()


@pytest.fixture(scope="module")
def oversized_ssl_csv(tmp_path_factory):
    """Two labeled points per class and 300 unlabeled 1-D points within 0.1 of each other."""
    u = 300
    x = np.random.default_rng(6).uniform(0.0, 0.1, (u + 4, 1))
    y = np.r_[1, 1, 2, 2, np.zeros(u, dtype=np.int64)]
    path = tmp_path_factory.mktemp("oversized") / "big.csv"
    save_csv(Dataset(x, y, 2), path)
    return path


class TestSiteLimit:
    """The kept-pair budget, which replaced a limit on the number of sites."""

    @pytest.mark.parametrize("command", ["ssl", "energy", "fit --ssl"])
    def test_oversized_ssl_is_one_line_error(self, oversized_ssl_csv, tmp_path, capsys,
                                             monkeypatch, command):
        def forbidden(*_, **__):
            raise AssertionError("kernel work before the pair budget was checked")

        for name in ("gram", "cross", "row_sums", "_from_sqdist"):
            monkeypatch.setattr(Kernel, name, forbidden)
        # at length scale 1 every one of the 44,850 site pairs is a candidate;
        # the budget admits 10,000 of them
        budget = 10_000 * SOLVE_BYTES_PER_PAIR
        monkeypatch.setattr(coxcut.mrf, "MAX_SOLVE_BYTES", budget)
        data = str(oversized_ssl_csv)
        argv = {
            "ssl": ["ssl", "--data", data, "--lengthscale", "1", "--out", str(tmp_path / "o.csv")],
            "energy": ["energy", "--data", data, "--lengthscale", "1",
                       "--dump", str(tmp_path / "e.json")],
            "fit --ssl": ["fit", "--train", data, "--ssl", "--folds", "2", "--grid", "0.5,1.0"],
        }[command]
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert "site pairs lie within the kernels' reach" in err
        assert err.rstrip().endswith(f"above the {budget / 1e9:.3g} GB budget; "
                                     "use a smaller --lengthscale")
        assert not any(tmp_path.iterdir())  # no output file was started


@pytest.fixture(scope="module")
def oversized_class_csv(tmp_path_factory):
    """8193 labeled points of class 1, two of class 2 and four unlabeled.

    A dense gram of class 1 would take 537 MB.
    """
    k = 8193
    x = np.random.default_rng(7).normal(0.0, 1.0, (k + 6, 1))
    y = np.r_[np.ones(k, dtype=np.int64), 2, 2, np.zeros(4, dtype=np.int64)]
    path = tmp_path_factory.mktemp("oversized-class") / "big.csv"
    save_csv(Dataset(x, y, 2), path)
    return path


class TestLargeLabeledClass:
    """The energy's constant sums strips, so a labeled class has no size limit
    of its own; the kept-pair budget is the solve's only one."""

    @pytest.mark.parametrize("command", ["ssl", "energy"])
    def test_oversized_class_runs(self, oversized_class_csv, tmp_path, capsys, command):
        data, out = str(oversized_class_csv), tmp_path / "out"
        argv = {
            "ssl": ["ssl", "--data", data, "--lengthscale", "1", "--out", str(out)],
            "energy": ["energy", "--data", data, "--lengthscale", "1", "--dump", str(out)],
        }[command]
        code, stdout, err = _run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.exists()


class TestLengthScaleRange:
    @pytest.mark.parametrize("length_scale", ["1e200", "1e-300"])
    @pytest.mark.parametrize("command", ["ssl", "predict", "fit", "fit --ssl"])
    def test_out_of_range_se_length_scale_is_one_line_error(self, tmp_path, capsys,
                                                           command, length_scale):
        data = str(_gen_circles(tmp_path, capsys, labeled_per_class=6))
        out = str(tmp_path / "out.csv")
        argv = {
            "ssl": ["ssl", "--data", data, "--lengthscale", length_scale, "--out", out],
            "predict": ["predict", "--train", data, "--test", data,
                        "--lengthscale", length_scale, "--out", out],
            "fit": ["fit", "--train", data, "--grid", f"0.5,{length_scale}", "--out", out],
            "fit --ssl": ["fit", "--train", data, "--ssl", "--folds", "2",
                          "--grid", f"0.5,{length_scale}", "--out", out],
        }[command]
        code, stdout, err = _run(capsys, *argv)
        assert code == 1 and stdout == ""
        assert err.splitlines() == [
            f"coxcut: error: se length_scale {float(length_scale)!r} is out of range: "
            "2*length_scale**2 must be a positive finite float"
        ]
        assert not (tmp_path / "out.csv").exists()


class TestKernelOverflow:
    def test_exp_length_scale_whose_divide_overflows_runs_without_warning(self, tmp_path,
                                                                         capsys):
        # every distance over 1e-320 overflows to -inf, whose exp is exactly 0
        data = str(_gen_circles(tmp_path, capsys, labeled_per_class=6))
        out = tmp_path / "out.csv"
        res = subprocess.run(
            [sys.executable, "-m", "coxcut", "ssl", "--data", data, "--kernel", "exp",
             "--lengthscale", "1e-320", "--out", str(out)],
            capture_output=True, text=True, env=_module_env(), timeout=120,
        )
        assert res.returncode == 0 and res.stderr == ""
        assert load_csv(out).labeled_mask.all()

    # the smallest subnormal, a subnormal, tiny and huge normals, and near the largest float:
    # the exp kernel takes every positive finite length scale
    @pytest.mark.parametrize("length_scale", ["5e-324", "1e-310", "1e-300", "1e300", "1.7e308"])
    def test_exp_length_scales_across_the_float_range(self, tmp_path, capsys, length_scale):
        data = str(_gen_circles(tmp_path, capsys, labeled_per_class=6))
        test = load_csv(data).unlabeled_points()  # none is a training point
        save_csv(Dataset(test, np.zeros(len(test), dtype=np.int64), 2), tmp_path / "test.csv")
        out = {name: str(tmp_path / name) for name in ("ssl", "predict", "loo", "kfold", "energy")}
        ls = ["--kernel", "exp", "--lengthscale", length_scale]
        grid = ["--kernel", "exp", "--grid", length_scale, "--train", data]
        commands = [
            ["ssl", "--data", data, *ls, "--out", out["ssl"]],
            ["predict", "--train", data, "--test", str(tmp_path / "test.csv"), *ls,
             "--out", out["predict"]],
            ["fit", *grid, "--out", out["loo"]],
            ["fit", *grid, "--ssl", "--folds", "2", "--out", out["kfold"]],
            ["energy", "--data", data, *ls, "--dump", out["energy"]],
        ]
        # one process runs the five commands; a warning or traceback on the way reaches stderr
        script = ("import json, sys; from coxcut.cli import run; "
                  "sys.exit(max(map(run, json.loads(sys.argv[1]))))")
        res = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                             capture_output=True, text=True, env=_module_env(), timeout=120)
        assert res.returncode == 0 and res.stderr == ""
        assert load_csv(out["ssl"]).labeled_mask.all()
        if length_scale == "5e-324":  # every kernel value between distinct points is 0
            with open(out["predict"], newline="") as fh:
                assert {tuple(r[:2]) for r in list(csv.reader(fh))[1:]} == {("0.5", "0.5")}
        if length_scale == "1.7e308":  # every kernel value is 1: a point's own class is short one
            with open(out["loo"], newline="") as fh:
                assert list(csv.reader(fh))[1] == ["1.7e+308", "1.0"]


def _module_env():
    """Environment for ``python -m coxcut`` that imports this checkout's sources."""
    src = str(Path(coxcut.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


class TestNonFiniteMeans:
    @pytest.mark.parametrize(("means", "bad"), [("nan,0", "nan"), ("0,inf", "inf"),
                                                ("-inf,0", "-inf")])
    @pytest.mark.parametrize("command", ["ssl", "predict", "energy"])
    def test_non_finite_mean_is_one_line_error(self, tmp_path, capsys, command, means, bad):
        data = str(_gen_circles(tmp_path, capsys, labeled_per_class=6))
        out = str(tmp_path / "out")
        argv = {
            "ssl": ["ssl", "--data", data, "--out", out],
            "predict": ["predict", "--train", data, "--test", data, "--out", out],
            "energy": ["energy", "--data", data, "--dump", out],
        }[command] + ["--lengthscale", "0.3", "--means", means]
        # a separate process, so that a solver that never returns fails the test
        res = subprocess.run([sys.executable, "-m", "coxcut", *argv], capture_output=True,
                             text=True, env=_module_env(), timeout=120)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.splitlines() == [
            f"coxcut: error: class mean must be a finite real, got {float(bad)!r}"
        ]
        assert not (tmp_path / "out").exists()


class TestOverflowingMagnitudes:
    """Means and variances whose energies or probabilities could overflow float64."""

    @staticmethod
    def _argv(command, data, out):
        return {
            "ssl": ["ssl", "--data", data, "--out", out],
            "predict": ["predict", "--train", data, "--test", data, "--out", out],
            "energy": ["energy", "--data", data, "--dump", out],
        }[command] + ["--lengthscale", "0.3"]

    @pytest.mark.parametrize(("flags", "refused"), [
        (["--variance", "1e308"], "--variance value 1e+308"),
        (["--means", "1e308,-1e308"], "--means value 1e+308"),
        # the means alone fit (2 * 61 * 1e306 < 1.8e308); with the variance they do not
        (["--means", "1e306,0", "--variance", "1e305"], "--variance value 1e+305"),
    ])
    @pytest.mark.parametrize("command", ["ssl", "predict", "energy"])
    def test_refused_with_one_line_naming_the_flag(self, tmp_path, capsys, command, flags,
                                                   refused):
        data = str(_gen_circles(tmp_path, capsys, labeled_per_class=6))
        argv = self._argv(command, data, str(tmp_path / "out")) + flags
        # a separate process, so that a warning printed on the way fails the test
        res = subprocess.run([sys.executable, "-m", "coxcut", *argv], capture_output=True,
                             text=True, env=_module_env(), timeout=120)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.splitlines() == [
            f"coxcut: error: {refused} is too large for 60 points: "
            "energies and probabilities would overflow"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["ssl", "predict", "energy"])
    def test_large_values_inside_the_bound_run_cleanly(self, tmp_path, capsys, command):
        # 2 * 61 * (1e300 + 61 * 1e300) is about 7.6e303: finite, so these run
        data = str(_gen_circles(tmp_path, capsys, labeled_per_class=6))
        out = tmp_path / "out"
        argv = self._argv(command, data, str(out)) + ["--means", "1e300,-1e300",
                                                      "--variance", "1e300"]
        res = subprocess.run([sys.executable, "-m", "coxcut", *argv], capture_output=True,
                             text=True, env=_module_env(), timeout=120)
        assert (res.returncode, res.stderr) == (0, "")
        assert "nan" not in out.read_text().lower()


class TestHugeCovariates:
    """Covariates whose squared distances would overflow float64 (|x| past about 5e153)."""

    @pytest.mark.parametrize("command", ["fit --grid", "fit", "ssl"])
    def test_refused_with_one_line_and_no_warning(self, tmp_path, command):
        data = tmp_path / "big.csv"
        data.write_text("x1,label\n1e200,1\n0,2\n1,1\n2e200,2\n3,\n")
        out = tmp_path / "out.csv"
        argv = {
            "fit --grid": ["fit", "--train", str(data), "--grid", "1,2"],
            "fit": ["fit", "--train", str(data)],
            "ssl": ["ssl", "--data", str(data), "--lengthscale", "1", "--out", str(out)],
        }[command]
        # a separate process, so that a warning printed on the way fails the test
        res = subprocess.run([sys.executable, "-m", "coxcut", *argv], capture_output=True,
                             text=True, env=_module_env(), timeout=120)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.splitlines() == [
            f"coxcut: error: {data} row 2: covariates too large, "
            "squared distances up to 4 |x|^2 overflow float64"
        ]
        assert not out.exists()


class TestAutoGridOutOfRange:
    """Covariates whose automatic grid ends fall outside the se kernel's length scales."""

    @staticmethod
    def _corners(tmp_path, scale):
        data = tmp_path / "corners.csv"
        data.write_text(f"x1,x2,label\n{scale},{scale},1\n-{scale},-{scale},2\n"
                        f"{scale},-{scale},1\n-{scale},{scale},2\n0,0,\n")
        return data

    @pytest.mark.parametrize("scale, median", [("3.3e153", "6.6e+153"),
                                               ("5e-161", "9.99994433575849e-161")])
    @pytest.mark.parametrize("ssl", [False, True], ids=["loo", "ssl"])
    def test_se_is_one_line_naming_the_median(self, tmp_path, scale, median, ssl):
        argv = ["fit", "--train", str(self._corners(tmp_path, scale))]
        argv += ["--ssl", "--folds", "2"] if ssl else []
        # a separate process, so that a warning printed on the way fails the test
        res = subprocess.run([sys.executable, "-m", "coxcut", *argv], capture_output=True,
                             text=True, env=_module_env(), timeout=120)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.splitlines() == [
            "coxcut: error: the automatic length-scale grid, 0.01 to 100 times the median "
            f"pairwise distance {median}, is out of range for the se kernel; pass --grid"
        ]

    @pytest.mark.parametrize("scale", ["3.3e153", "5e-161"])
    @pytest.mark.parametrize("ssl", [False, True], ids=["loo", "ssl"])
    def test_exp_kernel_runs_cleanly(self, tmp_path, scale, ssl):
        argv = ["fit", "--train", str(self._corners(tmp_path, scale)), "--kernel", "exp"]
        argv += ["--ssl", "--folds", "2"] if ssl else []
        res = subprocess.run([sys.executable, "-m", "coxcut", *argv], capture_output=True,
                             text=True, env=_module_env(), timeout=120)
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout.splitlines()[-1].startswith("best_lengthscale=")


class TestFit:
    def test_loo_table_and_best(self, tmp_path, capsys):
        data = _gen_circles(tmp_path, capsys)
        code, out, _ = _run(
            capsys, "fit", "--train", str(data), "--kernel", "se",
            "--grid", "0.5,1.0,2.0", "--out", str(tmp_path / "table.csv"),
        )
        assert code == 0
        assert out.strip().startswith("best_lengthscale=")
        with open(tmp_path / "table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lengthscale", "error"] and len(rows) == 4

    def test_oversized_loo_is_one_line_error(self, tmp_path, capsys):
        n = MAX_LOO_POINTS + 1
        x = np.random.default_rng(5).normal(0.0, 1.0, (n, 2))
        save_csv(Dataset(x, np.arange(n) % 2 + 1, 2), tmp_path / "big.csv")
        argv = ["fit", "--train", str(tmp_path / "big.csv"), "--grid", "0.5,1.0"]
        code, _, err = _run(capsys, *argv)
        assert code == 1
        assert len(err.splitlines()) == 1 and "--cv-subsample" in err
        code, out, _ = _run(capsys, *argv, "--cv-subsample", "200")
        assert code == 0 and "best_lengthscale=" in out

    def test_loo_rss_stays_near_a_bare_import(self, tmp_path):
        # leave-one-out and its automatic grid hold row strips, not n x n arrays: at
        # n = 4000 the distances alone would take 128 MB
        n = 4000
        x = np.random.default_rng(8).normal(0.0, 1.0, (n, 2))
        save_csv(Dataset(x, np.arange(n) % 2 + 1, 2), tmp_path / "train.csv")

        def max_rss_mb(*argv):
            proc = subprocess.Popen([sys.executable, *argv], env=_module_env(),
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            assert proc.returncode == 0
            return usage.ru_maxrss / 1024  # KB on Linux

        bare = max_rss_mb("-c", "import coxcut.cli")
        fit = max_rss_mb("-m", "coxcut", "fit", "--train", str(tmp_path / "train.csv"),
                         "--out", str(tmp_path / "table.csv"))
        assert fit - bare < 40

    @pytest.mark.parametrize("subsample", ["0", "1", "-3"])
    @pytest.mark.parametrize("ssl", [False, True])
    def test_cv_subsample_below_two_is_one_line_error(self, tmp_path, capsys, subsample, ssl):
        data = str(_gen_circles(tmp_path, capsys, labeled_per_class=6))
        out = tmp_path / "table.csv"
        argv = ["fit", "--train", data, "--grid", "0.5,1.0", "--cv-subsample", subsample,
                "--out", str(out)] + (["--ssl", "--folds", "2"] if ssl else [])
        code, stdout, err = _run(capsys, *argv)
        assert code == 1 and stdout == ""
        assert err.splitlines() == [
            f"coxcut: error: --cv-subsample must be at least 2, got {subsample}"
        ]
        assert not out.exists()

    def test_ssl_fit_runs(self, tmp_path, capsys):
        _gen_circles(tmp_path, capsys, labeled_per_class=6)
        code, out, _ = _run(
            capsys, "fit", "--train", str(tmp_path / "data.csv"), "--ssl",
            "--folds", "3", "--grid", "0.5,1.0", "--seed", "4",
        )
        assert code == 0 and "best_lengthscale=" in out


class TestEnergyDump:
    def test_json_schema(self, tmp_path, capsys):
        _gen_circles(tmp_path, capsys, labeled_per_class=3)
        code, *_ = _run(
            capsys, "energy", "--data", str(tmp_path / "data.csv"),
            "--kernel", "se", "--lengthscale", "1", "--variance", "0.25",
            "--dump", str(tmp_path / "energy.json"),
        )
        assert code == 0
        payload = json.loads((tmp_path / "energy.json").read_text())
        assert payload["num_labels"] == 2
        assert payload["num_sites"] == 54
        assert len(payload["unary"]) == payload["num_sites"]
        pair = payload["pairs"][0]
        assert set(pair) == {"i", "j", "table"}
        assert len(pair["table"]) == 2

    @pytest.mark.parametrize("radii, ls", [("1,4", "50"), ("1,2,3", "0.1")])
    def test_file_matches_the_table_form_reference_byte_for_byte(self, tmp_path, capsys,
                                                                radii, ls):
        # Q=2 with every pair kept, then Q=3 with a length scale that drops some
        data = tmp_path / "data.csv"
        _run(capsys, "gen", "--shape", "circles", "--radii", radii, "--n-per-class", "12",
             "--noise", "0.05", "--seed", "3", "--labeled-per-class", "3", "--out", str(data))
        dump = tmp_path / "energy.json"
        code, *_ = _run(capsys, "energy", "--data", str(data), "--kernel", "exp",
                        "--lengthscale", ls, "--dump", str(dump))
        assert code == 0
        ds = load_csv(data)
        models = coxcut.shared_models(ds.num_classes, Kernel("exp", 1.0, float(ls)))
        labeled = Dataset(*ds.labeled(), ds.num_classes)
        ref = build_energy_reference(models, labeled, ds.unlabeled_points())
        payload = {
            "num_sites": len(ref.unary),
            "num_labels": ds.num_classes,
            "constant": ref.constant,
            "unary": ref.unary.tolist(),
            "pairs": [{"i": int(i), "j": int(j), "table": t.tolist()}
                      for i, j, t in zip(ref.pair_i, ref.pair_j, ref.tables)],
        }
        assert dump.read_text() == json.dumps(payload, indent=1)


    @pytest.mark.parametrize("chunk", [1, 7, 1024])
    @pytest.mark.parametrize("sites", [1, 40])
    def test_streamed_pairs_match_json_dumps(self, tmp_path, capsys, monkeypatch, chunk, sites):
        # pairs written in chunks of 1, 7 (a short last chunk) and more than all
        x = np.random.default_rng(8).uniform(0.0, 1.0, (sites + 4, 2))
        y = np.r_[1, 1, 2, 2, np.zeros(sites, dtype=np.int64)]
        data, dump = tmp_path / "d.csv", tmp_path / "e.json"
        save_csv(Dataset(x, y, 2), data)
        monkeypatch.setattr(coxcut.cli, "_DUMP_PAIRS", chunk)
        code, *_ = _run(capsys, "energy", "--data", str(data), "--lengthscale", "0.3",
                        "--dump", str(dump))
        assert code == 0
        ds = load_csv(data)
        energy = coxcut.build_energy(coxcut.shared_models(2, Kernel("se", 1.0, 0.3)),
                                     Dataset(*ds.labeled(), 2), ds.unlabeled_points())
        assert (energy.num_pairs == 0) == (sites == 1)
        payload = {
            "num_sites": energy.num_sites,
            "num_labels": 2,
            "constant": energy.constant,
            "unary": energy.unary.tolist(),
            "pairs": [{"i": int(i), "j": int(j), "table": t.tolist()} for i, j, t in
                      zip(energy.pair_i, energy.pair_j, coxcut.pair_tables(energy))],
        }
        assert dump.read_text() == json.dumps(payload, indent=1)

    def test_kept_pairs_and_labels_do_not_depend_on_the_variance(self, tmp_path, capsys):
        # the cutoff is relative to C(0): with zero means, scaling the variance
        # scales the whole energy, and keeps the same pairs and the same MAP
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--shape", "helix", "--n-per-class", "150",
             "--labeled-per-class", "10", "--seed", "3", "--out", str(data))
        pairs, labels = set(), set()
        for variance in ("1e-6", "1", "1e6"):
            flags = ["--data", str(data), "--lengthscale", "0.08", "--variance", variance]
            dump, out = tmp_path / f"e{variance}.json", tmp_path / f"s{variance}.csv"
            assert _run(capsys, "energy", *flags, "--dump", str(dump))[0] == 0
            assert _run(capsys, "ssl", *flags, "--out", str(out))[0] == 0
            kept = json.loads(dump.read_text())["pairs"]
            pairs.add(tuple((p["i"], p["j"]) for p in kept))
            labels.add(load_csv(out).labels.tobytes())
        assert len(pairs) == 1 and len(labels) == 1
        assert 2000 < len(next(iter(pairs))) < 4000

    def test_memory_follows_the_pairs(self, tmp_path, capsys):
        # 300 sites and every one of their 44,850 pairs kept: a list of pair
        # objects took 570 bytes per pair (25.6 MB); streamed, the energy
        # and one chunk are held. Measured 0.81 of this bound.
        x = np.random.default_rng(6).uniform(0.0, 1.0, (304, 2))
        y = np.r_[1, 1, 2, 2, np.zeros(300, dtype=np.int64)]
        data = tmp_path / "d.csv"
        save_csv(Dataset(x, y, 2), data)
        argv = ["energy", "--data", str(data), "--lengthscale", "5",
                "--dump", str(tmp_path / "e.json")]
        assert _run(capsys, *argv)[0] == 0  # untraced first call
        tracemalloc.start()
        try:
            code = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(json.loads((tmp_path / "e.json").read_text())["pairs"]) == 44_850
        assert peak < 2.5e6 + 32 * 44_850


class TestBench:
    def test_small_bench_outputs_exponent(self, capsys):
        code, out, _ = _run(
            capsys, "bench", "--sizes", "256,512", "--test-points", "32", "--repeats", "2"
        )
        assert code == 0
        assert "exponent=" in out
        lines = out.strip().splitlines()
        assert lines[0] == "n_train,seconds_per_test_point"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--test-points", "0"], "test points must be >= 1, got 0"),
            (["--repeats", "0"], "repeats must be >= 1, got 0"),
            (["--sizes", "1"], "need at least two distinct training sizes, got [1]"),
            (["--sizes", "64,64"], "need at least two distinct training sizes, got [64, 64]"),
            (["--sizes", "0,64"], "training sizes must be >= 2, got 0"),
        ],
        ids=["zero-test-points", "zero-repeats", "one-size", "repeated-size", "zero-size"],
    )
    def test_bad_input_is_one_line_error(self, capsys, flags, message):
        code, out, err = _run(capsys, "bench", "--sizes", "64,128", *flags)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [f"coxcut: error: {message}"]

    @pytest.mark.parametrize("flags, what", [
        (["--sizes", "64,100000000"], "2 training sets of up to 100000000 points and 256 test"),
        (["--test-points", "100000000"], "4 training sets of up to 8192 points and 100000000 test"),
    ], ids=["sizes", "test-points"])
    def test_past_the_byte_guard_is_one_line_error(self, capsys, monkeypatch, flags, what):
        from coxcut import cli

        def forbidden(*_):
            raise AssertionError("points drawn past the byte guard")

        monkeypatch.setattr(cli.np.random, "default_rng", forbidden)
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, "bench", *flags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"coxcut: error: {what} points each need ")
        assert err.rstrip().endswith("GB guard; use smaller --sizes or fewer --test-points")
        assert peak < 1e6  # nothing the size of the points was allocated


def _csv_text(header, rows, comments=()):
    """CSV as every command writes it: '# ' comment lines ending in LF, rows in CRLF."""
    return "".join(f"# {c}\n" for c in comments) + "".join(
        ",".join(cells) + "\r\n" for cells in [header, *rows]
    )


class TestCsvBytes:
    """The bytes each command writes, to a file and to stdout ('-' or no --out)."""

    TRAIN = "x1,label\n0,1\n0.1,1\n5,2\n5.1,2\n"

    def test_gen(self, tmp_path, capsys):
        code, out, _ = _run(capsys, "gen", "--shape", "circles", "--radii", "1,2",
                            "--n-per-class", "3", "--seed", "2", "--labeled-per-class", "1",
                            "--out", str(tmp_path / "d.csv"), "--truth-out", str(tmp_path / "t.csv"))
        assert (code, out) == (0, "")
        truth = coxcut.gen_concentric_circles(3, [1.0, 2.0], 0.1, 2)
        masked = np.where(coxcut.stratified_mask(truth, 1, 2), truth.labels, 0)
        for name, labels in (("t.csv", truth.labels), ("d.csv", masked)):
            rows = [[*map(repr, x), str(lab) if lab else ""]
                    for x, lab in zip(truth.covariates.tolist(), labels.tolist())]
            expected = _csv_text(["x1", "x2", "label"], rows)
            assert (tmp_path / name).read_bytes() == expected.encode()

    def test_ssl(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x1,label\n0,1\n0.1,\n5,2\n5.1,\n")
        code, *_ = _run(capsys, "ssl", "--data", str(data), "--lengthscale", "1",
                        "--out", str(tmp_path / "o.csv"))
        assert code == 0
        assert (tmp_path / "o.csv").read_bytes() == (
            b"# solve-mode: exact\n# tie-break: first-found-deterministic\n"
            b"x1,label\r\n0.0,1\r\n0.1,1\r\n5.0,2\r\n5.1,2\r\n"
        )

    def test_fit(self, tmp_path, capsys):
        train = tmp_path / "t.csv"
        train.write_text(self.TRAIN)
        table = "lengthscale,error\r\n0.5,0.0\r\n1.0,0.0\r\n"
        argv = ["fit", "--train", str(train), "--grid", "0.5,1"]
        assert _run(capsys, *argv, "--out", str(tmp_path / "f.csv")) == (
            0, "best_lengthscale=1.0\n", "")
        assert (tmp_path / "f.csv").read_bytes() == table.encode()
        assert _run(capsys, *argv) == (0, table + "best_lengthscale=1.0\n", "")

    def test_predict(self, tmp_path, capsys):
        train = tmp_path / "t.csv"
        train.write_text(self.TRAIN)
        test = tmp_path / "q.csv"
        test.write_text("x1\n-1\n2.5\n7\n")
        models = coxcut.shared_models(2, Kernel("se", 1.0, 1.0))
        probs = coxcut.predict_proba_batch(models, load_csv(train), [[-1.0], [2.5], [7.0]])
        labels = coxcut.predict_labels(probs)
        expected = _csv_text(["prob_1", "prob_2", "label"],
                             [[*map(repr, p), str(lab)]
                              for p, lab in zip(probs.tolist(), labels.tolist())])
        argv = ["predict", "--train", str(train), "--test", str(test), "--lengthscale", "1"]
        assert _run(capsys, *argv, "--out", str(tmp_path / "p.csv")) == (0, "", "")
        assert (tmp_path / "p.csv").read_bytes() == expected.encode()
        assert _run(capsys, *argv, "--out", "-") == (0, expected, "")

    def test_simulate(self, tmp_path, capsys):
        window = coxcut.Window(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), 3)
        field = coxcut.sample_gp_field(0.0, Kernel("se", 1.0, 1.0), window, 4)
        points = coxcut.sample_poisson_points(field, 5)
        field_text = _csv_text(["x1", "x2", "intensity"],
                               [[repr(float(v)) for v in (*c, i)]
                                for c, i in zip(field.centers, field.intensity)])
        points_text = _csv_text(["x1", "x2"], [[repr(float(v)) for v in p] for p in points])
        argv = ["simulate", "--window", "-1,-1,1,1", "--grid", "3", "--seed", "4"]
        code, *_ = _run(capsys, *argv, "--out-field", str(tmp_path / "f.csv"),
                        "--out-points", str(tmp_path / "p.csv"))
        assert code == 0
        assert (tmp_path / "f.csv").read_bytes() == field_text.encode()
        assert (tmp_path / "p.csv").read_bytes() == points_text.encode()
        assert _run(capsys, *argv, "--out-field", "-", "--out-points", "-") == (
            0, field_text + points_text, "")

    def test_bench(self, capsys):
        code, out, err = _run(capsys, "bench", "--sizes", "16,32", "--test-points", "4",
                              "--repeats", "1")
        assert (code, err) == (0, "")
        rows = out.split("\r\n")
        assert rows[0] == "n_train,seconds_per_test_point"
        times = [r.split(",") for r in rows[1:3]]
        assert [n for n, _ in times] == ["16", "32"]
        assert out == _csv_text(rows[0].split(","), times) + rows[3]
        assert rows[3].startswith("exponent=") and rows[3].endswith("\n")
        assert all(repr(float(t)) == t for _, t in times)


class TestFastReader:
    """Every file the CLI writes loads through numpy's C parser, never the reference reader."""

    def test_cli_files_load_without_the_reference_reader(self, tmp_path, capsys, monkeypatch):
        def reference_reader(path):
            raise AssertionError(f"the reference reader ran on {path}")

        monkeypatch.setattr(coxcut.data, "_read_rows", reference_reader)
        data = _gen_circles(tmp_path, capsys, labeled_per_class=5, truth="truth.csv")
        saved = tmp_path / "saved.csv"  # '# ' comments, blank labels and CRLF line ends
        save_csv(load_csv(data), saved, comments=["solve-mode: exact", 'a,"b'])
        assert b",\r\n" in saved.read_bytes()
        out = {name: str(tmp_path / f"{name}.csv") for name in ("ssl", "predict", "helix")}
        for argv in (
            ["gen", "--shape", "helix", "--n-per-class", "20", "--labeled-per-class", "3",
             "--out", out["helix"]],
            ["ssl", "--data", str(data), "--lengthscale", "0.5", "--out", out["ssl"]],
            ["predict", "--train", str(saved), "--test", str(data), "--lengthscale", "0.5",
             "--out", out["predict"]],
            ["eval", "--pred", out["ssl"], "--truth", str(tmp_path / "truth.csv"),
             "--data", str(data)],
            ["fit", "--train", str(data), "--grid", "0.5,1", "--folds", "2", "--ssl"],
            ["simulate", "--window", "-1,-1,1,1", "--grid", "8", "--lengthscale", "1",
             "--seed", "7", "--out-field", str(tmp_path / "field.csv"),
             "--out-points", str(tmp_path / "points.csv")],
        ):
            code, _, err = _run(capsys, *argv)
            assert (code, err) == (0, ""), argv
        q_max = int(np.iinfo(np.int64).max)
        for path in (data, tmp_path / "truth.csv", saved, *out.values()):
            got = load_csv(path, num_classes=q_max)
            expected = load_csv_reference(path, num_classes=q_max)
            assert got.covariates.tobytes() == expected.covariates.tobytes()
            assert got.labels.tolist() == expected.labels.tolist()
        for path in (data, tmp_path / "field.csv", tmp_path / "points.csv"):
            got = load_covariates(path)
            assert got.tobytes() == load_covariates_reference(path).tobytes() and len(got)


_COMMAND_NAMES = ["gen", "simulate", "fit", "predict", "ssl", "eval", "bench", "energy"]


class TestPerCommandParser:
    """run() adds only the invoked command's arguments; what it prints must not change."""

    @staticmethod
    def _full_parser_outcome(capsys, argv):
        from coxcut.cli import _build_parser, _fold_negative_values

        try:
            _build_parser().parse_args(_fold_negative_values(list(argv)))
            code = 0
        except SystemExit as e:
            code = int(e.code or 0)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # every argv here stops in the parser: help, a missing or bad flag, an unknown command
    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h"], ["frobnicate"], ["frobnicate", "--help"], ["--bogus"],
        ["fi"], ["gen", "--bogus"], ["fit", "--train"], ["fit", "gen"],
        ["bench", "--repeats", "x"], ["simulate", "--window", "-1,-1,1,1"],
        ["ssl", "--means", "-1,1"],
        *([c, "--help"] for c in _COMMAND_NAMES),
        *([c] for c in _COMMAND_NAMES if c != "bench"),
    ], ids=str)
    def test_same_output_and_exit_code_as_the_full_parser(self, capsys, argv):
        expected = self._full_parser_outcome(capsys, argv)
        assert expected[0] in (0, 2)
        assert _run(capsys, *argv) == expected

    def test_only_the_invoked_command_gets_arguments(self, capsys):
        from coxcut.cli import _build_parser

        with pytest.raises(SystemExit):
            _build_parser("ssl").parse_args(["fit", "--help"])
        assert "--train" not in capsys.readouterr().out
        with pytest.raises(SystemExit):
            _build_parser("ssl").parse_args(["ssl", "--help"])
        assert "--data" in capsys.readouterr().out


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["gen", "--bogus"]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_file_is_runtime_error(self, capsys):
        code = run(["fit", "--train", "/nonexistent.csv"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_memory_error_is_one_line_naming_the_command(self, tmp_path, capsys, monkeypatch):
        from coxcut import cli

        def exhausted(args):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "_cmd_gen", exhausted)
        code, out, err = _run(capsys, "gen", "--shape", "circles", "--out",
                              str(tmp_path / "d.csv"))
        assert code == 1 and out == ""
        assert err.splitlines() == ["coxcut: error: gen ran out of memory"]

    def test_console_entry_point(self):
        res = subprocess.run(["coxcut", "--help"], capture_output=True, text=True)
        assert res.returncode == 0
        assert "coxcut" in res.stdout

    def test_python_dash_m_runs_the_cli(self):
        env = _module_env()
        res = subprocess.run(
            [sys.executable, "-m", "coxcut", "--help"], capture_output=True, text=True, env=env
        )
        assert res.returncode == 0
        assert "coxcut" in res.stdout
        res = subprocess.run(
            [sys.executable, "-m", "coxcut", "frobnicate"], capture_output=True, text=True, env=env
        )
        assert res.returncode == 2
