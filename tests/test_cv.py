import tracemalloc

import numpy as np
import pytest
from _reference_loo import loo_cv_reference

from coxcut import (
    Dataset,
    default_lengthscale_grid,
    gen_concentric_circles,
    gen_double_helix,
    kfold_cv_ssl,
    loo_cv,
    partition,
    predict_labels,
    predict_proba_batch,
    shared_models,
    ssl_solve,
    Kernel,
)


def _clusters(n=20, gap=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.3, (n, 2))
    b = rng.normal(gap, 0.3, (n, 2))
    return Dataset(np.vstack([a, b]), np.r_[np.ones(n, np.int64), np.full(n, 2, np.int64)], 2)


class TestLooCv:
    def test_separated_clusters_reach_zero_error(self):
        train = _clusters()
        best, table = loo_cv(train, "se", [0.1, 1.0, 30.0])
        assert table[:, 1].min() == 0.0
        assert best in (0.1, 1.0, 30.0)

    def test_single_value_grid_returned(self):
        best, table = loo_cv(_clusters(), "se", [0.7])
        assert best == 0.7 and table.shape == (1, 2)

    def test_conflicting_duplicates_bound_error(self):
        # 5 duplicated points with opposite labels: at least one per pair errs
        pts = np.repeat(np.random.default_rng(1).normal(0, 1, (5, 2)), 2, axis=0)
        labels = np.tile([1, 2], 5)
        train = Dataset(pts, labels, 2)
        _, table = loo_cv(train, "se", [0.5, 1.0])
        assert np.all(table[:, 1] >= 5 / 10)

    def test_single_class_dataset_zero_error(self):
        x = np.random.default_rng(2).normal(0, 1, (8, 2))
        train = Dataset(x, np.ones(8, np.int64), 2)
        _, table = loo_cv(train, "se", [0.3, 1.0, 3.0])
        assert np.all(table[:, 1] == 0.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            loo_cv(_clusters(), "se", [])

    def test_needs_two_points(self):
        one = Dataset(np.zeros((1, 1)), np.array([1]), 2)
        with pytest.raises(ValueError, match="two"):
            loo_cv(one, "se", [1.0])

    def test_tie_breaks_to_largest(self):
        best, table = loo_cv(_clusters(), "se", [0.5, 1.0, 2.0])
        tied = table[table[:, 1] == table[:, 1].min(), 0]
        assert best == tied.max()

    def test_errors_in_unit_interval_and_best_in_grid(self):
        rng = np.random.default_rng(3)
        train = Dataset(rng.normal(0, 1, (25, 2)), rng.integers(1, 3, 25), 2)
        grid = [0.2, 0.6, 1.5]
        best, table = loo_cv(train, "exp", grid)
        assert np.all((0 <= table[:, 1]) & (table[:, 1] <= 1))
        assert best in grid


def _circles_auto(n):
    return gen_concentric_circles(n // 2, (1.0, 2.0), 0.3, 11), None


def _helix_grid(n):
    return gen_double_helix(n // 2, 1.0, 1.5, 2.0, 0.1, 12), np.geomspace(0.02, 5.0, 9)


def _duplicates_auto(n):
    # every point appears twice, with independent labels among three classes
    rng = np.random.default_rng(13)
    x = np.repeat(rng.normal(0.0, 1.0, (n // 2, 2)), 2, axis=0)
    return Dataset(x, rng.integers(1, 4, n), 3), None


def _single_class_grid(n):
    x = np.random.default_rng(14).normal(0.0, 1.0, (n, 3))
    return Dataset(x, np.ones(n, np.int64), 2), [0.05, 0.3, 1.0, 3.0]


class TestLooMatchesReference:
    """The distance-reusing loo_cv against one fresh gram per grid value."""

    @pytest.mark.parametrize("family", ["se", "exp"])
    @pytest.mark.parametrize(
        "make, n",
        [(_circles_auto, 600), (_helix_grid, 1500), (_duplicates_auto, 500),
         (_single_class_grid, 800)],
        ids=["circles-auto", "helix-grid", "duplicates-auto", "single-class"],
    )
    def test_tables_bit_identical(self, make, n, family):
        train, grid = make(n)
        best, table = loo_cv(train, family, grid)
        ref_best, ref_table = loo_cv_reference(train, family, grid)
        assert np.array_equal(table, ref_table)
        assert best == ref_best

    def test_peak_memory_is_two_matrices(self):
        n = 1500
        train, grid = _helix_grid(n)
        tracemalloc.start()
        try:
            loo_cv(train, "se", grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8


class TestGridValidatedBeforeWork:
    # 1e200 is a positive finite float, but 2 * 1e200**2 overflows the se kernel
    def test_loo_refuses_late_bad_value_before_any_distance(self, monkeypatch):
        from coxcut import cv

        calls = []
        monkeypatch.setattr(cv, "sym_sq_dists", lambda x: calls.append(x) or 1 / 0)
        with pytest.raises(ValueError, match="out of range"):
            loo_cv(_clusters(), "se", [0.5, 1.0, 1e200])
        assert calls == []

    def test_kfold_refuses_late_bad_value_before_any_solve(self, monkeypatch):
        from coxcut import cv

        calls = []
        monkeypatch.setattr(cv, "ssl_solve", lambda *a: calls.append(a) or 1 / 0)
        labeled, heldout = TestKfoldCvSsl()._instance()
        with pytest.raises(ValueError, match="out of range"):
            kfold_cv_ssl(labeled, heldout.covariates, 2, "se", [0.5, 1e200], seed=0)
        assert calls == []


class TestKfoldCvSsl:
    def _instance(self, seed=0):
        ds = gen_double_helix(40, 1.0, 1.5, 2.0, 0.04, 777)
        labeled, heldout = partition(ds, 6, seed)
        return labeled, heldout

    def test_deterministic_given_seed(self):
        labeled, heldout = self._instance()
        grid = [0.15, 0.6]
        a = kfold_cv_ssl(labeled, heldout.covariates, 3, "se", grid, seed=5)
        b = kfold_cv_ssl(labeled, heldout.covariates, 3, "se", grid, seed=5)
        assert a[0] == b[0] and np.array_equal(a[1], b[1])

    def test_k_equal_to_labeled_count_is_leave_one_out(self):
        labeled, heldout = self._instance()
        best, table = kfold_cv_ssl(labeled, heldout.covariates, labeled.n, "se", [0.15], seed=1)
        assert best == 0.15 and table.shape == (1, 2)

    def test_k_larger_than_labeled_count_rejected(self):
        labeled, heldout = self._instance()
        with pytest.raises(ValueError, match="labeled"):
            kfold_cv_ssl(labeled, heldout.covariates, labeled.n + 1, "se", [0.2], seed=0)

    def test_helix_selected_scale_beats_supervised(self):
        # semi-supervised solve at the selected scale should not lose to the
        # supervised rule on the same partitions
        ds = gen_double_helix(60, 1.0, 1.5, 2.0, 0.04, 777)
        labeled0, heldout0 = partition(ds, 4, 3)
        best, _ = kfold_cv_ssl(
            labeled0, heldout0.covariates, 4, "se", [0.1, 0.15, 0.3, 0.9], seed=3
        )
        ssl_errs, sup_errs = [], []
        models = shared_models(2, Kernel("se", 1.0, best))
        for seed in range(5):
            labeled, heldout = partition(ds, 4, 50 + seed)
            sol = ssl_solve(models, labeled, heldout.covariates)
            ssl_errs.append(np.mean(sol != heldout.labels))
            sup = predict_labels(predict_proba_batch(models, labeled, heldout.covariates))
            sup_errs.append(np.mean(sup != heldout.labels))
        assert np.mean(ssl_errs) <= np.mean(sup_errs)


class TestDefaultGrid:
    def test_grid_shape_and_span(self):
        x = np.random.default_rng(0).normal(0, 1, (50, 2))
        grid = default_lengthscale_grid(x)
        assert len(grid) == 16
        assert np.all(np.diff(grid) > 0)
        d = np.linalg.norm(x[:, None] - x[None, :], axis=-1)
        med = np.median(d[np.triu_indices(50, 1)])
        assert grid[0] == pytest.approx(0.01 * med, rel=1e-9)
        assert grid[-1] == pytest.approx(100 * med, rel=1e-9)
