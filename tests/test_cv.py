import tracemalloc

import numpy as np
import pytest
from _reference_grid import default_lengthscale_grid_reference
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
from coxcut.cv import _median_distance
from coxcut.kernels import sym_sq_dists


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
    """The strip-wise loo_cv against one fresh gram per grid value."""

    @pytest.mark.parametrize("family", ["se", "exp"])
    @pytest.mark.parametrize(
        "make, n",
        [(_circles_auto, 600), (_helix_grid, 1500), (_duplicates_auto, 500),
         (_single_class_grid, 800), (_circles_auto, 2100)],
        ids=["circles-auto", "helix-grid", "duplicates-auto", "single-class",
             "circles-auto-subsampled-median"],
    )
    def test_tables_bit_identical(self, make, n, family):
        train, grid = make(n)
        best, table = loo_cv(train, family, grid)
        ref_best, ref_table = loo_cv_reference(train, family, grid)
        assert np.array_equal(table, ref_table)
        assert best == ref_best

    @staticmethod
    def _peak_bytes(train, grid):
        tracemalloc.start()
        try:
            loo_cv(train, "se", grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_is_one_matrix(self):
        # the distances, one kernel strip and the per-class sums
        n = 1500
        assert self._peak_bytes(*_helix_grid(n)) <= 1.25 * n * n * 8

    def test_peak_memory_with_auto_grid(self):
        # the median is selected from the same distances without copying them
        n = 1500
        train, _ = _helix_grid(n)
        assert self._peak_bytes(train, None) <= 1.25 * n * n * 8


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

    # 3 and 4 points give odd and even pair counts (3 and 6); 2100 > 2048 is subsampled
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 50, 301, 2100])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_bit_identical_to_full_matrix_median(self, n, dim):
        rng = np.random.default_rng(n + dim)
        x = rng.normal(0, 2, (n, dim))
        x[: n // 3] = x[rng.integers(0, n, n // 3)]  # zero distances between duplicates
        for seed in (0, 1):
            assert np.array_equal(
                default_lengthscale_grid(x, seed=seed),
                default_lengthscale_grid_reference(x, seed=seed),
            )

    @staticmethod
    def _orders(size, shuffles):
        a = np.arange(size, dtype=np.float64)
        yield from (a, a[::-1], np.r_[a[0::2], a[1::2][::-1]])  # sorted, reversed, organ pipe
        for seed in range(shuffles):
            yield np.random.default_rng(seed).permutation(a)

    # 1081 and 1225 pairs are odd counts, 1128, 1176 and 19900 even; a selection
    # that partitions one place off the middle leaves the middle out of order in
    # some of these layouts
    # 601 and 602 points are past one strip's rows, so the strips carry most pairs
    @pytest.mark.parametrize(
        "m, shuffles",
        [(47, 0), (48, 200), (49, 200), (50, 0), (200, 0), (601, 3), (602, 3)],
    )
    def test_median_distance_of_every_triangle_layout(self, m, shuffles):
        upper = np.triu_indices(m, 1)
        for vals in self._orders(len(upper[0]), shuffles):
            d2 = np.zeros((m, m))
            d2[upper] = vals
            d2.T[upper] = vals
            assert _median_distance(d2) == float(np.median(np.sqrt(vals)))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_all_distances_zero_fall_back_to_unit_median(self, n):
        x = np.full((n, 2), 0.3)
        grid = default_lengthscale_grid(x)
        assert np.array_equal(grid, default_lengthscale_grid_reference(x))
        assert grid[0] == pytest.approx(0.01) and grid[-1] == pytest.approx(100.0)

    def test_peak_memory_above_the_subsample_size(self):
        # one matrix of the 2048 sampled points; the median copies no triangle
        x = np.random.default_rng(5).normal(0.0, 1.0, (3000, 3))
        tracemalloc.start()
        try:
            default_lengthscale_grid(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2048 * 2048 * 8


def _triangle_median(d2):
    vals = d2[np.triu_indices(len(d2), 1)]
    return float(np.median(np.sqrt(vals))) if vals.size else 0.0


class TestMedianDistance:
    """The bracketed selection against np.median of the roots of the whole triangle."""

    @staticmethod
    def _points(n, layout, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 2.0, (n, 2))
        if layout == "half-duplicated":
            x[: n // 2] = x[rng.integers(n // 2, n, n // 2)]
        elif layout == "all-equal":
            x[:] = 0.3
        elif layout == "integer-grid":  # few distinct distances, many ties at every value
            x = rng.integers(0, 3, (n, 2)).astype(np.float64)
        return x

    # odd pair counts at n = 2, 3, 6, 7, 302; even at 4, 5, 300, 301, 1000
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 300, 301, 302, 1000])
    @pytest.mark.parametrize("layout", ["random", "half-duplicated", "all-equal", "integer-grid"])
    def test_matches_median_of_roots(self, n, layout):
        d2 = sym_sq_dists(self._points(n, layout, n))
        assert _median_distance(d2) == _triangle_median(d2)

    @staticmethod
    def _spy_on_passes(monkeypatch):
        """Record how many values each bracket pass gathers; stop after 20 passes."""
        from coxcut import cv

        gathered = []
        real = cv._bracket_pass

        def spy(*args):
            assert len(gathered) < 20, "the bracket kept widening"
            result = real(*args)
            gathered.append(len(result[2]))
            return result

        monkeypatch.setattr(cv, "_bracket_pass", spy)
        return gathered

    @pytest.mark.parametrize("n", [300, 301])
    def test_all_equal_points_take_one_pass_and_gather_nothing(self, n, monkeypatch):
        gathered = self._spy_on_passes(monkeypatch)
        assert _median_distance(sym_sq_dists(self._points(n, "all-equal", 0))) == 0.0
        assert gathered == [0]

    def test_a_middle_rank_opening_a_tie_run_is_counted_not_gathered(self, monkeypatch):
        # 601 points: 180300 pairs, middle ranks 90149 and 90150; the 90150
        # smallest values are distinct, and rank 90150 opens a run of 90150 ties
        n = 601
        upper = np.triu_indices(n, 1)
        vals = np.r_[np.arange(1.0, 90151.0), np.full(90150, 1e6)]
        vals = np.random.default_rng(7).permutation(vals)
        d2 = np.zeros((n, n))
        d2[upper] = vals
        d2.T[upper] = vals
        gathered = self._spy_on_passes(monkeypatch)
        assert _median_distance(d2) == _triangle_median(d2)
        assert max(gathered) < 90150

    @staticmethod
    def _misleading(n, lower, seed):
        # upper triangle drawn from few distinct values; the lower triangle,
        # which the bracket's sample also reads, pulls the sample away from it
        rng = np.random.default_rng(seed)
        d2 = rng.integers(0, 40, (n, n)).astype(np.float64) ** 2
        below = np.tril_indices(n, -1)
        d2[below] = {"zeros": 0.0, "huge": 1e300}.get(lower, np.nan)
        if lower == "mirror-shuffled":
            d2[below] = rng.permutation(d2.T[below])
        np.fill_diagonal(d2, 0.0)
        return d2

    @pytest.mark.parametrize("lower", ["zeros", "huge", "mirror-shuffled"])
    @pytest.mark.parametrize("n", [700, 701, 1200])
    def test_exact_when_the_sample_misses(self, n, lower, monkeypatch):
        gathered = self._spy_on_passes(monkeypatch)
        d2 = self._misleading(n, lower, n)
        assert _median_distance(d2) == _triangle_median(d2)
        if lower != "mirror-shuffled":  # a sample from the lower half must widen the bracket
            assert len(gathered) > 1

    @pytest.mark.parametrize("nan_share", [0.2, 0.6])
    def test_overflowing_distances_sort_like_a_partition(self, nan_share):
        # coordinates near 1e200 overflow to inf and NaN squared distances;
        # the result is still the middle of the triangle sorted with NaN last
        n = 801
        upper = np.triu_indices(n, 1)
        rng = np.random.default_rng(6)
        vals = rng.choice([1.0, 2.0, np.inf, np.nan], len(upper[0]), p=[0.2, 0.2, 0.6 - nan_share, nan_share])
        d2 = np.zeros((n, n))
        d2[upper] = vals
        d2.T[upper] = vals
        vals = np.sort(vals)
        half = len(vals) // 2
        mid = vals[half : half + 1] if len(vals) % 2 else vals[half - 1 : half + 1]
        assert np.array_equal(_median_distance(d2), np.mean(np.sqrt(mid)), equal_nan=True)

    def test_copies_less_than_a_tenth_of_the_matrix(self):
        n = 2000
        d2 = sym_sq_dists(self._points(n, "random", 0))
        tracemalloc.start()
        try:
            _median_distance(d2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * n * n * 8
