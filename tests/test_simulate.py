import math

import numpy as np
import pytest

from coxcut import (
    ClassModel,
    IntensityField,
    Kernel,
    Window,
    log_product_density,
    sample_gp_field,
    sample_poisson_points,
    thin,
)
from coxcut.simulate import MAX_FIELD_BYTES, _cholesky_with_jitter


def _unit_kernel(ls=1.0):
    return Kernel("se", 1.0, ls)


class TestWindow:
    def test_cell_centers_1d(self):
        w = Window(np.array([0.0]), np.array([2.0]), 2)
        assert np.allclose(w.cell_centers().ravel(), [0.5, 1.5])

    def test_degenerate_corners_rejected(self):
        with pytest.raises(ValueError, match="corner"):
            Window(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 4)

    def test_cell_guard(self):
        w = Window(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 101)
        with pytest.raises(ValueError, match="guard"):
            sample_gp_field(0.0, _unit_kernel(), w, 0)

    @pytest.mark.parametrize("cells, dim", [(4730, 1), (69, 2), (10_000, 1)])
    def test_byte_guard_refuses_before_any_matrix(self, cells, dim, monkeypatch):
        # three cells x cells float64 matrices must fit in MAX_FIELD_BYTES (4729 cells)
        def no_gram(self, points):
            raise AssertionError("gram evaluated")

        monkeypatch.setattr(Kernel, "gram", no_gram)
        w = Window(np.zeros(dim), np.ones(dim), cells)
        with pytest.raises(ValueError, match=r"cells per axis \(--grid\)$"):
            sample_gp_field(0.0, _unit_kernel(), w, 0)
        assert 3 * 8 * w.num_cells**2 > MAX_FIELD_BYTES >= 3 * 8 * 4729**2


class TestGpField:
    def test_vanishing_variance_gives_constant_exp_mean(self):
        w = Window(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), 5)
        field = sample_gp_field(0.7, Kernel("se", 1e-12, 1.0), w, seed=0)
        assert np.allclose(field.intensity, math.exp(0.7), rtol=1e-4)

    def test_log_field_mean_matches_gp_mean(self):
        # Monte-Carlo oracle: per-seed means of log intensity vs 0
        w = Window(np.array([-2.0, -2.0]), np.array([2.0, 2.0]), 6)
        k = _unit_kernel()
        means = [np.log(sample_gp_field(0.0, k, w, seed=s).intensity).mean() for s in range(200)]
        means = np.asarray(means)
        se = means.std(ddof=1) / np.sqrt(len(means))
        assert abs(means.mean()) <= 3 * se

    def test_field_statistics_match_kernel(self):
        # zero mean, unit variance and length scale: marginal log-intensity
        # variance should be around 1 across seeds
        w = Window(np.array([-3.0, -3.0]), np.array([3.0, 3.0]), 8)
        k = _unit_kernel()
        logs = np.concatenate(
            [np.log(sample_gp_field(0.0, k, w, seed=s).intensity) for s in range(120)]
        )
        assert abs(logs.mean()) < 0.1
        assert 0.8 < logs.var() < 1.2
        pts = sample_poisson_points(sample_gp_field(0.0, k, w, seed=0), seed=1)
        assert pts.ndim == 2 and pts.shape[1] == 2

    def test_determinism(self):
        w = Window(np.array([0.0]), np.array([1.0]), 8)
        a = sample_gp_field(0.0, _unit_kernel(), w, seed=4).intensity
        b = sample_gp_field(0.0, _unit_kernel(), w, seed=4).intensity
        assert np.array_equal(a, b)

    def test_jitter_raised_in_place_factors_k_plus_jitter_identity(self):
        # one eigenvalue is about -1e-8: the jitter climbs from 1e-10 to 1e-7
        k0 = np.array([[1.0, 1.0 + 1e-8], [1.0 + 1e-8, 1.0]])
        chol = _cholesky_with_jitter(k0.copy(), 1.0)
        assert np.array_equal(chol, np.linalg.cholesky(k0 + 1e-7 * np.eye(2)))

    def test_factorization_failure_reports_jitter(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(RuntimeError, match="jitter"):
            _cholesky_with_jitter(bad, 1.0)


class TestPoissonPoints:
    def _constant_field(self, lam, cells=10):
        centers = (np.arange(cells, dtype=float)[:, None] + 0.5) / cells
        return IntensityField(centers, np.full(cells, lam), np.array([1.0 / cells]))

    def test_zero_field_empty(self):
        field = self._constant_field(0.0)
        pts = sample_poisson_points(field, seed=0)
        assert pts.shape == (0, 1)

    def test_mean_count_matches_rate(self):
        # Poisson moment oracle: unit-volume window, rate 50
        lam = 50.0
        field = self._constant_field(lam)
        counts = [len(sample_poisson_points(field, seed=s)) for s in range(1000)]
        tol = 3 * math.sqrt(lam / 1000)
        assert abs(np.mean(counts) - lam) <= tol

    def test_disjoint_halves_independent(self):
        field = self._constant_field(40.0)
        left, right = [], []
        for s in range(1000):
            pts = sample_poisson_points(field, seed=s)[:, 0]
            left.append(np.sum(pts < 0.5))
            right.append(np.sum(pts >= 0.5))
        r = np.corrcoef(left, right)[0, 1]
        assert abs(r) <= 3 / math.sqrt(1000)

    def test_points_inside_cells(self):
        field = self._constant_field(30.0, cells=4)
        pts = sample_poisson_points(field, seed=3)
        assert np.all((pts >= 0.0) & (pts <= 1.0))


class TestThin:
    def test_identity_and_empty(self):
        pts = np.random.default_rng(0).normal(0, 1, (50, 2))
        assert np.array_equal(thin(pts, 1.0, seed=1), pts)
        assert thin(pts, 0.0, seed=1).shape == (0, 2)

    def test_keep_rate_binomial(self):
        pts = np.zeros((1000, 2))
        kept = np.mean([len(thin(pts, 0.3, seed=s)) for s in range(50)])
        assert abs(kept - 300) <= 3 * math.sqrt(1000 * 0.3 * 0.7)

    def test_composition_is_product_thinning(self):
        pts = np.zeros((1000, 1))
        g1, g2 = 0.6, 0.5
        kept = np.mean([len(thin(thin(pts, g1, seed=s), g2, seed=s + 1)) for s in range(50)])
        expect = 1000 * g1 * g2
        assert abs(kept - expect) <= 3 * math.sqrt(1000 * g1 * g2 * (1 - g1 * g2))

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError, match="probability"):
            thin(np.zeros((1, 1)), 1.5)


class TestLogProductDensity:
    def test_single_point(self):
        m = ClassModel(0.3, Kernel("se", 2.0, 1.0))
        v = log_product_density(m, np.array([[1.0, 1.0]]))
        assert v == pytest.approx(0.3 + 1.0, abs=1e-15)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        m = ClassModel(-0.2, Kernel("exp", 0.7, 1.3))
        pts = rng.normal(0, 1, (6, 2))
        v = log_product_density(m, pts)
        for _ in range(5):
            assert log_product_density(m, rng.permutation(pts)) == pytest.approx(v, abs=1e-12)

    def test_two_point_hand_value(self):
        m = ClassModel(0.0, _unit_kernel())
        v = log_product_density(m, np.array([[0.0], [1.0]]))
        # half the 2x2 covariance sum: (1 + 1 + 2 exp(-1/2)) / 2
        assert v == pytest.approx(1.0 + math.exp(-0.5), abs=1e-14)

    def test_mean_shift_adds_k_times_c(self):
        pts = np.random.default_rng(1).normal(0, 1, (5, 2))
        k = _unit_kernel()
        base = log_product_density(ClassModel(0.0, k), pts)
        shifted = log_product_density(ClassModel(0.4, k), pts)
        assert shifted - base == pytest.approx(5 * 0.4, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            log_product_density(ClassModel(0.0, _unit_kernel()), np.empty((0, 2)))
