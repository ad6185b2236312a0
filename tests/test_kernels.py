import math
import re

import numpy as np
import pytest

from _reference_kernels import closed_form, row_sums_reference, sq_dists
from coxcut import Kernel
from coxcut.mrf import PAIR_CUTOFF
from coxcut.kernels import (
    STRIP_ELEMENTS,
    _CHUNK,
    _EXP_ZERO,
    _SUM_TILE,
    sym_sq_dists,
    upper_strips,
)


def test_se_at_zero_is_signal_variance():
    assert Kernel("se", 1.0, 1.0).eval([0.0, 0.0]) == 1.0
    assert Kernel("se", 0.7, 2.0).eval(np.zeros(3)) == 0.7


def test_se_closed_form():
    # signal std 0.5
    k = Kernel("se", 0.25, 1.0)
    assert k.eval([1.0, 0.0]) == pytest.approx(0.25 * math.exp(-0.5), rel=0, abs=1e-16)


def test_exponential_closed_form():
    k = Kernel("exponential", 1.0, 2.0)
    assert k.eval([0.0, 2.0]) == pytest.approx(math.exp(-1.0), rel=0, abs=1e-16)


def test_long_family_names_are_aliases():
    assert Kernel("squared-exponential").family == "se"
    assert Kernel("exponential").family == "exp"


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="family"):
        Kernel("matern", 1.0, 1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_nonpositive_parameters_rejected(bad):
    with pytest.raises(ValueError):
        Kernel("se", bad, 1.0)
    with pytest.raises(ValueError):
        Kernel("se", 1.0, bad)


@pytest.mark.parametrize("length_scale", [1e200, 1.3e154, 1e-300, 1e-162, 5e-324])
def test_se_length_scale_out_of_float_range_rejected(length_scale):
    # 2 l^2 overflows (or raises OverflowError in l**2) or underflows to 0
    with pytest.raises(ValueError, match=re.escape(f"se length_scale {length_scale!r} is out")):
        Kernel("se", 1.0, length_scale)


@pytest.mark.parametrize("length_scale", [9.4e153, 1e-150])
def test_se_length_scale_at_float_range_edges_evaluates(length_scale):
    g = Kernel("se", 1.0, length_scale).gram([[0.0], [1.0], [2.0]])
    assert np.all(np.isfinite(g)) and np.all(np.diag(g) == 1.0)


@pytest.mark.parametrize("length_scale", [1e200, 1e-300])
def test_exp_length_scale_range_is_unrestricted(length_scale):
    g = Kernel("exp", 1.0, length_scale).gram([[0.0], [1.0]])
    assert np.all(np.isfinite(g)) and np.all(np.diag(g) == 1.0)


def test_non_finite_displacement_rejected():
    k = Kernel("se")
    for bad in ([np.nan, 0.0], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="non-finite"):
            k.eval(bad)


def test_eval_bounds_and_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(200):
        fam = "se" if rng.random() < 0.5 else "exp"
        k = Kernel(fam, float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3)))
        s = rng.normal(0, 3, size=rng.integers(1, 5))
        v = k.eval(s)
        assert 0.0 <= v <= k.signal_variance
        assert v == k.eval(-s)


def test_gram_single_point():
    k = Kernel("exp", 0.5, 1.0)
    g = k.gram(np.array([[1.0, 2.0]]))
    assert g.shape == (1, 1) and g[0, 0] == 0.5


def test_gram_identical_points():
    g = Kernel("se", 1.0, 1.0).gram(np.array([[0.3, -0.7], [0.3, -0.7]]))
    assert np.array_equal(g, np.ones((2, 2)))


def test_gram_matches_pairwise_eval():
    # independent oracle: evaluate eval() per pair
    k = Kernel("se", 1.0, 1.0)
    pts = np.array([[0.0], [1.0], [2.0]])
    g = k.gram(pts)
    expected = np.array([[k.eval(pts[i] - pts[j]) for j in range(3)] for i in range(3)])
    assert np.allclose(g, expected, rtol=0, atol=1e-15)
    assert g[0, 1] == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert g[0, 2] == pytest.approx(math.exp(-2.0), abs=1e-15)


def test_gram_properties_randomized():
    rng = np.random.default_rng(1)
    for _ in range(50):
        fam = "se" if rng.random() < 0.5 else "exp"
        k = Kernel(fam, float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3)))
        pts = rng.normal(0, 2, (rng.integers(1, 12), rng.integers(1, 4)))
        g = k.gram(pts)
        assert np.array_equal(g, g.T)
        assert np.all(np.diag(g) == k.signal_variance)
        assert np.all((0 <= g) & (g <= k.signal_variance))


def test_dimension_mismatch_rejected():
    k = Kernel("se")
    with pytest.raises(ValueError, match="dimension"):
        k.cross(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="dimension"):
        k.row_sums(np.zeros((2, 2)), np.zeros((2, 3)))


def test_row_sums_matches_cross_sum():
    rng = np.random.default_rng(2)
    for fam in ("se", "exp"):
        k = Kernel(fam, 0.8, 0.6)
        a = rng.normal(0, 1, (7, 3))
        b = rng.normal(0, 1, (11, 3))
        assert np.allclose(k.row_sums(a, b), k.cross(a, b).sum(axis=1), rtol=1e-12)


@pytest.mark.parametrize("family", ["se", "exp"])
def test_in_place_evaluation_is_bit_identical_to_closed_form(family):
    rng = np.random.default_rng(3)
    k = Kernel(family, 0.7, 1.3)
    a = rng.normal(0, 2, (37, 3))
    b = np.vstack([rng.normal(0, 2, (1100, 3)), a[:5]])  # several row_sums tiles, zero distances
    assert np.array_equal(k.cross(a, b), closed_form(k, sq_dists(a, b)))
    assert np.array_equal(k.row_sums(a, b), row_sums_reference(k, a, b))
    d2_sym = np.maximum(np.sum(a * a, 1)[:, None] + np.sum(a * a, 1)[None, :] - 2.0 * (a @ a.T), 0)
    d2_sym = 0.5 * (d2_sym + d2_sym.T)
    np.fill_diagonal(d2_sym, 0.0)
    assert np.array_equal(k.gram(a), closed_form(k, d2_sym))
    s = a[0] - a[1]
    assert k.eval(s) == closed_form(k, np.sum(s * s))


def _same_bits(x, y):
    # bit for bit, except that a NaN's sign may differ with how it was negated
    x, y = np.asarray(x), np.asarray(y)
    nan = np.isnan(x)
    return (
        x.shape == y.shape
        and np.array_equal(nan, np.isnan(y))
        and np.array_equal(x[~nan].view(np.uint64), y[~nan].view(np.uint64))
    )


def test_exp_is_exactly_zero_at_and_below_the_shortcut_threshold():
    below = np.r_[np.linspace(-800.0, _EXP_ZERO, 10001), -1e300, -np.inf]
    assert np.all(np.exp(below).view(np.uint64) == 0)  # +0.0, not a subnormal
    assert np.exp(np.nextafter(-745.0, 0.0)) > 0  # the threshold leaves a margin


@pytest.mark.parametrize("family", ["se", "exp"])
@pytest.mark.parametrize("size", [1, 1000, _CHUNK, _CHUNK + 1, 3 * _CHUNK - 5])
def test_from_sqdist_matches_one_np_exp_bit_for_bit(family, size):
    # exponents swept over [-800, 0], dense in the [-750, -700] band where
    # np.exp turns subnormal, shuffled so every chunk mixes slow and fast entries
    rng = np.random.default_rng(size)
    arg = np.r_[
        np.linspace(-800.0, 0.0, 40_001), np.linspace(-750.0, -700.0, 40_001), -np.inf, np.nan
    ]
    arg = rng.permutation(arg)[:size]
    arg[: size // 4] = rng.choice(arg, size // 4)  # runs of slow chunks as well
    if family == "se":
        k, d2 = Kernel("se", 0.7, 0.5), arg / -2.0  # exponent d2 / -0.5 == arg exactly
        expected = 0.7 * np.exp(d2 / -0.5)
    else:
        k, d2 = Kernel("exp", 0.7, 1.0), arg * arg
        expected = 0.7 * np.exp(np.sqrt(d2) / -1.0)
    d2 = d2.reshape(-1, 1) if size % 2 else d2
    assert _same_bits(k._from_sqdist(d2), expected.reshape(d2.shape))
    assert _same_bits(k._from_sqdist(d2), closed_form(k, d2))


@pytest.mark.parametrize("variance", [1.0, 2.5])
@pytest.mark.parametrize("family", ["se", "exp"])
def test_from_sqdist_at_unit_and_other_variance_matches_closed_form(family, variance):
    # at variance 1.0 the scaling pass is skipped, since x * 1.0 == x for every float
    rng = np.random.default_rng(5)
    k = Kernel(family, variance, 0.3)
    d2 = np.r_[rng.uniform(0.0, 200.0, 3 * _CHUNK + 7), 0.0, np.inf]
    assert _same_bits(k._from_sqdist(d2), closed_form(k, d2))
    assert _same_bits(k.gram(d2[:300, None]), closed_form(k, sym_sq_dists(d2[:300, None])))


@pytest.mark.parametrize("family", ["se", "exp"])
def test_from_sqdist_of_non_contiguous_input(family):
    rng = np.random.default_rng(4)
    k = Kernel(family, 1.3, 0.05)  # small enough that some chunks take the shortcut
    d2 = rng.uniform(0.0, 40.0, (300, 257))
    for view in (d2.T, d2[:, ::3], d2[::2, 1:]):
        assert _same_bits(k._from_sqdist(view), closed_form(k, view))
        out = np.empty(view.shape)
        assert k._from_sqdist(view, out=out) is out
        assert _same_bits(out, closed_form(k, view))
    with pytest.raises(ValueError, match="contiguous"):
        k._from_sqdist(d2, out=np.empty((257, 300)).T)


@pytest.mark.parametrize("length_scale", [1e-150, 1e-160])
def test_se_divide_overflow_evaluates_to_zero_without_warning(length_scale):
    # 1e10 / (2 * 1e-300) overflows to -inf, whose exp is exactly 0
    k = Kernel("se", 1.0, length_scale)
    assert k.cross([[0.0]], [[1e5]])[0, 0] == 0.0
    assert np.array_equal(k.gram([[0.0], [1e5]]), np.eye(2))


@pytest.mark.parametrize("length_scale", [1e-320, 5e-324])
def test_exp_divide_overflow_evaluates_to_zero_without_warning(length_scale):
    k = Kernel("exp", 2.0, length_scale)
    assert k.cross([[0.0]], [[1.0]])[0, 0] == 0.0
    assert np.array_equal(k.row_sums([[0.0], [1.0]], [[1.0], [3.0]]), [0.0, 2.0])
    assert k.eval([0.0, 0.0]) == 2.0


@pytest.mark.parametrize("family", ["se", "exp"])
@pytest.mark.parametrize("rows", [1, 37, "blocks"])
@pytest.mark.parametrize("cols", [1, 40, _SUM_TILE - 1, _SUM_TILE, 2 * _SUM_TILE + 81])
def test_row_sums_tiles_are_bit_identical(family, rows, cols):
    # a partial last tile must be summed from a contiguous buffer, not a column
    # slice; "blocks" spans three of row_sums' row blocks and part of a fourth,
    # a block being at least 64 rows and about _CHUNK elements per tile
    if rows == "blocks":
        rows = 3 * max(64, _CHUNK // min(cols, _SUM_TILE)) + 5
    rng = np.random.default_rng(rows * cols)
    k = Kernel(family, 0.9, 0.2)
    a = rng.normal(0, 2, (rows, 3))
    b = rng.normal(0, 2, (cols, 3))
    assert _same_bits(k.row_sums(a, b), row_sums_reference(k, a, b))


def _sym_sq_dists_oracle(x):
    """Squared distances re-symmetrized as 0.5 (d2 + d2.T), the pass sym_sq_dists dropped."""
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    expected = 0.5 * (d2 + d2.T)
    np.fill_diagonal(expected, 0.0)
    return expected


def _layouts(n):
    """(name, points) in every layout sym_sq_dists must handle, with duplicated rows."""
    rng = np.random.default_rng(n)
    wide = rng.normal(0, 3, (n, 6))
    wide[: n // 4] = wide[rng.integers(0, max(n, 1), n // 4)]
    x = np.ascontiguousarray(wide[:, :2])
    tall = np.repeat(x, 2, axis=0)
    yield "C", x
    yield "F", np.asfortranarray(x)
    yield "column-strided", wide[:, ::2]
    yield "row-strided", tall[::2]
    yield "float32", x.astype(np.float32)
    yield "D=1", np.ascontiguousarray(wide[:, :1])


# 127-129 straddle a 128-row block of the former symmetrizing pass, and 301
# spans three. Without the contiguous copy, numpy sends a column-strided view to
# gemm: the result then differs from the copy's at 127 points and is not
# symmetric at 301 and 2100.
@pytest.mark.parametrize("n", [0, 1, 2, 127, 128, 129, 301, 2100])
def test_sym_sq_dists_symmetric_by_construction(n):
    for layout, x in _layouts(n):
        got = sym_sq_dists(x)
        assert got.shape == (n, n) and got.dtype == x.dtype, layout
        assert np.array_equal(got, got.T), layout
        assert not np.any(np.diag(got)), layout
        if x.flags.c_contiguous:
            assert got.tobytes() == _sym_sq_dists_oracle(x).tobytes(), layout
        else:  # computed from a C-contiguous copy
            assert got.tobytes() == sym_sq_dists(np.ascontiguousarray(x)).tobytes(), layout


# 256 rows fill one strip exactly; 300 end in a partial strip
@pytest.mark.parametrize("n", [0, 1, 2, 3, 256, 300, 1000])
def test_upper_strips_walk_the_strict_upper_triangle_once_in_order(n):
    empty = np.empty(0, dtype=np.int64)
    rows, cols, next_start = [empty], [empty], 0
    for start, stop, upper in upper_strips(n):
        assert start == next_start < stop <= n - 1
        assert (stop - start) * n <= max(STRIP_ELEMENTS, n)
        assert upper.shape == (stop - start, stop - start)
        keep = np.zeros((stop - start, n), dtype=bool)
        keep[:, start:stop] = upper
        keep[:, stop:] = True
        i, j = np.nonzero(keep)
        rows.append(i + start)
        cols.append(j)
        next_start = stop
    assert next_start == max(n - 1, 0)
    ref_i, ref_j = np.triu_indices(n, 1)
    assert np.array_equal(np.concatenate(rows), ref_i)
    assert np.array_equal(np.concatenate(cols), ref_j)


class TestReachSqDist:
    """The squared distance beyond which C stays below a ratio of C(0)."""

    @pytest.mark.parametrize("family", ["se", "exp"])
    @pytest.mark.parametrize(
        "variance, length_scale, ratio",
        [(1.0, 1.0, PAIR_CUTOFF), (1e-6, 0.1, 1e-20), (1e6, 3.0, 1e-12), (2.0, 0.5, 1.5)],
    )
    def test_kernel_at_the_limit_is_half_the_cutoff(self, family, variance, length_scale, ratio):
        # widened by ln 2: every distance where the exact C reaches ratio * C(0) / 2
        # is within, whatever the variance
        k = Kernel(family, variance, length_scale)
        at_limit = k.eval(math.sqrt(k.reach_sq_dist(ratio)))
        assert at_limit == pytest.approx(ratio * variance / 2, rel=1e-9, abs=0)
        assert k.reach_sq_dist(ratio) == Kernel(family, 1.0, length_scale).reach_sq_dist(ratio)

    def test_overflow_gives_inf(self):
        # RuntimeWarnings are errors in this suite
        assert Kernel("se", 1.0, 9e153).reach_sq_dist(PAIR_CUTOFF) == math.inf
        assert Kernel("exp", 1e300, 1e300).reach_sq_dist(1e-300) == math.inf
