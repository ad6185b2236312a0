"""Stationary, non-negative covariance functions.

The same objects serve as Gaussian process kernels, as the coupling weights
of the label random field, and as smoothing windows for the kernel density
classifier. Both implemented families are isotropic (Euclidean norm of the
displacement) and satisfy 0 <= C(s) <= C(0) = signal_variance everywhere,
which is what makes min-cut inference applicable downstream.

Every matrix is evaluated in place, in chunks of about _CHUNK elements so
that each chunk's divide, exp and scale stay in cache; at signal variance
1.0 the scale is skipped, since x * 1.0 == x. np.exp leaves its
vector path for arguments below about -708, where results are subnormal or
underflow, and runs one to two orders of magnitude slower there. A chunk
that reaches that range writes exactly 0 for the arguments at or below
_EXP_ZERO, where np.exp gives 0 as well, and exps the others between
_EXP_ZERO and _EXP_FAST_MIN on their own, so the rest of the chunk stays on
the vector path. Results stay bit-identical to one np.exp over the whole
matrix. Squared distances are (|a|^2 + |b|^2) - 2 a.b, clamped at 0, and
are written into the caller's buffer, exactly symmetric within one point set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Short CLI names; long forms accepted as aliases.
_FAMILIES = {
    "se": "se",
    "squared-exponential": "se",
    "exp": "exp",
    "exponential": "exp",
}

STRIP_ELEMENTS = 1 << 16  # entries per row strip of upper_strips and loo_cv (512 KB of float64)
_SUM_TILE = 512  # training points per row_sums tile
_CHUNK = 16384  # elements per in-place evaluation chunk (128 KB of float64)
_EXP_FAST_MIN = -707.0  # np.exp stays on its vector path above about this
_EXP_ZERO = -750.0  # np.exp(x) == 0.0 exactly for every x <= _EXP_ZERO


@dataclass(frozen=True)
class Kernel:
    """Isotropic covariance C(s), either squared-exponential or exponential.

    squared-exponential: C(s) = signal_variance * exp(-|s|^2 / (2 l^2))
    exponential:         C(s) = signal_variance * exp(-|s| / l)
    """

    family: str
    signal_variance: float = 1.0
    length_scale: float = 1.0

    def __post_init__(self):
        fam = _FAMILIES.get(self.family)
        if fam is None:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {sorted(_FAMILIES)}"
            )
        object.__setattr__(self, "family", fam)
        for name in ("signal_variance", "length_scale"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite real, got {v!r}")
            object.__setattr__(self, name, float(v))
        if fam == "se":
            # _from_sqdist divides by 2 l^2, which must neither overflow nor underflow to 0
            try:
                denom = 2.0 * self.length_scale**2
            except OverflowError:
                denom = np.inf
            if not (np.isfinite(denom) and denom > 0):
                raise ValueError(
                    f"se length_scale {self.length_scale!r} is out of range: "
                    "2*length_scale**2 must be a positive finite float"
                )

    def eval(self, s):
        """Covariance at displacement ``s`` (scalar, (D,) vector, or (M, D) batch)."""
        s = np.asarray(s, dtype=np.float64)
        if not np.all(np.isfinite(s)):
            raise ValueError("displacement contains non-finite components")
        if s.ndim == 0:
            d2 = s * s
        else:
            d2 = np.sum(s * s, axis=-1)
        out = self._from_sqdist(d2)
        return float(out) if np.ndim(out) == 0 else out

    def reach_sq_dist(self, ratio: float) -> float:
        """Squared distance beyond which C < ``ratio`` * C(0), for 0 < ratio <= 2:
        2 l^2 t (se) or (l t)^2 (exp), with t = ln(1 / ratio) widened by ln 2.

        The margin, a factor 2 in C, covers the rounding of C, even of a
        subnormal exp or product. An overflow gives inf.
        """
        t = -math.log(ratio) + math.log(2.0)
        ls = self.length_scale
        return 2.0 * ls * ls * t if self.family == "se" else (ls * t) * (ls * t)

    def _from_sqdist(self, d2, out=None):
        """C at squared distances ``d2``, written into ``out`` when given.

        ``out`` must be C-contiguous and may be ``d2`` itself. Dividing by the
        negated denominator is bit-identical to negating the numerator, since
        IEEE division is sign-symmetric.
        """
        d2 = np.asarray(d2, dtype=np.float64)
        if out is None:
            out = np.empty(d2.shape)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous array")
        if not d2.flags.c_contiguous:
            np.copyto(out, d2)
            d2 = out
        src, dst = d2.reshape(-1), out.reshape(-1)
        se = self.family == "se"
        scale = -(2.0 * self.length_scale**2) if se else -self.length_scale
        # A divide that overflows gives -inf, the exact limit, whose exp is 0;
        # it is the only step here that can overflow (d2 >= 0 keeps exp's
        # argument <= 0 and the product <= signal_variance).
        with np.errstate(over="ignore"):
            for start in range(0, dst.size, _CHUNK):
                x, y = src[start : start + _CHUNK], dst[start : start + _CHUNK]
                if se:
                    np.divide(x, scale, out=y)
                else:
                    np.sqrt(x, out=y)
                    np.divide(y, scale, out=y)
                if y.min() < _EXP_FAST_MIN:  # a NaN min compares false: plain np.exp
                    # Only the slow arguments above _EXP_ZERO are exped on
                    # their own; the rest of the chunk is raised to
                    # _EXP_FAST_MIN so np.exp stays on its vector path, and
                    # the slow entries are zeroed after it.
                    slow = y < _EXP_FAST_MIN
                    live = np.flatnonzero(slow & (y > _EXP_ZERO))
                    vals = np.exp(y[live])
                    np.maximum(y, _EXP_FAST_MIN, out=y)
                    np.exp(y, out=y)
                    np.multiply(y, ~slow, out=y)
                    y[live] = vals
                else:
                    np.exp(y, out=y)
                if self.signal_variance != 1.0:  # x * 1.0 == x for every float
                    np.multiply(y, self.signal_variance, out=y)
        return out

    def cross(self, a, b) -> np.ndarray:
        """Covariance matrix C(a_i - b_j) for two point sets, shape (len(a), len(b))."""
        a = _as_points(a)
        b = _as_points(b)
        if a.shape[1] != b.shape[1]:
            raise ValueError(
                f"point sets have mismatched dimensions {a.shape[1]} and {b.shape[1]}"
            )
        d2 = _sq_dists(a, b)
        return self._from_sqdist(d2, out=d2)

    def gram(self, points) -> np.ndarray:
        """Symmetric covariance matrix of one point set; diagonal is exactly C(0)."""
        d2 = sym_sq_dists(_as_points(points))
        return self._from_sqdist(d2, out=d2)

    def row_sums(self, a, b) -> np.ndarray:
        """sum_j C(a_i - b_j) for each row a_i, shape (len(a),).

        The one kernel-sum routine, for prediction and the label field's
        unaries alike. ``b`` is summed in tiles of _SUM_TILE points and ``a``
        in blocks of at least 64 rows and about _CHUNK elements per tile, so
        the working set grows with neither len(a) nor len(b).
        """
        a = _as_points(a)
        b = _as_points(b)
        if a.shape[1] != b.shape[1]:
            raise ValueError(
                f"point sets have mismatched dimensions {a.shape[1]} and {b.shape[1]}"
            )
        m, n = len(a), len(b)
        tile = min(n, _SUM_TILE)
        rows = max(64, _CHUNK // max(1, tile))
        aa = np.sum(a * a, axis=1)
        bb = np.sum(b * b, axis=1)
        buf = np.empty(min(m, rows) * tile)
        out = np.zeros(m)
        for first in range(0, m, rows):
            block, sums = a[first : first + rows], out[first : first + rows]
            for start in range(0, n, _SUM_TILE):
                stop = min(start + _SUM_TILE, n)
                # A leading slice of the flat buffer keeps a partial last tile
                # contiguous; a column slice of a (rows, tile) view would not be.
                d2 = buf[: len(block) * (stop - start)].reshape(len(block), stop - start)
                _sq_dists(block, b[start:stop], aa[first : first + rows], bb[start:stop], out=d2)
                sums += self._from_sqdist(d2, out=d2).sum(axis=1)
        return out

    def upper_sum(self, points) -> float:
        """sum_{j<k} C(x_j - x_k) over one point set, each strip of
        ``upper_strip_sq_dists`` summed with its entries on and below the diagonal set to 0."""
        total = 0.0
        for _, d2, upper in upper_strip_sq_dists(_as_points(points)):
            c = self._from_sqdist(d2, out=d2)
            np.copyto(c[:, : len(upper)], 0.0, where=~upper)
            total += float(c.sum())
        return total


def upper_strips(n: int):
    """(start, stop, upper) for row strips of an n x n matrix's strict upper triangle.

    Strips come in row-major order and hold rows start..stop-1, at most
    max(STRIP_ELEMENTS, n) matrix entries; the last row, with no entry above
    the diagonal, is in none. ``upper`` masks the strip's diagonal block:
    entry (start + i, start + c) lies above the diagonal iff upper[i, c], as
    does every entry from column stop on.
    """
    if n < 2:
        return
    rows = min(n, max(1, STRIP_ELEMENTS // n))
    above = np.triu(np.ones((rows, rows), dtype=bool), 1)
    for start in range(0, n - 1, rows):
        stop = min(start + rows, n - 1)
        yield start, stop, above[: stop - start, : stop - start]


def upper_strip_sq_dists(x: np.ndarray):
    """(start, d2, upper) for each strip of ``upper_strips(len(x))``: ``d2`` holds
    ``_sq_dists`` of rows start..stop-1 against the points from start on, in
    one reused buffer that the next strip overwrites."""
    n = len(x)
    aa = np.sum(x * x, axis=1)
    buf = np.empty(max(STRIP_ELEMENTS, n))
    for start, stop, upper in upper_strips(n):
        d2 = buf[: (stop - start) * (n - start)].reshape(stop - start, n - start)
        _sq_dists(x[start:stop], x[start:], aa[start:stop], aa[start:], out=d2)
        yield start, d2, upper


def _as_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"expected a (N, D) array of points, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("points contain non-finite values")
    return x


def sym_sq_dists(x: np.ndarray) -> np.ndarray:
    """Squared distances within one (N, D) point set: exactly symmetric, zero diagonal.

    numpy's x @ x.T on a C-contiguous x computes one triangle (BLAS syrk) and
    copies it onto the other, and the rest of _sq_dists commutes in i and j,
    so no symmetrizing pass is needed. numpy sends a strided x to gemm, whose
    triangles may differ in the last bits, so other layouts are copied first.
    """
    x = np.ascontiguousarray(x)
    aa = np.sum(x * x, axis=1)
    d2 = _sq_dists(x, x, aa, aa)
    np.fill_diagonal(d2, 0.0)
    return d2


def _sq_dists(a: np.ndarray, b: np.ndarray, aa=None, bb=None, out=None) -> np.ndarray:
    """(aa_i + bb_j) - 2 (a @ b.T), clamped at 0, into ``out`` when given.

    ``aa`` and ``bb`` are the squared row norms of ``a`` and ``b`` when the
    caller has them; ``out`` must be a C-contiguous (len(a), len(b)) array.
    The product is written into ``out`` and the rest runs in row strips of
    about _CHUNK elements.
    """
    if aa is None:
        aa = np.sum(a * a, axis=1)
    if bb is None:
        bb = np.sum(b * b, axis=1)
    out = np.matmul(a, b.T, out=out)
    rows = max(1, _CHUNK // max(1, len(b)))
    tmp = np.empty((min(rows, len(a)), len(b)))
    for start in range(0, len(a), rows):
        g = out[start : start + rows]
        t = tmp[: len(g)]
        np.add(aa[start : start + rows, None], bb, out=t)
        np.multiply(g, 2.0, out=g)
        np.subtract(t, g, out=g)
        np.maximum(g, 0.0, out=g)
    return out
