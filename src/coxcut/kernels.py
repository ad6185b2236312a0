"""Stationary, non-negative covariance functions.

The same objects serve as Gaussian process kernels, as the coupling weights
of the label random field, and as smoothing windows for the kernel density
classifier. Both implemented families are isotropic (Euclidean norm of the
displacement) and satisfy 0 <= C(s) <= C(0) = signal_variance everywhere,
which is what makes min-cut inference applicable downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Short CLI names; long forms accepted as aliases.
_FAMILIES = {
    "se": "se",
    "squared-exponential": "se",
    "exp": "exp",
    "exponential": "exp",
}

_SUM_TILE = 512  # training points per row_sums tile


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

    def _from_sqdist(self, d2, out=None):
        """C at squared distances ``d2``, written into ``out`` when given.

        ``out`` may be ``d2`` itself. Dividing by the negated denominator is
        bit-identical to negating the numerator, since IEEE division is
        sign-symmetric.
        """
        if out is None:
            out = np.empty(np.shape(d2))
        if self.family == "se":
            np.divide(d2, -(2.0 * self.length_scale**2), out=out)
        else:
            np.sqrt(d2, out=out)
            np.divide(out, -self.length_scale, out=out)
        np.exp(out, out=out)
        np.multiply(out, self.signal_variance, out=out)
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

        This is the prediction hot loop. ``b`` is summed in fixed tiles, so the
        numpy working set (and the per-element cost) does not grow with len(b).
        """
        a = _as_points(a)
        b = _as_points(b)
        if a.shape[1] != b.shape[1]:
            raise ValueError(
                f"point sets have mismatched dimensions {a.shape[1]} and {b.shape[1]}"
            )
        out = np.zeros(a.shape[0])
        for start in range(0, b.shape[0], _SUM_TILE):
            d2 = _sq_dists(a, b[start : start + _SUM_TILE])
            out += self._from_sqdist(d2, out=d2).sum(axis=1)
        return out


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
    """Squared distances within one (N, D) point set: exactly symmetric, zero diagonal."""
    d2 = _sq_dists(x, x)
    d2 = 0.5 * (d2 + d2.T)
    np.fill_diagonal(d2, 0.0)
    return d2


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aa = np.sum(a * a, axis=1)
    bb = np.sum(b * b, axis=1)
    d2 = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return d2

