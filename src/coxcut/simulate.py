"""Generative side of the model.

A latent Gaussian field is sampled jointly at the centers of a regular grid
over an axis-aligned window, exponentiated into an intensity, and points are
drawn per cell with Poisson counts and uniform in-cell placement. Independent
thinning and the closed-form log product density complete the sampling
toolkit. Everything is a pure function of (inputs, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .classify import ClassModel
from .data import _covariate_fault
from .kernels import Kernel

# Sampling a field holds three n x n float64 matrices over its n cells at
# once: the covariance (jittered in place), numpy's working copy inside the
# Cholesky call, and the factor. Together they may take at most this.
MAX_FIELD_BYTES = 2**29  # 512 MiB: up to 4729 cells, e.g. --grid 68 in 2-D
_FIELD_MATRICES = 3

# Jitter schedule for the covariance factorization, relative to signal variance.
_JITTER_START = 1e-10
_JITTER_CAP = 1e-4


@dataclass(frozen=True)
class Window:
    """Axis-aligned box with a regular grid of grid_resolution cells per axis."""

    lower: np.ndarray
    upper: np.ndarray
    grid_resolution: int

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper corners must be vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("window corners must be finite")
        if not np.all(hi > lo):
            raise ValueError("upper corner must exceed lower corner componentwise")
        # every cell center lies within the farthest corner, max(-lower, upper),
        # so the loaders' bound on it bounds the centers' squared distances
        with np.errstate(over="ignore"):
            widths = hi - lo
        if not np.all(np.isfinite(widths)) or _covariate_fault(np.maximum(-lo, hi)[None]):
            raise ValueError(
                "window too large: its widths or the squared distances between "
                "its cell centers overflow float64"
            )
        if int(self.grid_resolution) < 1:
            raise ValueError("grid_resolution must be >= 1")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "grid_resolution", int(self.grid_resolution))

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def num_cells(self) -> int:
        return self.grid_resolution**self.dim

    @property
    def cell_widths(self) -> np.ndarray:
        return (self.upper - self.lower) / self.grid_resolution

    def cell_centers(self) -> np.ndarray:
        """Centers of all cells, shape (num_cells, D), last axis fastest."""
        w = self.cell_widths
        axes = [
            self.lower[d] + (np.arange(self.grid_resolution) + 0.5) * w[d]
            for d in range(self.dim)
        ]
        pts = np.array(list(product(*axes)), dtype=np.float64)
        return pts.reshape(self.num_cells, self.dim)


@dataclass
class IntensityField:
    """Per-cell intensity values on a grid of cell centers."""

    centers: np.ndarray
    intensity: np.ndarray
    cell_widths: np.ndarray

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=np.float64))
        self.intensity = np.asarray(self.intensity, dtype=np.float64)
        self.cell_widths = np.atleast_1d(np.asarray(self.cell_widths, dtype=np.float64))
        if self.intensity.shape != (self.centers.shape[0],):
            raise ValueError("one intensity value per cell center required")
        if not np.all(np.isfinite(self.intensity)) or np.any(self.intensity < 0):
            raise ValueError("intensities must be finite and non-negative")
        if np.any(self.cell_widths <= 0):
            raise ValueError("cell widths must be positive")

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_widths))


def _cholesky_with_jitter(k: np.ndarray, signal_variance: float) -> np.ndarray:
    """Cholesky factor of k + jitter * I, raising the jitter until k factors.

    The jitter goes onto k's diagonal in place, from a saved copy of that
    diagonal, so no second n x n matrix is made; the values factored are
    those of k + jitter * np.eye(n).
    """
    jitter = _JITTER_START * signal_variance
    cap = _JITTER_CAP * signal_variance
    diag = k.diagonal().copy()
    while True:
        np.fill_diagonal(k, diag + jitter)
        try:
            return np.linalg.cholesky(k)
        except np.linalg.LinAlgError:
            if jitter >= cap:
                raise RuntimeError(
                    f"covariance factorization failed; final jitter {jitter:.3e} "
                    f"(cap {cap:.3e})"
                ) from None
            jitter *= 10.0


def sample_gp_field(mean: float, kernel: Kernel, window: Window, seed: int = 0) -> IntensityField:
    """Sample exp(f) on the window grid, f jointly Gaussian at the cell centers."""
    cells = window.num_cells
    need = _FIELD_MATRICES * 8 * cells * cells
    if need > MAX_FIELD_BYTES:
        raise ValueError(
            f"grid has {cells} cells: factorizing their covariance holds {_FIELD_MATRICES} "
            f"{cells}x{cells} float64 matrices ({need / 1e9:.2g} GB), above the "
            f"{MAX_FIELD_BYTES / 1e9:.2g} GB guard; use fewer cells per axis (--grid)"
        )
    centers = window.cell_centers()
    chol = _cholesky_with_jitter(kernel.gram(centers), kernel.signal_variance)
    rng = np.random.default_rng(seed)
    f = mean + chol @ rng.standard_normal(len(centers))
    with np.errstate(over="ignore"):  # an overflow gives inf, which IntensityField refuses
        intensity = np.exp(f)
    return IntensityField(centers, intensity, window.cell_widths)


def sample_poisson_points(field: IntensityField, seed: int = 0) -> np.ndarray:
    """Draw points from the piecewise-constant intensity, shape (n, D).

    Counts and in-cell placement use separate child streams of the seed so
    either component reproduces on its own.
    """
    count_rng, place_rng = np.random.default_rng(seed).spawn(2)
    counts = count_rng.poisson(field.intensity * field.cell_volume)
    total = int(counts.sum())
    dim = field.centers.shape[1]
    if total == 0:
        return np.empty((0, dim))
    centers = np.repeat(field.centers, counts, axis=0)
    offsets = (place_rng.random((total, dim)) - 0.5) * field.cell_widths
    return centers + offsets


def thin(points, gamma: float, seed: int = 0) -> np.ndarray:
    """Keep each point independently with probability gamma."""
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"thinning probability must lie in [0, 1], got {gamma}")
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    rng = np.random.default_rng(seed)
    return points[rng.random(points.shape[0]) < gamma]


def log_product_density(model: ClassModel, points) -> float:
    """log m(x_1..x_K) = K * mean + (1/2) * sum_{j,k} C(x_j - x_k), diagonal included,
    as K * mean + (K * C(0) + 2 * sum_{j<k} C) / 2 with no K x K array (``Kernel.upper_sum``)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    k = points.shape[0]
    if k < 1:
        raise ValueError("product density needs at least one point")
    upper = model.kernel.upper_sum(points)
    return float(k * model.mean + 0.5 * (k * model.kernel.signal_variance + 2.0 * upper))
