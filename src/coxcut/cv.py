"""Length-scale selection by cross-validation on the 0-1 loss.

Supervised runs use leave-one-out over the training labels; semi-supervised
runs hide one fold of labels at a time, merge those points into the
unlabeled pool, and score the recovered labels (transductive k-fold). Ties
between grid values resolve toward the larger, smoother length scale.
"""

from __future__ import annotations

import numpy as np

from .classify import shared_models
from .data import Dataset
from .expansion import ssl_solve
from .kernels import Kernel, sym_sq_dists

GRID_SIZE = 16
GRID_SPAN = (0.01, 100.0)  # multiples of the median pairwise distance
_MEDIAN_SUBSAMPLE = 2048
# Largest leave-one-out set: at this size its two n x n float64 arrays take about 1 GB.
MAX_LOO_POINTS = 8192


def default_lengthscale_grid(covariates, size: int = GRID_SIZE, seed: int = 0) -> np.ndarray:
    """Log-spaced grid spanning GRID_SPAN times the median pairwise distance."""
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if len(x) > _MEDIAN_SUBSAMPLE:
        x = x[np.random.default_rng(seed).permutation(len(x))[:_MEDIAN_SUBSAMPLE]]
    n = len(x)
    sq = np.sum(x * x, axis=1)
    g = 2 * x @ x.T
    # the squared distances above the diagonal, row by row; sqrt is monotone,
    # so the median distance is the mean of the middle order statistics' roots
    d2 = np.empty(n * (n - 1) // 2)
    pos = 0
    for i in range(n - 1):
        row = d2[pos : pos + n - 1 - i]
        np.add(sq[i], sq[i + 1 :], out=row)
        np.subtract(row, g[i, i + 1 :], out=row)
        pos += n - 1 - i
    np.maximum(d2, 0.0, out=d2)
    half = len(d2) // 2
    mid = [half] if len(d2) % 2 else [half - 1, half]
    med = float(np.mean(np.sqrt(np.partition(d2, mid)[mid]))) if len(d2) else 0.0
    if not med > 0:
        med = 1.0
    return np.geomspace(GRID_SPAN[0] * med, GRID_SPAN[1] * med, size)


def _validated_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("length-scale grid must be a non-empty 1-D sequence")
    if np.any(~np.isfinite(g)) or np.any(g <= 0):
        raise ValueError("length scales must be positive finite reals")
    return g


def _grid_kernels(kernel_family: str, grid: np.ndarray) -> list[Kernel]:
    # built before any work, so a bad value anywhere in the grid fails at once
    return [Kernel(kernel_family, 1.0, float(ls)) for ls in grid]


def _best(grid: np.ndarray, errors: np.ndarray) -> float:
    tied = np.flatnonzero(errors == errors.min())
    return float(grid[tied].max())


def loo_cv(train: Dataset, kernel_family: str = "se", grid=None) -> tuple[float, np.ndarray]:
    """Leave-one-out 0-1 error per grid value; returns (best length scale, table).

    The table has one (length_scale, error) row per grid value. Means are
    zero and the kernel is shared across classes, so only the length scale
    matters for the decisions. Squared distances are computed once; each
    grid value evaluates the kernel into one reused n x n buffer, so a call
    holds two n x n float64 arrays and refuses more than MAX_LOO_POINTS
    points before allocating either.

    Each point's own class sum includes the self term C(0) from the
    diagonal, which is then subtracted. The round trip loses own-class
    neighbour sums below about 1e-16 * C(0): they read as 0, so at the
    smallest length scales points are decided as if they had no neighbours
    of their own class and the error can read near 0.5.
    """
    x, y = train.labeled()
    n = len(x)
    if n < 2:
        raise ValueError("leave-one-out needs at least two labeled points")
    if n > MAX_LOO_POINTS:
        raise ValueError(
            f"leave-one-out on {n} points needs two {n}x{n} float64 matrices "
            f"({2 * 8 * n * n / 1e9:.1f} GB); above {MAX_LOO_POINTS} points, "
            "subsample with --cv-subsample"
        )
    if grid is None:
        grid = default_lengthscale_grid(x)
    grid = _validated_grid(grid)
    kernels = _grid_kernels(kernel_family, grid)
    q = train.num_classes
    onehot = np.zeros((n, q))
    onehot[np.arange(n), y - 1] = 1.0
    d2 = sym_sq_dists(x)
    buf = np.empty_like(d2)
    errors = np.empty(len(grid))
    for gi, kern in enumerate(kernels):
        class_sums = kern._from_sqdist(d2, out=buf) @ onehot  # (n, q): attraction per class
        class_sums[np.arange(n), y - 1] -= kern.signal_variance  # drop self term
        pred = np.argmax(class_sums, axis=1) + 1
        errors[gi] = float(np.mean(pred != y))
    table = np.column_stack([grid, errors])
    return _best(grid, errors), table


def kfold_cv_ssl(
    labeled: Dataset,
    unlabeled,
    k: int,
    kernel_family: str = "se",
    grid=None,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Transductive k-fold selection for the semi-supervised solver.

    Each fold's labels are hidden and its points joined to the unlabeled
    pool; the fold is scored on the labels ssl_solve recovers for it.
    """
    x, y = labeled.labeled()
    n = len(x)
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= {n} labeled points, got k={k}")
    x_u = np.asarray(unlabeled, dtype=np.float64)
    if x_u.ndim == 1:
        x_u = x_u[:, None]
    if grid is None:
        grid = default_lengthscale_grid(np.vstack([x, x_u]) if len(x_u) else x)
    grid = _validated_grid(grid)
    kernels = _grid_kernels(kernel_family, grid)
    q = labeled.num_classes

    rng = np.random.default_rng(seed)
    folds = np.array_split(rng.permutation(n), k)
    errors = np.empty(len(grid))
    for gi, kern in enumerate(kernels):
        models = shared_models(q, kern)
        fold_errs = []
        for fold in folds:
            if len(fold) == 0:
                continue
            keep = np.setdiff1d(np.arange(n), fold)
            train = Dataset(x[keep], y[keep], q)
            pool = np.vstack([x_u, x[fold]]) if len(x_u) else x[fold]
            recovered = ssl_solve(models, train, pool)[len(x_u):]
            fold_errs.append(float(np.mean(recovered != y[fold])))
        errors[gi] = float(np.mean(fold_errs))
    table = np.column_stack([grid, errors])
    return _best(grid, errors), table
