"""Length-scale selection by cross-validation on the 0-1 loss.

Supervised runs use leave-one-out over the training labels; semi-supervised
runs hide one fold of labels at a time, merge those points into the
unlabeled pool, and score the recovered labels (transductive k-fold). Ties
between grid values resolve toward the larger, smoother length scale.
"""

from __future__ import annotations

import math

import numpy as np

from .classify import shared_models
from .data import Dataset
from .expansion import ssl_solve
from .kernels import Kernel, sym_sq_dists

GRID_SIZE = 16
GRID_SPAN = (0.01, 100.0)  # multiples of the median pairwise distance
_MEDIAN_SUBSAMPLE = 2048
# Largest leave-one-out set: at this size its n x n float64 matrix takes about 0.5 GB.
MAX_LOO_POINTS = 8192
_LOO_STRIP = 2**16  # elements per leave-one-out kernel strip (512 KB of float64)
_MEDIAN_SAMPLE = 2**14  # matrix entries whose order statistics bracket the median


def default_lengthscale_grid(covariates, size: int = GRID_SIZE, seed: int = 0) -> np.ndarray:
    """Log-spaced grid spanning GRID_SPAN times the median pairwise distance.

    Above _MEDIAN_SUBSAMPLE points the median is taken over a random sample
    of that many points.
    """
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if len(x) > _MEDIAN_SUBSAMPLE:
        x = x[np.random.default_rng(seed).permutation(len(x))[:_MEDIAN_SUBSAMPLE]]
    return _grid_around(_median_distance(sym_sq_dists(x)), size)


def _median_distance(d2: np.ndarray) -> float:
    """Median of the distances above the diagonal of a squared-distance matrix.

    Exact selection by bracketing (Floyd & Rivest 1975) without copying the
    triangle: _MEDIAN_SAMPLE entries of the C-contiguous matrix, drawn with a
    fixed seed, give a value bracket [lo, hi] around the middle ranks. One
    pass over the upper triangle, in row strips of about _LOO_STRIP
    elements, counts the values <= lo and < hi and gathers those strictly
    between (about 3% of the pairs); ties at a bound are counted, never
    gathered. A rank the bracket misses widens it on that side, the old
    bound becoming the new opposite one, so a value tied at it is found from
    its two counts. The sample only steers the passes: the result is exact
    for any square matrix, NaN sorting last as in a partition. sqrt is
    monotone, so the median distance is the mean of the roots of the middle
    order statistics.
    """
    n = len(d2)
    pairs = n * (n - 1) // 2
    if not pairs:
        return 0.0
    ks = [pairs // 2] if pairs % 2 else [pairs // 2 - 1, pairs // 2]
    rows = min(n, max(1, _LOO_STRIP // n))
    # entries drawn at random: a regular stride meets few columns in each row
    # and estimates the median like a subsample of points, much more coarsely
    picks = np.random.default_rng(0).integers(0, n * n, min(n * n, _MEDIAN_SAMPLE))
    sample = np.sort(d2.reshape(-1).take(picks))
    m = int(np.count_nonzero(sample == sample))  # NaNs sort last; no bound comes from them
    # n diagonal zeros then every triangle value twice: rank k of the triangle
    # sits near rank n + 2k of the matrix
    width = math.isqrt(4 * m) + 1  # about four standard errors of a sample quantile
    lo_pos = max(-1, (n + 2 * ks[0]) * m // (n * n) - width)
    hi_pos = min(m, -(-(n + 2 * ks[-1]) * m // (n * n)) + width)
    # strict upper triangles of the diagonal blocks, which the strips leave out
    upper = np.triu(np.ones((rows, rows), dtype=bool), 1)
    corners = np.concatenate(
        [d2[a : a + rows, a : a + rows][upper[: n - a, : n - a]] for a in range(0, n, rows)]
    )
    le_at, lt_at, found = {}, {}, {}
    while True:
        lo = sample[lo_pos] if lo_pos >= 0 else -np.inf  # no squared distance is below 0
        hi = sample[hi_pos] if hi_pos < m else None  # None: no upper bound, NaN included
        le, lt, inside = _bracket_pass(d2, rows, corners, lo, hi)
        le_at[lo], lt_at[hi] = le, lt
        want = [k - le for k in ks if k not in found and le <= k < lt]
        if want:  # one partition; the rank below it is the max of its left part
            inside.partition(want[-1])
            if len(want) == 2:
                found[ks[0]] = inside[: want[1]].max()
            found[want[-1] + le] = inside[want[-1]]
        for v in (lo, hi):
            if v in le_at and v in lt_at:  # ranks tied at v
                found.update((k, v) for k in ks if lt_at[v] <= k < le_at[v])
        left = [k for k in ks if k not in found]
        if not left:
            return float(np.mean(np.sqrt([found[k] for k in ks])))
        # widen past every sample value tied with the bound that missed
        width *= 2
        if left[0] < le:
            below = int(np.searchsorted(sample[:m], lo)) - 1
            lo_pos, hi_pos = max(-1, min(lo_pos - width, below)), lo_pos
        else:
            above = int(np.searchsorted(sample[:m], hi, side="right"))
            lo_pos, hi_pos = hi_pos, min(m, max(hi_pos + width, above))


def _bracket_pass(d2, rows, corners, lo, hi):
    """(count <= lo, count < hi, values strictly between) over d2's upper triangle.

    ``hi`` None counts every value and gathers all those above ``lo``.
    """
    size = max(rows * len(d2), corners.size)
    at_lo, inside = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    le = lt = 0
    parts = []
    for vals in _upper_strips(d2, rows, corners):
        b, u = at_lo[: vals.size], inside[: vals.size]
        np.less_equal(vals, lo, out=b)
        le += np.count_nonzero(b)
        if hi is None:
            np.logical_not(b, out=u)
            lt += vals.size
        else:
            np.less(vals, hi, out=u)
            lt += np.count_nonzero(u)
            np.greater(u, b, out=u)  # < hi and not <= lo
        parts.append(vals.take(np.flatnonzero(u)))
    return le, lt, np.concatenate(parts)


def _upper_strips(d2, rows, corners):
    """The strict upper triangle of d2 as contiguous strips of about rows * n values.

    The rectangle right of each block of ``rows`` rows is copied into one
    reused buffer; ``corners`` holds the triangles beside the diagonal.
    """
    n = len(d2)
    buf = np.empty(rows * n)
    for start in range(0, n, rows):
        block = d2[start : start + rows, start + rows :]
        if block.size:
            vals = buf[: block.size]
            np.copyto(vals.reshape(block.shape), block)
            yield vals
    yield corners


def _grid_around(med: float, size: int) -> np.ndarray:
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
    matters for the decisions. Squared distances are computed once, and the
    one n x n float64 array of a call holds them; each grid value evaluates
    the kernel in row strips of about _LOO_STRIP elements into one reused
    buffer and sums each strip per class while it is in cache. More than
    MAX_LOO_POINTS points are refused before anything is allocated. With
    no grid given and at most _MEDIAN_SUBSAMPLE points, the default grid's
    median is taken from the same distances.

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
            f"leave-one-out on {n} points needs one {n}x{n} float64 matrix "
            f"({8 * n * n / 1e9:.1f} GB); above {MAX_LOO_POINTS} points, "
            "subsample with --cv-subsample"
        )
    d2 = None
    if grid is None:
        if n <= _MEDIAN_SUBSAMPLE:  # the median's sample is every point
            d2 = sym_sq_dists(x)
            grid = _grid_around(_median_distance(d2), GRID_SIZE)
        else:
            grid = default_lengthscale_grid(x)
    grid = _validated_grid(grid)
    kernels = _grid_kernels(kernel_family, grid)
    if d2 is None:
        d2 = sym_sq_dists(x)
    q = train.num_classes
    onehot = np.zeros((n, q))
    onehot[np.arange(n), y - 1] = 1.0
    rows = max(1, _LOO_STRIP // n)
    strip = np.empty((min(rows, n), n))
    class_sums = np.empty((n, q))  # attraction of each point to each class
    errors = np.empty(len(grid))
    for gi, kern in enumerate(kernels):
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            k = kern._from_sqdist(d2[start:stop], out=strip[: stop - start])
            np.matmul(k, onehot, out=class_sums[start:stop])
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
