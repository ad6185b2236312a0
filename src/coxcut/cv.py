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
from .kernels import STRIP_ELEMENTS, Kernel, _sq_dists, upper_strip_sq_dists

GRID_SIZE = 16
GRID_SPAN = (0.01, 100.0)  # multiples of the median pairwise distance
_MEDIAN_SUBSAMPLE = 2048
# Largest leave-one-out set. A call holds a few row strips, but its time grows
# as n^2 per grid value: at this size each grid value evaluates 67M kernel entries.
MAX_LOO_POINTS = 8192
_MEDIAN_SAMPLE = 2**14  # matrix entries whose order statistics bracket the median


def default_lengthscale_grid(covariates, seed: int = 0) -> np.ndarray:
    """Log-spaced grid of GRID_SIZE values spanning GRID_SPAN times the median pairwise distance.

    Above _MEDIAN_SUBSAMPLE points the median is taken over a random sample
    of that many points. No n x n array is made: the median is selected from
    row strips of squared distances computed on the fly.
    """
    return _grid_around(_sampled_median(covariates, seed))


def _sampled_median(covariates, seed: int = 0) -> float:
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if len(x) > _MEDIAN_SUBSAMPLE:
        x = x[np.random.default_rng(seed).permutation(len(x))[:_MEDIAN_SUBSAMPLE]]
    return _median_distance(x)


def _median_distance(x: np.ndarray) -> float:
    """Median pairwise distance of the (N, D) points ``x``, exact, from row strips.

    The squared distances are the strips of ``kernels.upper_strip_sq_dists``,
    the walk that ``build_energy`` and ``Kernel.upper_sum`` read, made afresh
    for each pass of the selection (_select_median). Its sample takes the
    picked point pairs' squared differences, 0 on the diagonal, which only
    steer it.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)

    def entries(flat):
        i, j = np.divmod(flat, n)
        return np.square(x[i] - x[j]).sum(axis=1)

    return _select_median(n, entries, lambda: upper_strip_sq_dists(x))


def _select_median(n: int, entries, strips) -> float:
    """Median of the square roots above the diagonal of an n x n matrix, never stored.

    ``entries(flat)`` gives the matrix entries at the flat indices i * n + j,
    and ``strips()`` a fresh walk along ``kernels.upper_strips``: (start,
    vals, upper) per strip, ``vals`` holding rows start..stop-1 from column
    start on and ``upper`` the mask of its diagonal block. Exact selection
    by bracketing (Floyd & Rivest 1975): _MEDIAN_SAMPLE entries, drawn with
    a fixed seed, give a value bracket [lo, hi] around the middle ranks.
    One pass over the strips counts the values <= lo and < hi and gathers
    those strictly between (about 3% of the pairs); ties at a bound are
    counted, never gathered. A rank the bracket misses widens it on that
    side, the old bound becoming the new opposite one, so a value tied at it
    is found from its two counts. The sample only steers the passes: the
    result is exact for any matrix of values above -inf, NaN sorting last as
    in a partition. sqrt is monotone, so the median is the mean of the roots
    of the middle order statistics.
    """
    pairs = n * (n - 1) // 2
    if not pairs:
        return 0.0
    ks = [pairs // 2] if pairs % 2 else [pairs // 2 - 1, pairs // 2]
    # entries drawn at random: a regular stride meets few columns in each row
    # and estimates the median like a subsample of points, much more coarsely
    picks = np.random.default_rng(0).integers(0, n * n, min(n * n, _MEDIAN_SAMPLE))
    sample = np.sort(entries(picks))
    m = int(np.count_nonzero(sample == sample))  # NaNs sort last; no bound comes from them
    # n diagonal zeros then every triangle value twice: rank k of the triangle
    # sits near rank n + 2k of the matrix
    width = math.isqrt(4 * m) + 1  # about four standard errors of a sample quantile
    lo_pos = max(-1, (n + 2 * ks[0]) * m // (n * n) - width)
    hi_pos = min(m, -(-(n + 2 * ks[-1]) * m // (n * n)) + width)
    le_at, lt_at, found = {}, {}, {}
    while True:
        lo = sample[lo_pos] if lo_pos >= 0 else -np.inf  # no squared distance is below 0
        hi = sample[hi_pos] if hi_pos < m else None  # None: no upper bound, NaN included
        le, lt, inside = _bracket_pass(strips(), lo, hi)
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


def _bracket_pass(strips, lo, hi):
    """(count <= lo, count < hi, values strictly between) over the upper triangle.

    ``hi`` None counts every value and gathers all those above ``lo``. Each
    strip's values are compared as they are handed over, its entries on and
    below the diagonal masked out by ``upper`` before the counts and the
    gather, so neither takes them.
    """
    le = lt = 0
    parts = []
    for _, vals, upper in strips:
        h = len(upper)
        at_lo = vals <= lo
        inside = np.ones_like(at_lo) if hi is None else vals < hi
        at_lo[:, :h] &= upper
        inside[:, :h] &= upper
        le += np.count_nonzero(at_lo)
        lt += np.count_nonzero(inside)
        np.greater(inside, at_lo, out=inside)  # < hi and not <= lo
        parts.append(vals[inside])
    return le, lt, np.concatenate(parts)


def _grid_around(med: float) -> np.ndarray:
    if not med > 0:
        med = 1.0
    return np.geomspace(GRID_SPAN[0] * med, GRID_SPAN[1] * med, GRID_SIZE)


def _validated_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("length-scale grid must be a non-empty 1-D sequence")
    if np.any(~np.isfinite(g)) or np.any(g <= 0):
        raise ValueError("length scales must be positive finite reals")
    return g


def _grid_kernels(kernel_family: str, grid, points) -> tuple[np.ndarray, list[Kernel]]:
    # The grid, automatic around the median distance of the stacked points,
    # and its kernels, built before any fit so that a bad value fails at
    # once; an automatic grid's values are not the user's, so its error
    # names the median.
    median = None
    if grid is None:
        median = _sampled_median(np.vstack([p for p in points if len(p)]))
        grid = _grid_around(median)
    grid = _validated_grid(grid)
    Kernel(kernel_family)  # an unknown family is reported as such
    try:
        return grid, [Kernel(kernel_family, 1.0, float(ls)) for ls in grid]
    except ValueError:
        if median is None:
            raise
        raise ValueError(
            f"the automatic length-scale grid, {GRID_SPAN[0]:g} to {GRID_SPAN[1]:g} times the "
            f"median pairwise distance {median!r}, is out of range for the {kernel_family} "
            "kernel; pass --grid"
        ) from None


def _best(grid: np.ndarray, errors: np.ndarray) -> float:
    tied = np.flatnonzero(errors == errors.min())
    return float(grid[tied].max())


def loo_cv(train: Dataset, kernel_family: str = "se", grid=None) -> tuple[float, np.ndarray]:
    """Leave-one-out 0-1 error per grid value; returns (best length scale, table).

    The table has one (length_scale, error) row per grid value. Means are
    zero and the kernel is shared across classes, so only the length scale
    matters for the decisions. The training set is walked once in row
    strips of about kernels.STRIP_ELEMENTS elements: each strip's squared
    distances to every point (``kernels._sq_dists``) go into one reused
    buffer, its own entries set to 0, and while it is in cache every grid
    value evaluates its kernel into a second buffer, sums it per class and
    counts the strip's wrong decisions. No n x n array is made. More than
    MAX_LOO_POINTS points are refused before anything is allocated. With no
    grid given, the default grid's median is selected from strips the same
    way (default_lengthscale_grid).

    Each point's own class sum includes the self term C(0), which is then
    subtracted. The round trip loses own-class neighbour sums below about
    1e-16 * C(0): they read as 0, so at the smallest length scales points
    are decided as if they had no neighbours of their own class and the
    error can read near 0.5.
    """
    x, y = train.labeled()
    n = len(x)
    if n < 2:
        raise ValueError("leave-one-out needs at least two labeled points")
    if n > MAX_LOO_POINTS:
        raise ValueError(
            f"leave-one-out on {n} points takes {n * n:,} kernel evaluations per grid "
            f"value; above {MAX_LOO_POINTS} points, subsample with --cv-subsample"
        )
    grid, kernels = _grid_kernels(kernel_family, grid, [x])
    q = train.num_classes
    onehot = np.zeros((n, q))
    onehot[np.arange(n), y - 1] = 1.0
    aa = np.sum(x * x, axis=1)
    rows = min(n, max(1, STRIP_ELEMENTS // n))
    d2_buf, k_buf = np.empty((rows, n)), np.empty((rows, n))
    class_sums = np.empty((rows, q))  # attraction of each strip point to each class
    wrong = np.zeros(len(grid), dtype=np.int64)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        h = stop - start
        d2 = _sq_dists(x[start:stop], x, aa[start:stop], aa, out=d2_buf[:h])
        d2[np.arange(h), np.arange(start, stop)] = 0.0
        own = np.arange(h), y[start:stop] - 1
        for gi, kern in enumerate(kernels):
            k = kern._from_sqdist(d2, out=k_buf[:h])
            sums = np.matmul(k, onehot, out=class_sums[:h])
            sums[own] -= kern.signal_variance  # drop self term
            wrong[gi] += np.count_nonzero(np.argmax(sums, axis=1) != own[1])
    errors = wrong / n
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
    grid, kernels = _grid_kernels(kernel_family, grid, [x, x_u])
    q = labeled.num_classes

    rng = np.random.default_rng(seed)
    folds = np.array_split(rng.permutation(n), k)
    errors = np.empty(len(grid))
    for gi, kern in enumerate(kernels):
        models = shared_models(q, kern)
        fold_errs = []
        for fold in folds:
            keep = np.setdiff1d(np.arange(n), fold)
            train = Dataset(x[keep], y[keep], q)
            pool = np.vstack([x_u, x[fold]]) if len(x_u) else x[fold]
            recovered = ssl_solve(models, train, pool)[len(x_u):]
            fold_errs.append(float(np.mean(recovered != y[fold])))
        errors[gi] = float(np.mean(fold_errs))
    table = np.column_stack([grid, errors])
    return _best(grid, errors), table
