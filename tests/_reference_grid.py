"""Reference default length-scale grid: the median of every pairwise distance.

This is the straightforward form of ``coxcut.cv.default_lengthscale_grid``:
it builds the whole strict upper triangle of squared distances
(``sq_dist_triangle_reference``), takes its square roots and their
``np.median``. The distances are those of the program's own strip formula,
``kernels._sq_dists`` on the same rows and the same columns: for each row
strip of ``kernels.upper_strips``, rows start..stop-1 against the points
from start on. BLAS may round another shape of product differently in the
last bit, so this keeps the comparison exact on any BLAS build.
``default_lengthscale_grid`` selects the middle order statistics of the
triangle by bracketing over those strips, without storing the triangle,
and takes roots of those only; tests require both to give bit-identical
grids.
"""

import numpy as np

from coxcut.cv import _MEDIAN_SUBSAMPLE, GRID_SIZE, GRID_SPAN
from coxcut.kernels import STRIP_ELEMENTS, _sq_dists


def sq_dist_triangle_reference(x):
    """The squared distances above the diagonal, in row-major order."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    r = max(1, STRIP_ELEMENTS // max(1, n))
    parts = [np.empty(0)]
    for start in range(0, n - 1, r):
        stop = min(start + r, n - 1)
        block = _sq_dists(x[start:stop], x[start:])
        parts.append(block[np.triu_indices(stop - start, 1, n - start)])
    return np.concatenate(parts)


def default_lengthscale_grid_reference(covariates, size: int = GRID_SIZE, seed: int = 0):
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if len(x) > _MEDIAN_SUBSAMPLE:
        x = x[np.random.default_rng(seed).permutation(len(x))[:_MEDIAN_SUBSAMPLE]]
    med = float(np.median(np.sqrt(sq_dist_triangle_reference(x))))
    if not med > 0:
        med = 1.0
    return np.geomspace(GRID_SPAN[0] * med, GRID_SPAN[1] * med, size)
