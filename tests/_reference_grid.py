"""Reference default length-scale grid: the full distance matrix, then its median.

This is the straightforward form of ``coxcut.cv.default_lengthscale_grid``:
it takes the square root of every entry of the clamped n x n squared
distance matrix and the median of its upper triangle from
``np.triu_indices``. ``default_lengthscale_grid`` gathers the upper triangle
row by row and takes roots of the middle order statistics only; tests
require both to give bit-identical grids.
"""

import numpy as np

from coxcut.cv import _MEDIAN_SUBSAMPLE, GRID_SIZE, GRID_SPAN


def default_lengthscale_grid_reference(covariates, size: int = GRID_SIZE, seed: int = 0):
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if len(x) > _MEDIAN_SUBSAMPLE:
        x = x[np.random.default_rng(seed).permutation(len(x))[:_MEDIAN_SUBSAMPLE]]
    d2 = np.sum(x * x, axis=1)
    dists = np.sqrt(np.maximum(d2[:, None] + d2[None, :] - 2 * x @ x.T, 0.0))
    med = float(np.median(dists[np.triu_indices(len(x), k=1)]))
    if not med > 0:
        med = 1.0
    return np.geomspace(GRID_SPAN[0] * med, GRID_SPAN[1] * med, size)
