"""Reference default length-scale grid: the median of every pairwise distance.

This is the straightforward form of ``coxcut.cv.default_lengthscale_grid``:
it takes the square root of the whole strict upper triangle of
``sym_sq_dists`` (picked with ``np.triu_indices``) and its ``np.median``.
``default_lengthscale_grid`` gathers the triangle row by row, partitions it
in place and takes roots of the middle order statistics only; tests require
both to give bit-identical grids.
"""

import numpy as np

from coxcut.cv import _MEDIAN_SUBSAMPLE, GRID_SIZE, GRID_SPAN
from coxcut.kernels import sym_sq_dists


def default_lengthscale_grid_reference(covariates, size: int = GRID_SIZE, seed: int = 0):
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if len(x) > _MEDIAN_SUBSAMPLE:
        x = x[np.random.default_rng(seed).permutation(len(x))[:_MEDIAN_SUBSAMPLE]]
    m = len(x)
    med = float(np.median(np.sqrt(sym_sq_dists(x)[np.triu_indices(m, 1)])))
    if not med > 0:
        med = 1.0
    return np.geomspace(GRID_SPAN[0] * med, GRID_SPAN[1] * med, size)
