"""Reference leave-one-out: one fresh gram matrix per grid value.

This is the straightforward form of ``coxcut.cv.loo_cv``: for every length
scale it builds the full covariance matrix with ``Kernel.gram``, sums it
per class and drops each point's self term. The class sums are taken in the
row strips ``loo_cv`` uses, one BLAS call of the same shape per strip, so
the rounding matches on any BLAS build. ``loo_cv`` computes the squared
distances once and evaluates each strip's kernel into a reused buffer; tests
require both to give bit-identical tables.
"""

import numpy as np
from _reference_grid import default_lengthscale_grid_reference

from coxcut import Dataset, Kernel
from coxcut.cv import _best, _validated_grid
from coxcut.kernels import STRIP_ELEMENTS


def loo_cv_reference(train: Dataset, kernel_family: str = "se", grid=None):
    x, y = train.labeled()
    n = len(x)
    if n < 2:
        raise ValueError("leave-one-out needs at least two labeled points")
    if grid is None:
        grid = default_lengthscale_grid_reference(x)
    grid = _validated_grid(grid)
    q = train.num_classes
    onehot = np.zeros((n, q))
    onehot[np.arange(n), y - 1] = 1.0
    r = max(1, STRIP_ELEMENTS // n)
    errors = np.empty(len(grid))
    for gi, ls in enumerate(grid):
        kern = Kernel(kernel_family, 1.0, float(ls))
        g = kern.gram(x)
        # (n, q): total attraction to each class
        class_sums = np.vstack([g[i : i + r] @ onehot for i in range(0, n, r)])
        class_sums[np.arange(n), y - 1] -= kern.signal_variance  # drop self term
        pred = np.argmax(class_sums, axis=1) + 1
        errors[gi] = float(np.mean(pred != y))
    table = np.column_stack([grid, errors])
    return _best(grid, errors), table
