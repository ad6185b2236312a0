"""Reference leave-one-out: one fresh kernel matrix per grid value.

This is the straightforward form of ``coxcut.cv.loo_cv``: for every length
scale it builds the full n x n covariance matrix, sums it per class and
drops each point's self term. The matrix is built with ``Kernel.cross``,
the program's own strip formula (``kernels._sq_dists``) on the same rows
and the same columns, row strips of the height ``loo_cv`` uses against
every point, with each point's own entry set to C(0); BLAS may round
another shape of product differently in the last bit, so this keeps the
comparison exact on any BLAS build. The class sums are taken in the same
row strips, one BLAS call of the same shape per strip. ``loo_cv`` walks the
strips once, evaluating every grid value's kernel into a reused buffer,
and holds no n x n array; tests require both to give bit-identical tables.
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
        g = np.vstack([kern.cross(x[i : i + r], x) for i in range(0, n, r)])
        np.fill_diagonal(g, kern.signal_variance)  # C(0) of each point's own entry
        # (n, q): total attraction to each class
        class_sums = np.vstack([g[i : i + r] @ onehot for i in range(0, n, r)])
        class_sums[np.arange(n), y - 1] -= kern.signal_variance  # drop self term
        pred = np.argmax(class_sums, axis=1) + 1
        errors[gi] = float(np.mean(pred != y))
    table = np.column_stack([grid, errors])
    return _best(grid, errors), table
