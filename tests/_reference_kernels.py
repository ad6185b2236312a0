"""Kernel values and kernel sums written out of place, as oracles for ``Kernel``.

``Kernel`` evaluates its matrices in place, in chunks and (for ``row_sums``)
in blocks of rows and tiles of columns. These are the same formulas over
whole matrices: ``row_sums_reference`` evaluates the full squared-distance
matrix, applies the closed form and adds each _SUM_TILE-column tile's row
sums in tile order, which is what ``row_sums`` must match bit for bit.
"""

import numpy as np

from coxcut.kernels import _SUM_TILE


def closed_form(k, d2):
    """The kernel formula at squared distances ``d2``, before in-place evaluation."""
    if k.family == "se":
        return k.signal_variance * np.exp(-d2 / (2.0 * k.length_scale**2))
    return k.signal_variance * np.exp(-np.sqrt(d2) / k.length_scale)


def sq_dists(a, b):
    """(|a_i|^2 + |b_j|^2) - 2 a_i.b_j clamped at 0, over the full matrix."""
    return np.maximum(np.sum(a * a, 1)[:, None] + np.sum(b * b, 1)[None, :] - 2.0 * (a @ b.T), 0.0)


def row_sums_reference(k, a, b):
    """sum_j C(a_i - b_j), accumulated tile by tile as ``Kernel.row_sums`` does."""
    d2 = sq_dists(a, b)
    out = np.zeros(len(a))
    for s in range(0, len(b), _SUM_TILE):
        out += closed_form(k, d2[:, s : s + _SUM_TILE]).sum(axis=1)
    return out
