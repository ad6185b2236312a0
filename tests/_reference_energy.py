"""Reference energy construction: every site pair built, then the cutoff applied.

This is the straightforward form of ``coxcut.build_energy``: it computes
the squared distances of all U(U-1)/2 pairs, evaluates each class's kernel
on all of them, fills a table for every pair from ``np.triu_indices`` and
only then drops the pairs where no class reaches ``mrf.PAIR_CUTOFF`` times
its own C(0), read at call time. It returns the explicit (P, Q, Q) tables.
The distances follow the strip formula that ``build_energy`` uses:
``kernels._sq_dists`` of rows start..stop-1 against the points from start
on, for each strip of ``kernels.upper_strips`` (``sq_dists_reference``).
``build_energy`` keeps only the pairs within the largest
``Kernel.reach_sq_dist(PAIR_CUTOFF)`` while it walks the strips, evaluates
each distinct kernel on those pairs only and stores one weight column per
kernel for the kept pairs; tests require its ``pair_tables`` to be
bit-identical to these tables.

The unary of site k and class a is -(mean_a + C_a(0)/2) minus the site's
closed-form kernel sum over the labeled points of class a, accumulated over
512-point tiles of those points as ``Kernel.row_sums`` does, since
``build_energy`` takes its unaries from the supervised activations. The
constant is minus each labeled class's K * mean + (K * C(0) + 2 * upper) / 2,
where ``upper_sum_reference`` adds the strips' entries above the diagonal,
each strip summed as one array with the rest set to 0.
"""

from types import SimpleNamespace

import numpy as np

from _reference_kernels import row_sums_reference
from coxcut import mrf
from coxcut.kernels import _sq_dists, upper_strips


def sq_dists_reference(x):
    """U x U squared distances of the points ``x``, filled above the diagonal only.

    Row strip start..stop-1 of ``upper_strips`` holds ``_sq_dists`` of those
    rows against the points from start on, as ``build_energy`` computes it.
    """
    u = len(x)
    aa = np.sum(x * x, axis=1)
    d2 = np.zeros((u, u))
    for start, stop, _ in upper_strips(u):
        d2[start:stop, start:] = _sq_dists(x[start:stop], x[start:], aa[start:stop], aa[start:])
    return d2


def upper_sum_reference(kernel, x):
    """sum_{j<k} C(x_j - x_k): each strip of ``upper_strips`` summed on its own."""
    d2, total = sq_dists_reference(x), 0.0
    for start, stop, upper in upper_strips(len(x)):
        h = stop - start
        c = kernel._from_sqdist(d2[start:stop, start:])
        c[:, :h] = np.where(upper, c[:, :h], 0.0)
        total += float(c.sum())
    return total


def build_energy_reference(models, labeled, unlabeled):
    x_u = np.asarray(unlabeled, dtype=np.float64)
    if x_u.ndim == 1:
        x_u = x_u[:, None]
    u = x_u.shape[0]
    q = len(models)
    if labeled is not None:
        x_l, y_l = labeled.labeled()
    else:
        x_l = np.empty((0, x_u.shape[1]))
        y_l = np.empty(0, dtype=np.int64)

    unary = np.empty((u, q))
    constant = 0.0
    for a, m in enumerate(models):
        unary[:, a] = -(m.mean + 0.5 * m.kernel.signal_variance)
        pts = x_l[y_l == a + 1]
        if len(pts):
            unary[:, a] -= row_sums_reference(m.kernel, x_u, pts)
            k, c0 = len(pts), m.kernel.signal_variance
            constant -= k * m.mean + 0.5 * (k * c0 + 2.0 * upper_sum_reference(m.kernel, pts))

    pi, pj = np.triu_indices(u, k=1)
    d2 = sq_dists_reference(x_u)[pi, pj]
    tables = np.zeros((len(pi), q, q))
    for a, m in enumerate(models):
        tables[:, a, a] = -m.kernel._from_sqdist(d2)
    floors = np.array([mrf.PAIR_CUTOFF * m.kernel.signal_variance for m in models])
    keep = (-tables[:, np.arange(q), np.arange(q)] >= floors).any(axis=1)
    pi, pj, tables = pi[keep], pj[keep], tables[keep]
    return SimpleNamespace(unary=unary, pair_i=pi, pair_j=pj, tables=tables, constant=constant)
