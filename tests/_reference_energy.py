"""Reference energy construction: every site pair built, then the cutoff applied.

This is the straightforward form of ``coxcut.build_energy``: it computes
the squared distances of all U(U-1)/2 pairs, evaluates each class's kernel
on all of them, fills a table for every pair from ``np.triu_indices`` and
only then drops the pairs whose entries all lie below the cutoff. It
returns the explicit (P, Q, Q) tables. The distances follow the strip
formula that ``build_energy`` uses: ``kernels._sq_dists`` of rows
start..stop-1 against the points from start on, for each strip of
``kernels.upper_strips`` (``sq_dists_reference``). ``build_energy`` keeps
only the pairs within the largest ``Kernel.reach_sq_dist(cutoff)`` while
it walks the strips, evaluates each distinct kernel on those pairs only and
stores one weight column per kernel for the kept pairs; tests require its
``pair_tables`` to be bit-identical to these tables.

The unary of site k and class a is -(mean_a + C_a(0)/2) minus the site's
closed-form kernel sum over the labeled points of class a, accumulated over
512-point tiles of those points as ``Kernel.row_sums`` does, since
``build_energy`` takes its unaries from the supervised activations.
"""

from types import SimpleNamespace

import numpy as np

from _reference_kernels import row_sums_reference
from coxcut.kernels import _sq_dists, upper_strips
from coxcut.mrf import PAIR_CUTOFF


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


def build_energy_reference(models, labeled, unlabeled, cutoff=PAIR_CUTOFF):
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
            constant -= len(pts) * m.mean + 0.5 * m.kernel.gram(pts).sum()

    pi, pj = np.triu_indices(u, k=1)
    d2 = sq_dists_reference(x_u)[pi, pj]
    tables = np.zeros((len(pi), q, q))
    for a, m in enumerate(models):
        tables[:, a, a] = -m.kernel._from_sqdist(d2)
    if cutoff is not None and len(pi):
        keep = np.abs(tables).max(axis=(1, 2)) >= cutoff
        pi, pj, tables = pi[keep], pj[keep], tables[keep]
    return SimpleNamespace(unary=unary, pair_i=pi, pair_j=pj, tables=tables, constant=constant)
