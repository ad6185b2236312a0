"""Reference energy construction: every site pair built, then the cutoff applied.

This is the straightforward form of ``coxcut.build_energy``: it evaluates
``Kernel.gram`` on the unlabeled sites once per class, fills a table for
all U(U-1)/2 pairs from ``np.triu_indices`` and only then drops the pairs
whose entries all lie below the cutoff. It returns the explicit (P, Q, Q)
tables. ``build_energy`` evaluates one gram per distinct kernel and stores
one weight column per kernel for the kept pairs only; tests require its
``pair_tables`` to be bit-identical to these tables.

The unary of site k and class a is -(mean_a + C_a(0)/2) minus the site's
closed-form kernel sum over the labeled points of class a, accumulated over
512-point tiles of those points as ``Kernel.row_sums`` does, since
``build_energy`` takes its unaries from the supervised activations.
"""

from types import SimpleNamespace

import numpy as np

from _reference_kernels import row_sums_reference
from coxcut.mrf import PAIR_CUTOFF


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
    tables = np.zeros((len(pi), q, q))
    for a, m in enumerate(models):
        g = m.kernel.gram(x_u)
        tables[:, a, a] = -g[pi, pj]
    if cutoff is not None and len(pi):
        keep = np.abs(tables).max(axis=(1, 2)) >= cutoff
        pi, pj, tables = pi[keep], pj[keep], tables[keep]
    return SimpleNamespace(unary=unary, pair_i=pi, pair_j=pj, tables=tables, constant=constant)
