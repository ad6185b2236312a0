"""Reference expansion moves: every site in every move, full sweeps to the end.

This is the straightforward form of ``coxcut.expansion_move`` and
``coxcut.alpha_expansion``: each move builds explicit 2x2 tables for a
binary sub-energy over all U sites and all pairs, including the sites that
already carry alpha, and solves it with the table-form solver of
``_reference_fold``; the loop repeats ascending sweeps over every label
until one whole sweep brings no decrease. ``expansion_move`` drops the
sites already at alpha, keeps its sub-energy in weight form and
``alpha_expansion`` stops after the last move that can still be accepted;
tests require both to give the same labelings and energies.
"""

import numpy as np

from _reference_fold import TableEnergy
from _reference_fold import binary_map_folded as binary_map
from coxcut.expansion import MOVE_TOL
from coxcut.mrf import _check_labeling, check_pairwise_representable, energy_of, pair_tables


def expansion_move_reference(energy, labels, alpha):
    y = _check_labeling(energy, labels)
    if not 1 <= alpha <= energy.num_labels:
        raise ValueError(f"alpha must lie in {{1..{energy.num_labels}}}, got {alpha}")
    a0 = alpha - 1
    cur = y - 1
    sites = np.arange(energy.num_sites)
    sub_unary = np.column_stack([energy.unary[sites, cur], energy.unary[:, a0]])
    tables = pair_tables(energy)
    pr = np.arange(energy.num_pairs)
    ci, cj = cur[energy.pair_i], cur[energy.pair_j]
    sub_tables = np.empty((energy.num_pairs, 2, 2))
    sub_tables[:, 0, 0] = tables[pr, ci, cj]
    sub_tables[:, 0, 1] = tables[pr, ci, a0]
    sub_tables[:, 1, 0] = tables[pr, a0, cj]
    sub_tables[:, 1, 1] = tables[pr, a0, a0]
    sub = TableEnergy(sub_unary, energy.pair_i, energy.pair_j, sub_tables)
    switch = binary_map(sub) == 2
    candidate = np.where(switch, alpha, y).astype(np.int64)
    return candidate, energy_of(energy, candidate)


def alpha_expansion_reference(energy, init, history=None):
    ok, witness = check_pairwise_representable(pair_tables(energy))
    if not ok:
        raise ValueError(f"energy is not pairwise graph-representable, witness {witness}")
    y = _check_labeling(energy, init).copy()
    e = energy_of(energy, y)
    if history is not None:
        history.append(e)
    improved = True
    while improved:
        improved = False
        for alpha in range(1, energy.num_labels + 1):
            candidate, e_new = expansion_move_reference(energy, y, alpha)
            if e_new < e - MOVE_TOL:
                y, e = candidate, e_new
                improved = True
                if history is not None:
                    history.append(e)
    return y
