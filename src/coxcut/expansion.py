"""Multiclass MAP labeling by expansion moves, and the end-to-end solver.

An expansion move for label alpha lets every site either keep its current
label or switch to alpha; that binary subproblem inherits the min-cut
condition from the full energy and is solved exactly by ``binary_map``.
Sweeping labels in ascending order until no move improves the energy gives
a deterministic strong local optimum (for two classes, the global optimum).

Each move is reduced before it is cut (Alahari, Kohli & Torr 2008): a site
that already carries alpha has the same energy whether it keeps or
switches, so only the other sites enter the binary sub-energy. A pair with
one such fixed end becomes a unary term on its free end, and a pair with
both ends fixed is a constant of the move and is left out. A pair with
both ends free is again a Potts pair, with two weight columns: its weight
at the sites' common label when both keep it, the alpha weight when both
switch, and 0 whenever their labels differ. A move in which every site
already carries alpha returns the labeling without a cut.

The sweeps stop early as well. An accepted alpha move minimizes over every
labeling in which each site keeps its previous label or takes alpha; a
retry of alpha from the result ranges over a subset of those, so it cannot
be accepted (Boykov, Veksler & Zabih 2001). Once a move has been accepted,
the loop therefore stops after Q - 1 consecutive rejections, where a full
ascending sweep would also retry the last accepted label and repeat the
rejected moves on an unchanged labeling.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .mincut import binary_map
from .mrf import EnergyGraph, _check_labeling, build_energy, energy_of
# Not called here; kept importable because perfbench/tracing.py wraps this name.
from .mrf import check_pairwise_representable  # noqa: F401

# Strict improvement required to accept a move; guards against cycling on
# quantization noise.
MOVE_TOL = 1e-12


def expansion_move(energy: EnergyGraph, labels, alpha: int) -> tuple[np.ndarray, float]:
    """Best labeling where each site keeps its label or switches to alpha."""
    y = _check_labeling(energy, labels)
    if not 1 <= alpha <= energy.num_labels:
        raise ValueError(f"alpha must lie in {{1..{energy.num_labels}}}, got {alpha}")
    a0 = alpha - 1
    cur = y - 1
    free = np.flatnonzero(cur != a0)
    if not len(free):
        return y.copy(), energy_of(energy, y)
    remap = np.full(energy.num_sites, -1, dtype=np.int64)  # site -> free index
    remap[free] = np.arange(len(free))
    keep = energy.unary[free, cur[free]]
    switch = energy.unary[free, a0]
    w = energy.weights
    w_alpha = w[:, energy.column[a0]]
    ri, rj = remap[energy.pair_i], remap[energy.pair_j]
    free_i, free_j = ri >= 0, rj >= 0
    # a pair with one end at alpha adds -w_alpha to the other end's switch unary
    fixed_i = np.flatnonzero(~free_i & free_j)
    fixed_j = np.flatnonzero(free_i & ~free_j)
    ends = np.concatenate([rj[fixed_i], ri[fixed_j]])
    switch = switch - np.bincount(ends, w_alpha[np.concatenate([fixed_i, fixed_j])], len(free))
    # a pair with both ends free keeps its weight if both keep the same label
    # and takes w_alpha if both switch; its labels differ otherwise
    both = np.flatnonzero(free_i & free_j)
    bi, bj = cur[energy.pair_i[both]], cur[energy.pair_j[both]]
    sub_weights = np.column_stack([w[both, energy.column[bi]] * (bi == bj), w_alpha[both]])
    sub = EnergyGraph(np.column_stack([keep, switch]), ri[both], rj[both], sub_weights, [0, 1])
    candidate = y.copy()
    candidate[free[binary_map(sub) == 2]] = alpha
    return candidate, energy_of(energy, candidate)


def alpha_expansion(energy: EnergyGraph, init, history: list | None = None) -> np.ndarray:
    """Cycle expansion moves over the labels from ``init`` until none can improve.

    Labels are tried in ascending order, wrapping around. Before any move is
    accepted the loop stops after one whole sweep of rejections; afterwards
    it stops after Q - 1 consecutive rejections, since the retry of the last
    accepted label cannot be accepted. If ``history`` is given, the initial
    energy and the energy after every accepted move are appended to it.
    """
    y = _check_labeling(energy, init).copy()
    e = energy_of(energy, y)
    if history is not None:
        history.append(e)
    q = energy.num_labels
    alpha, rejected, limit = 1, 0, q
    while rejected < limit:
        candidate, e_new = expansion_move(energy, y, alpha)
        if e_new < e - MOVE_TOL:
            y, e = candidate, e_new
            rejected, limit = 0, q - 1
            if history is not None:
                history.append(e)
        else:
            rejected += 1
        alpha = alpha % q + 1
    return y


def ssl_solve(models, labeled: Dataset, unlabeled) -> np.ndarray:
    """MAP labels for the unlabeled covariates given class models and labeled data.

    Two classes are solved exactly by min-cut; more classes run expansion
    moves initialized from the per-site supervised prediction.
    """
    if labeled is None or not np.any(labeled.labeled_mask):
        raise ValueError("semi-supervised solving needs at least one labeled point")
    energy = build_energy(models, labeled, unlabeled)
    if energy.num_labels == 2:
        return binary_map(energy)
    init = np.argmin(energy.unary, axis=1) + 1  # supervised prediction per site
    return alpha_expansion(energy, init)
