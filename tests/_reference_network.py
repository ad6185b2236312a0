"""Reference min-cut reduction: each pair split onto the terminal arcs.

This is the earlier form of ``coxcut.build_flow_network``. It writes each
representable table [[A, B], [C, D]] as

    E(x1, x2) = A + (C - A) x1 + (D - C) x2 + (B + C - A - D)(1 - x1) x2

so every pair adds C - A to the terminal arc of its lower site and D - C to
that of its higher one, plus one one-way arc of capacity B + C - A - D.
Max flow then has to push every coupling through the terminals. Its
quantization is the same, so for every labeling its cut plus offset equals
that of ``build_flow_network``; tests hand it the table form of the same
energy (``_reference_fold.table_energy``) and compare the two networks cut
by cut and the labelings their minimum cuts give.
"""

import math

import numpy as np

from _reference_fold import TableEnergy
from coxcut.mincut import _INT_HEADROOM_BITS, _MAX_QUANT_BITS, FlowNetwork, QuantizationRecord
from coxcut.mrf import REPRESENTABILITY_TOL


def build_flow_network_reference(energy: TableEnergy) -> tuple[FlowNetwork, QuantizationRecord]:
    """Reduce a binary energy to a flow network with integer capacities.

    Sites are nodes 0..U-1, the source is node U, the sink node U+1. For
    every labeling x (x_k = 0 iff site k on the source side), the capacity
    of the corresponding cut equals quantized_energy(x) - offset.
    """
    if energy.num_labels != 2:
        raise ValueError(f"min-cut reduction needs a binary energy, got Q={energy.num_labels}")
    t = energy.tables
    if energy.num_pairs:
        slack = t[:, 0, 1] + t[:, 1, 0] - t[:, 0, 0] - t[:, 1, 1]
        bad = np.flatnonzero(slack < -REPRESENTABILITY_TOL)
        if len(bad):
            p = int(bad[0])
            raise ValueError(
                f"pairwise energy at sites ({int(energy.pair_i[p])}, {int(energy.pair_j[p])}) "
                f"violates the min-cut condition (slack {slack[p]:.3e})"
            )

    u = energy.num_sites
    n_terms = u + energy.num_pairs + 1
    bits = min(_MAX_QUANT_BITS, _INT_HEADROOM_BITS - max(1, math.ceil(math.log2(n_terms + 1))))
    # floor keeps the scale finite for (near-)zero energies
    max_abs = max(
        float(np.abs(energy.unary).max(initial=0.0)),
        float(np.abs(t).max(initial=0.0)),
        2.0**bits * 1e-300,
    )
    scale = 2.0**bits / max_abs

    qu = np.rint(energy.unary * scale).astype(np.int64)
    # Diagonals rounded down, off-diagonals up: keeps every pairwise arc
    # capacity non-negative without clamping (error < 1 quantum per entry).
    qa = np.floor(t[:, 0, 0] * scale).astype(np.int64)
    qd = np.floor(t[:, 1, 1] * scale).astype(np.int64)
    qb = np.ceil(t[:, 0, 1] * scale).astype(np.int64)
    qc = np.ceil(t[:, 1, 0] * scale).astype(np.int64)
    pair_cap = np.maximum(qb + qc - qa - qd, 0)  # < 0 only within the tolerance band

    theta = (qu[:, 1] - qu[:, 0]).copy()
    offset = int(qu[:, 0].sum())
    if energy.num_pairs:
        np.add.at(theta, energy.pair_i, qc - qa)
        np.add.at(theta, energy.pair_j, qd - qc)
        offset += int(qa.sum())
    offset += int(theta[theta < 0].sum())

    source, sink = u, u + 1
    # terminal arcs in site order (source -> k for theta > 0, k -> sink for
    # theta < 0), then every pair arc with positive capacity
    ks = np.flatnonzero(theta)
    up = theta[ks] > 0
    kept = pair_cap > 0
    network = FlowNetwork.from_arrays(
        u + 2, source, sink,
        np.concatenate([np.where(up, source, ks), energy.pair_i[kept]]),
        np.concatenate([np.where(up, ks, sink), energy.pair_j[kept]]),
        np.concatenate([np.abs(theta[ks]), pair_cap[kept]]),
    )
    return network, QuantizationRecord(scale=scale, offset=offset, bits=bits)
