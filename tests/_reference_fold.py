"""Reference binary solver over general 2x2 pair tables, with the fold.

This is the earlier form of ``coxcut.build_flow_network`` and of the flip
polish in ``coxcut.binary_map``, from when every pair carried an explicit
table [[A, B], [C, D]]. The reduction reparametrizes it with B' = B - A and
C' = C - D, folds a negative side onto the terminals and clamps inside the
tolerance band. ``build_flow_network`` now takes the weights of Potts pairs
alone, where B' = w1 and C' = w2 are never negative; tests hand this
reference the ``pair_tables`` of the same energy and require the same arcs,
capacities, scale, bits and offset, bit for bit.

``binary_map_folded`` also solves table energies that the weight form
cannot hold: the reference expansion's sub-energies over all sites, where
a pair with one end at alpha has the table [[0, -w], [0, -w]].
"""

import math
from dataclasses import dataclass

import numpy as np

from coxcut.mincut import (
    _INT_HEADROOM_BITS,
    _MAX_QUANT_BITS,
    FlowNetwork,
    QuantizationRecord,
    max_flow,
)
from coxcut.mrf import REPRESENTABILITY_TOL, pair_tables


@dataclass
class TableEnergy:
    """Unary energies and an explicit (P, Q, Q) table per site pair."""

    unary: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    tables: np.ndarray

    @property
    def num_sites(self):
        return self.unary.shape[0]

    @property
    def num_labels(self):
        return self.unary.shape[1]

    @property
    def num_pairs(self):
        return len(self.pair_i)


def table_energy(energy):
    """The table form of a weight-form ``EnergyGraph`` (its constant left out)."""
    return TableEnergy(energy.unary, energy.pair_i, energy.pair_j, pair_tables(energy))


def build_flow_network_folded(energy: TableEnergy) -> tuple[FlowNetwork, QuantizationRecord]:
    if energy.num_labels != 2:
        raise ValueError(f"min-cut reduction needs a binary energy, got Q={energy.num_labels}")
    t = energy.tables
    unary_max = float(np.abs(energy.unary).max(initial=0.0))
    table_max = float(np.abs(t).max(initial=0.0))
    if not (math.isfinite(unary_max) and math.isfinite(table_max)):
        raise ValueError("non-finite energy")
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
    max_abs = max(unary_max, table_max, 2.0**bits * 1e-300)
    scale = 2.0**bits / max_abs

    qu = np.rint(energy.unary * scale).astype(np.int64)
    # Diagonals rounded down, off-diagonals up: keeps B' + C' non-negative
    qa = np.floor(t[:, 0, 0] * scale).astype(np.int64)
    qd = np.floor(t[:, 1, 1] * scale).astype(np.int64)
    fwd = np.ceil(t[:, 0, 1] * scale).astype(np.int64) - qa  # B'
    rev = np.ceil(t[:, 1, 0] * scale).astype(np.int64) - qd  # C'
    # Fold a negative side onto the terminals: site i's unary gains shift and
    # site j's loses it. If both sides are negative (only inside the
    # tolerance band), C' is folded and the forward arc is clamped at 0.
    shift = np.where(rev < 0, rev, np.maximum(-fwd, 0))
    fwd += shift
    rev -= shift
    np.maximum(fwd, 0, out=fwd)
    np.maximum(rev, 0, out=rev)

    theta = qu[:, 1] - qu[:, 0]
    offset = int(qu[:, 0].sum())
    if energy.num_pairs:
        np.add.at(theta, energy.pair_i, qd - qa + shift)
        np.add.at(theta, energy.pair_j, -shift)
        offset += int(qa.sum())
    offset += int(theta[theta < 0].sum())

    source, sink = u, u + 1
    ks = np.flatnonzero(theta)
    up = theta[ks] > 0
    kept = np.flatnonzero(fwd + rev)
    network = FlowNetwork.from_arrays(
        u + 2, source, sink,
        np.concatenate([np.where(up, source, ks), energy.pair_i[kept]]),
        np.concatenate([np.where(up, ks, sink), energy.pair_j[kept]]),
        np.concatenate([np.abs(theta[ks]), fwd[kept]]),
        np.concatenate([np.zeros(len(ks), dtype=np.int64), rev[kept]]),
    )
    return network, QuantizationRecord(scale=scale, offset=offset, bits=bits)


def flip_polish_folded(energy: TableEnergy, labels):
    labels = labels.copy()
    sites = np.arange(energy.num_sites)
    while True:
        cur = labels - 1
        alt = 1 - cur
        delta = energy.unary[sites, alt] - energy.unary[sites, cur]
        if energy.num_pairs:
            pr = np.arange(energy.num_pairs)
            ci, cj = cur[energy.pair_i], cur[energy.pair_j]
            now = energy.tables[pr, ci, cj]
            np.add.at(delta, energy.pair_i, energy.tables[pr, 1 - ci, cj] - now)
            np.add.at(delta, energy.pair_j, energy.tables[pr, ci, 1 - cj] - now)
        k = int(np.argmin(delta))
        if delta[k] >= 0.0:
            return labels
        labels[k] = 3 - labels[k]


def binary_map_folded(energy: TableEnergy):
    network, _ = build_flow_network_folded(energy)
    _, source_side = max_flow(network)
    labels = np.where(source_side[: energy.num_sites], 1, 2).astype(np.int64)
    return flip_polish_folded(energy, labels)
