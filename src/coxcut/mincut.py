"""Exact binary MAP labeling via an s-t min cut.

Each pairwise table [[A, B], [C, D]] with A + D <= B + C decomposes as

    E(x1, x2) = A + (C - A) x1 + (D - C) x2 + (B + C - A - D)(1 - x1) x2

so the energy becomes terminal arcs (per-site net coefficients) plus one
site-to-site arc per pair, all with non-negative capacity. With the
convention x = 0 for the source side, the capacity of any s/t cut equals
the (quantized) energy of the induced labeling minus a fixed offset, hence
a minimum cut is a minimum-energy labeling. Capacities are integers so the
augmenting-path solver terminates and conservation checks are exact; the
returned labeling is re-evaluated in unquantized energy and polished by
single-site flips, which removes any quantization-induced misordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mrf import REPRESENTABILITY_TOL, EnergyGraph

# Quantization scale is 2**bits / (largest absolute energy entry), with bits
# capped so the worst-case sum of all quantized terms stays far below 2**63.
_MAX_QUANT_BITS = 48
_INT_HEADROOM_BITS = 62


@dataclass
class FlowNetwork:
    """Capacitated directed graph as a flat list of arc pairs.

    Arcs are stored in pairs: arc a and arc a^1 are mutual reverses, and the
    tail of arc a is ``arc_to[a ^ 1]``. ``arc_cap`` holds residual capacities
    and is mutated by ``max_flow``; ``arc_cap0`` keeps the original
    capacities for cut/conservation checks.
    """

    num_nodes: int
    source: int
    sink: int
    arc_to: np.ndarray
    arc_cap: np.ndarray
    arc_cap0: np.ndarray

    @classmethod
    def from_arrays(
        cls, num_nodes: int, source: int, sink: int, tails, heads, caps
    ) -> "FlowNetwork":
        """Build a network from parallel arrays of arc tails, heads and integer capacities."""
        tails, heads, caps = (np.asarray(v, dtype=np.int64) for v in (tails, heads, caps))
        negative = np.flatnonzero(caps < 0)
        if len(negative):
            a = int(negative[0])
            raise ValueError(f"negative capacity {caps[a]} on arc ({tails[a]}, {heads[a]})")
        arc_to = np.empty(2 * len(caps), dtype=np.int64)
        arc_to[0::2] = heads
        arc_to[1::2] = tails
        arc_cap = np.zeros(2 * len(caps), dtype=np.int64)
        arc_cap[0::2] = caps
        return cls(num_nodes, source, sink, arc_to, arc_cap, arc_cap.copy())

    @classmethod
    def from_arcs(cls, num_nodes: int, source: int, sink: int, arcs) -> "FlowNetwork":
        """Build a network from (tail, head, capacity) triples (integer capacities)."""
        tails, heads, caps = np.array(arcs, dtype=np.int64).reshape(-1, 3).T
        return cls.from_arrays(num_nodes, source, sink, tails, heads, caps)


@dataclass(frozen=True)
class QuantizationRecord:
    """How float energies were mapped to integer capacities."""

    scale: float
    offset: int
    bits: int


def _dinic(start, end, to, rev, cap, source, sink):
    # Dinic's algorithm over plain lists in CSR order: node u owns arc slots
    # start[u]..end[u]-1, slot a leads to to[a] and rev[a] is its reverse
    # slot. cap holds Python ints and is updated in place. Each phase builds
    # a BFS level graph and finds a blocking flow by depth-first search with
    # current-arc pointers; after an augmentation the search resumes from the
    # tail of the first saturated arc. Returns (flow, nodes reachable from
    # the source in the final residual graph).
    n = len(start)
    total = 0
    while True:
        level = [-1] * n
        level[source] = 0
        queue = [source]
        for u in queue:  # appending while iterating visits every queued node
            lu = level[u]
            if lu == level[sink]:
                break  # deeper nodes cannot lie on a shortest augmenting path
            lu += 1
            for a in range(start[u], end[u]):
                if cap[a]:
                    v = to[a]
                    if level[v] < 0:
                        level[v] = lu
                        queue.append(v)
        if level[sink] < 0:
            return total, queue
        cur = start[:]
        path = []
        u = source
        while True:
            if u == sink:
                bottleneck = min([cap[a] for a in path])
                for a in path:
                    cap[a] -= bottleneck
                    cap[rev[a]] += bottleneck
                total += bottleneck
                for i, a in enumerate(path):
                    if not cap[a]:
                        break
                del path[i:]
                u = to[rev[a]]
                continue
            a, e, want = cur[u], end[u], level[u] + 1
            while a < e and not (cap[a] and level[to[a]] == want):
                a += 1
            cur[u] = a
            if a < e:
                path.append(a)
                u = to[a]
            else:
                level[u] = -1  # dead end for the rest of this phase
                if not path:
                    break
                a = path.pop()
                u = to[rev[a]]
                cur[u] = a + 1


def max_flow(network: FlowNetwork) -> tuple[int, np.ndarray]:
    """Solve the network in place; returns (flow value, source-side mask per node).

    The source side is the set of nodes reachable from the source in the
    final residual graph: the unique minimal source side of a minimum cut.
    """
    n, m = network.num_nodes, len(network.arc_to)
    tails = network.arc_to[np.arange(m) ^ 1]
    order = np.argsort(tails, kind="stable")  # CSR slot -> arc
    slot = np.empty(m, dtype=np.int64)
    slot[order] = np.arange(m)  # arc -> CSR slot
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=bounds[1:])
    cap = network.arc_cap[order].tolist()
    flow, reached = _dinic(
        bounds[:-1].tolist(), bounds[1:].tolist(), network.arc_to[order].tolist(),
        slot[order ^ 1].tolist(), cap, network.source, network.sink,
    )
    network.arc_cap[order] = cap
    source_side = np.zeros(n, dtype=bool)
    source_side[reached] = True
    return flow, source_side


def build_flow_network(energy: EnergyGraph) -> tuple[FlowNetwork, QuantizationRecord]:
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


def _flip_polish(energy: EnergyGraph, labels: np.ndarray) -> np.ndarray:
    # Greedy single-site flips in unquantized energy; a global optimum
    # admits none, so this only repairs quantization near-ties.
    labels = labels.copy()
    u = energy.num_sites
    rng_sites = np.arange(u)
    while True:
        cur = labels - 1
        alt = 1 - cur
        delta = energy.unary[rng_sites, alt] - energy.unary[rng_sites, cur]
        if energy.num_pairs:
            pr = np.arange(energy.num_pairs)
            ci, cj = cur[energy.pair_i], cur[energy.pair_j]
            now = energy.tables[pr, ci, cj]
            np.add.at(delta, energy.pair_i, energy.tables[pr, 1 - ci, cj] - now)
            np.add.at(delta, energy.pair_j, energy.tables[pr, ci, 1 - cj] - now)
        k = int(np.argmin(delta))
        if delta[k] >= 0.0:
            return labels
        labels[k] = 3 - labels[k]  # flip 1 <-> 2


def binary_map(energy: EnergyGraph) -> np.ndarray:
    """Minimum-energy binary labeling (source side = class 1)."""
    network, _ = build_flow_network(energy)
    _, source_side = max_flow(network)
    labels = np.where(source_side[: energy.num_sites], 1, 2).astype(np.int64)
    return _flip_polish(energy, labels)


def cut_capacity(network: FlowNetwork, source_side: np.ndarray) -> int:
    """Total original capacity of arcs from the source side to the sink side."""
    tails = network.arc_to[np.arange(len(network.arc_to)) ^ 1]
    crossing = source_side[tails] & ~source_side[network.arc_to]
    return int(network.arc_cap0[crossing].sum())


def node_balances(network: FlowNetwork) -> np.ndarray:
    """Net outflow per node under the current flow (exact integer arithmetic)."""
    balance = np.zeros(network.num_nodes, dtype=np.int64)
    even = np.arange(0, len(network.arc_to), 2)
    net = network.arc_cap0[even] - network.arc_cap[even]  # signed flow tail -> head
    np.add.at(balance, network.arc_to[even ^ 1], net)
    np.add.at(balance, network.arc_to[even], -net)
    return balance
