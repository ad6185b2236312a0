"""Exact binary MAP labeling via an s-t min cut.

A binary energy's pairs are Potts pairs with weights w1, w2 >= 0: the
table [[A, B], [C, D]] is [[-w1, 0], [0, -w2]]. With the convention x = 0
for the source side (label 1), it is reparametrized as

    E(x1, x2) = A (1 - x1) + D x1 + B' (1 - x1) x2 + C' x1 (1 - x2)

with B' = B - A = w1 and C' = C - D = w2 (Kolmogorov & Zabih 2004). The
first two terms go to site 1's unary, so the pair reaches the terminals
only through D - A = w1 - w2, which is 0 when both labels share one
kernel. The rest is one arc pair between the sites: capacity B' on the
forward arc 1 -> 2 (cut when site 1 is on the source side and site 2 is
not) and C' on its reverse slot. Both are non-negative, so nothing has to
be moved onto the terminals. The per-site sums are terminal arcs, all
capacities are non-negative, and the capacity of any s/t cut equals the
(quantized) energy of the induced labeling minus a fixed offset, hence a
minimum cut is a minimum-energy labeling. Capacities are integers so the
augmenting-path solver terminates and conservation checks are exact; the
returned labeling is re-evaluated in unquantized energy and polished by
single-site flips, which removes any quantization-induced misordering.

Before the augmenting-path search, ``max_flow`` sends flow along every
path source -> v -> w -> sink at once, in int64 numpy: each arc v -> w gets
what is left of v's source capacity, then of w's sink capacity, in arc
order (Boykov & Kolmogorov 2004 push the two-arc paths the same way; the
two-way pair arcs above already leave few of those). On U=1000 helix cuts
this carries over 90% of the flow, which Dinic would otherwise find one
3-arc path at a time. Any feasible starting flow leads to the same maximum
flow value, and the nodes reachable from the source in the final residual
graph are the same for every maximum flow (the minimal source side of a
minimum cut), so the returned cut and labeling do not depend on the push.

Dinic's algorithm (Dinitz 1970) then finishes on the residual graph, with
the arcs sorted into CSR order by tail. Each phase finds the BFS levels in
int64 numpy, one step per level, and selects the admissible arcs (live, from
one level to the next, and on a path to the sink) with numpy masks; only
the blocking-flow depth-first search runs in Python, over those arcs alone,
and the flow it sends is written back to the residuals in numpy. Every arc
pair's two capacities must sum to at most 2**63 - 1: a flow never changes
that sum, so no residual update can overflow.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .mrf import EnergyGraph

# Quantization scale is 2**bits / (largest absolute energy entry), with bits
# capped so the worst-case sum of all quantized terms stays far below 2**63.
_MAX_QUANT_BITS = 48
_INT_HEADROOM_BITS = 62
_INT64_MAX = int(np.iinfo(np.int64).max)

_log = logging.getLogger("coxcut.mincut")


@dataclass
class FlowNetwork:
    """Capacitated directed graph as a flat list of arc pairs.

    Arcs are stored in pairs: arc a and arc a^1 are mutual reverses, and the
    tail of arc a is ``arc_to[a ^ 1]``. Both arcs of a pair may start with
    capacity, so one pair carries a two-way edge. ``arc_cap`` holds residual
    capacities and is mutated by ``max_flow``; ``arc_cap0`` keeps the
    original capacities for cut/conservation checks.
    """

    num_nodes: int
    source: int
    sink: int
    arc_to: np.ndarray
    arc_cap: np.ndarray
    arc_cap0: np.ndarray

    @classmethod
    def from_arrays(
        cls, num_nodes: int, source: int, sink: int, tails, heads, caps, rev_caps=None
    ) -> "FlowNetwork":
        """Build a network from parallel arrays of arc tails, heads and integer capacities.

        ``rev_caps``, if given, holds each arc's capacity from head back to
        tail; it defaults to 0 (one-way arcs).
        """
        tails, heads, caps = (np.asarray(v, dtype=np.int64) for v in (tails, heads, caps))
        arc_cap = np.zeros(2 * len(caps), dtype=np.int64)
        arc_cap[0::2] = caps
        if rev_caps is not None:
            arc_cap[1::2] = rev_caps
        negative = np.flatnonzero(arc_cap < 0)
        if len(negative):
            a = int(negative[0])
            kind = "reverse capacity" if a & 1 else "capacity"
            tail, head = tails[a >> 1], heads[a >> 1]
            raise ValueError(f"negative {kind} {arc_cap[a]} on arc ({tail}, {head})")
        arc_to = np.empty(2 * len(caps), dtype=np.int64)
        arc_to[0::2] = heads
        arc_to[1::2] = tails
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


def _stable_order(keys, bound):
    # np.argsort(keys, kind="stable") for integer keys in [0, bound). The
    # keys are sorted as the smallest unsigned type that holds them, for
    # which numpy's stable sort is a radix sort up to 16 bits (timsort
    # otherwise); a stable order is unique, so the permutation is the same.
    return np.argsort(keys.astype(np.min_scalar_type(max(bound - 1, 0))), kind="stable")


def _grouping(group, bound):
    # Stable order of node ids ``group`` (all < bound), the sorted ids and
    # the start of each run of equal ids among them.
    order = _stable_order(group, bound)
    g = group[order]
    return order, g, np.flatnonzero(np.diff(g, prepend=-1))  # node ids are >= 0


def _greedy_fill(want, grouping, budget):
    # Entry k gets min(want[k], what is left of its node's budget after the
    # entries before it in its group), in the stable order of ``grouping``
    # (from _grouping). Returns the allotments and their total per node;
    # exact in int64 while the wants sum to less than 2**63.
    order, g, first = grouping
    w = want[order]
    before = np.cumsum(w) - w
    before -= np.repeat(before[first], np.diff(first, append=len(g)))
    got = np.clip(budget[g] - before, 0, w)
    total = np.zeros_like(budget)
    if len(got):
        total[g[first]] = np.add.reduceat(got, first)
    allot = np.empty_like(got)
    allot[order] = got
    return allot, total


def _push_three_arc_paths(network: FlowNetwork) -> int:
    """Send a feasible flow along all paths source -> v -> w -> sink at once.

    ``network.arc_cap`` is updated in place; returns the flow value. Each
    arc v -> w between inner nodes takes what is left of v's source-arc
    capacity, then is clipped by what is left of w's sink-arc capacity; the
    node totals are then spread over the terminal arcs the same way.
    """
    to, cap, n = network.arc_to, network.arc_cap, network.num_nodes
    s, t = network.source, network.sink
    tails = to.reshape(-1, 2)[:, ::-1].ravel()  # slot a leaves to[a ^ 1]
    inner = np.ones(n, dtype=bool)
    inner[[s, t]] = False
    share = _INT64_MAX // max(len(to), 1)

    def room(a):
        # at most a share of 2**63 - 1, so no sum of slots overflows, and
        # no more than the reverse slot can take back
        return np.minimum(np.minimum(cap[a], share), _INT64_MAX - cap[a ^ 1])

    live = cap > 0
    from_inner, to_inner = inner[tails], inner[to]
    src = np.flatnonzero(live & (tails == s) & to_inner)
    snk = np.flatnonzero(live & (to == t) & from_inner)
    supply = np.zeros(n, dtype=np.int64)
    demand = np.zeros(n, dtype=np.int64)
    np.add.at(supply, to[src], room(src))  # int64: np.bincount would sum in float64
    np.add.at(demand, tails[snk], room(snk))
    mid = np.flatnonzero(live & from_inner & to_inner & (supply[tails] > 0) & (demand[to] > 0))
    by_tail = _grouping(tails[mid], n)
    f, _ = _greedy_fill(room(mid), by_tail, supply)
    f, into = _greedy_fill(f, _grouping(to[mid], n), demand)
    _, out = _greedy_fill(f, by_tail, supply)  # f fits every supply: only sums by tail
    from_source, _ = _greedy_fill(room(src), _grouping(to[src], n), out)
    to_sink, _ = _greedy_fill(room(snk), _grouping(tails[snk], n), into)
    arcs = np.concatenate([mid, src, snk])
    flow = np.concatenate([f, from_source, to_sink])
    cap[arcs] -= flow
    cap[arcs ^ 1] += flow
    return int(f.sum())


def _check_pair_sums(network: FlowNetwork) -> None:
    # The sum of an arc pair's two residuals does not change under any flow,
    # so while it fits in int64 every residual update below is exact.
    cap = network.arc_cap
    over = np.flatnonzero(cap[1::2] > _INT64_MAX - cap[0::2])
    if len(over):
        a = 2 * int(over[0])
        tail, head = network.arc_to[a + 1], network.arc_to[a]
        total = int(cap[a]) + int(cap[a + 1])
        raise ValueError(
            f"arc pair ({tail}, {head}) has capacities summing to {total}, above 2**63 - 1"
        )


def _level_graph(bounds, to, tail, cap, source, sink):
    # Breadth-first levels over the CSR slots with cap > 0, one numpy step
    # per level: gather the frontier's slots, keep the live ones and mark
    # their unvisited heads. Stops after the sink's level (deeper nodes
    # cannot lie on a shortest augmenting path); unreached nodes keep -1.
    # If the sink is reached, also returns the admissible slots in CSR
    # order: from the deepest level back, the live slots of level k whose
    # head is the sink or a node of level k + 1 kept so far. A live slot
    # from level k leads no deeper than k + 1, so these are the slots from
    # one level to the next that lie on a path to the sink.
    level = np.full(len(bounds) - 1, -1, dtype=np.int64)
    level[source] = 0
    frontier = np.array([source])
    steps = []
    while len(frontier) and level[sink] < 0:
        lo = bounds[frontier]
        count = bounds[frontier + 1] - lo
        end = np.cumsum(count)
        slots = np.repeat(lo - end + count, count) + np.arange(end[-1])
        slots = slots[cap[slots] > 0]
        heads = to[slots]
        steps.append(slots)
        level[heads[level[heads] < 0]] = len(steps)
        frontier = np.flatnonzero(level == len(steps))
    if level[sink] < 0:
        return level, None
    kept = np.zeros(len(level), dtype=bool)
    kept[sink] = True
    for k in reversed(range(len(steps))):
        steps[k] = steps[k][kept[to[steps[k]]]]
        kept[tail[steps[k]]] = True
    return level, np.sort(np.concatenate(steps))


def _blocking_flow(first, head, tail, cap, source, sink):
    # Blocking flow by depth-first search over one phase's admissible slots
    # (plain lists): node u owns slots first[u]..first[u+1]-1, slot k leads
    # from tail[k] to head[k] one level deeper, and cap is lowered in place.
    # Current-arc pointers skip spent slots and slots into dead ends (nodes
    # with no admissible slot left, marked for the rest of the phase); after
    # an augmentation the search resumes from the tail of the first
    # saturated slot. Returns the flow sent.
    cur, end = first[:-1], first[1:]
    alive = [True] * len(cur)
    total = 0
    path = []
    u = source
    while True:
        if u == sink:
            left = [cap[k] for k in path]
            bottleneck = min(left)
            for k in path:
                cap[k] -= bottleneck
            total += bottleneck
            i = left.index(bottleneck)
            u = tail[path[i]]
            del path[i:]
            continue
        k, e = cur[u], end[u]
        while k < e and not (cap[k] and alive[head[k]]):
            k += 1
        cur[u] = k
        if k < e:
            path.append(k)
            u = head[k]
        else:
            alive[u] = False
            if not path:
                return total
            u = tail[path.pop()]


def max_flow(network: FlowNetwork) -> tuple[int, np.ndarray]:
    """Solve the network in place; returns (flow value, source-side mask per node).

    The source side is the set of nodes reachable from the source in the
    final residual graph: the unique minimal source side of a minimum cut.

    Flow along the paths source -> v -> w -> sink is pushed in bulk first
    (``_push_three_arc_paths``), and Dinic's algorithm finishes on the
    residual graph. The flow value of a maximum flow and the set of nodes
    reachable from the source after it do not depend on the flow started
    from, so the push changes only the residual capacities left in
    ``network.arc_cap``.

    Each Dinic phase finds the BFS levels and the admissible arcs (live,
    from one level to the next, into the sink only at the sink's level, and
    on a path to the sink) in int64 numpy over the arcs in CSR order; only
    the blocking-flow search runs in Python, over the admissible arcs alone,
    and the flow it sends is applied to the residuals in numpy.

    Raises ``ValueError`` before touching any capacity if an arc pair's two
    capacities sum past 2**63 - 1.
    """
    n, m = network.num_nodes, len(network.arc_to)
    s, t = network.source, network.sink
    _check_pair_sums(network)
    pushed = _push_three_arc_paths(network)
    tails = network.arc_to[np.arange(m) ^ 1]
    order = _stable_order(tails, n)  # CSR slot -> arc
    slot = np.empty(m, dtype=np.int64)
    slot[order] = np.arange(m)  # arc -> CSR slot
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=bounds[1:])
    to, tail, rev = network.arc_to[order], tails[order], slot[order ^ 1]
    cap = network.arc_cap[order]
    first = np.zeros(n + 1, dtype=np.int64)
    flow = phases = 0
    while True:
        level, adm = _level_graph(bounds, to, tail, cap, s, t)
        if adm is None:
            break
        phases += 1
        np.cumsum(np.bincount(tail[adm], minlength=n), out=first[1:])
        left = cap[adm].tolist()
        flow += _blocking_flow(first.tolist(), to[adm].tolist(), tail[adm].tolist(), left, s, t)
        sent = cap[adm] - left
        cap[adm] -= sent
        cap[rev[adm]] += sent
    network.arc_cap[order] = cap
    _log.debug(
        "max_flow: %d nodes, %d arc pairs, %d pushed in bulk, %d found by Dinic in %d phases",
        n, m // 2, pushed, flow, phases,
    )
    return pushed + flow, level >= 0


def build_flow_network(energy: EnergyGraph) -> tuple[FlowNetwork, QuantizationRecord]:
    """Reduce a binary energy to a flow network with integer capacities.

    Sites are nodes 0..U-1, the source is node U, the sink node U+1. For
    every labeling x (x_k = 0 iff site k on the source side), the capacity
    of the corresponding cut equals quantized_energy(x) - offset.
    """
    if energy.num_labels != 2:
        raise ValueError(f"min-cut reduction needs a binary energy, got Q={energy.num_labels}")
    # NaN or inf entries would quantize to garbage; a maximum is NaN or inf
    # exactly when some entry is (weights are finite by construction)
    unary_max = float(np.abs(energy.unary).max(initial=0.0))
    if not math.isfinite(unary_max):
        k = int(np.flatnonzero(~np.isfinite(energy.unary).all(axis=1))[0])
        raise ValueError(f"non-finite unary energy at site {k}: {energy.unary[k].tolist()}")
    w1, w2 = (energy.weights[:, c] for c in energy.column)  # -E(1,1) and -E(2,2)

    u = energy.num_sites
    n_terms = u + energy.num_pairs + 1
    bits = min(_MAX_QUANT_BITS, _INT_HEADROOM_BITS - max(1, math.ceil(math.log2(n_terms + 1))))
    # floor keeps the scale finite for (near-)zero energies
    pair_max = max(float(w1.max(initial=0.0)), float(w2.max(initial=0.0)))
    max_abs = max(unary_max, pair_max, 2.0**bits * 1e-300)
    scale = 2.0**bits / max_abs

    qu = np.rint(energy.unary * scale).astype(np.int64)
    # E(1,1) and E(2,2) rounded down (error < 1 quantum each), so the arc
    # capacities B' = -qa and C' = -qd are non-negative integers
    qa = np.floor(w1 * -scale).astype(np.int64)
    qd = np.floor(w2 * -scale).astype(np.int64)
    fwd, rev = -qa, -qd

    theta = qu[:, 1] - qu[:, 0]
    offset = int(qu[:, 0].sum())
    if energy.num_pairs:
        np.add.at(theta, energy.pair_i, qd - qa)
        offset += int(qa.sum())
    offset += int(theta[theta < 0].sum())

    source, sink = u, u + 1
    # terminal arcs in site order (source -> k for theta > 0, k -> sink for
    # theta < 0), then one arc pair per site pair with any capacity
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


def _flip_polish(energy: EnergyGraph, labels: np.ndarray) -> np.ndarray:
    # Greedy single-site flips in unquantized energy; a global optimum
    # admits none, so this only repairs quantization near-ties.
    labels = labels.copy()
    u = energy.num_sites
    rng_sites = np.arange(u)
    pr = np.arange(energy.num_pairs)
    w = energy.weights[:, energy.column]  # (P, 2): each pair's weight at labels 1 and 2
    while True:
        cur = labels - 1
        alt = 1 - cur
        delta = energy.unary[rng_sites, alt] - energy.unary[rng_sites, cur]
        if energy.num_pairs:
            ci, cj = cur[energy.pair_i], cur[energy.pair_j]
            same = ci == cj
            # a flip loses the weight of a shared label, or gains the other end's
            w_i = w[pr, ci]
            np.add.at(delta, energy.pair_i, np.where(same, w_i, -w[pr, cj]))
            np.add.at(delta, energy.pair_j, np.where(same, w_i, -w_i))
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
