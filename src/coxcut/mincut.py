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
_PAIR_CHUNK = 1 << 14  # pairs per build_flow_network temporary
_SLOT_CHUNK = 1 << 14  # arc slots per max_flow temporary: a BFS level's candidates, a map's part

_log = logging.getLogger("coxcut.mincut")


@dataclass
class FlowNetwork:
    """Capacitated directed graph as a flat list of arc pairs.

    Arcs are stored in pairs: arc a and arc a^1 are mutual reverses, and the
    tail of arc a is ``arc_to[a ^ 1]``. Both arcs of a pair may start with
    capacity, so one pair carries a two-way edge. ``arc_cap`` holds integer
    capacities and is turned into residuals in place by ``max_flow``, which
    also checks them; a caller that needs the original capacities after the
    solve copies them first.
    """

    num_nodes: int
    source: int
    sink: int
    arc_to: np.ndarray
    arc_cap: np.ndarray

    @classmethod
    def from_arrays(
        cls, num_nodes: int, source: int, sink: int, tails, heads, caps, rev_caps=None
    ) -> "FlowNetwork":
        """Build a network from parallel arrays of arc tails, heads and integer capacities.

        ``rev_caps``, if given, holds each arc's capacity from head back to
        tail; it defaults to 0 (one-way arcs).
        """
        arc_cap = np.zeros(2 * len(caps), dtype=np.int64)
        arc_cap[0::2] = caps
        if rev_caps is not None:
            arc_cap[1::2] = rev_caps
        arc_to = np.empty(2 * len(caps), dtype=np.int64)
        arc_to[0::2] = heads
        arc_to[1::2] = tails
        return cls(num_nodes, source, sink, arc_to, arc_cap)


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
    small = np.min_scalar_type(max(bound - 1, 0))
    return np.argsort(keys.astype(small, copy=False), kind="stable")


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
    got = np.cumsum(w)
    got -= w  # what the entries before take, then only those of the same group
    got -= np.repeat(got[first], np.diff(first, append=len(g)))
    np.subtract(budget[g], got, out=got)
    np.clip(got, 0, w, out=got)
    del w
    total = np.zeros_like(budget)
    if len(got):
        total[g[first]] = np.add.reduceat(got, first)
    allot = np.empty_like(got)
    allot[order] = got
    return allot, total


def _push_three_arc_paths(network: FlowNetwork, tails=None) -> int:
    """Send a feasible flow along all paths source -> v -> w -> sink at once.

    ``network.arc_cap`` is updated in place; returns the flow value. Each
    arc v -> w between inner nodes takes what is left of v's source-arc
    capacity, then is clipped by what is left of w's sink-arc capacity; the
    node totals are then spread over the terminal arcs the same way.
    ``tails`` holds each arc's tail, when the caller has it. The arcs out
    of the source and into the sink are picked first, then the inner arcs
    from a node with supply to one with demand, by boolean masks. Each
    part's flow is applied to the residuals on its own; the parts' slots
    and their reverses are disjoint.
    """
    to, cap, n = network.arc_to, network.arc_cap, network.num_nodes
    s, t = network.source, network.sink
    if tails is None:
        tails = _arc_tails(to)
    inner = np.ones(n, dtype=bool)
    inner[[s, t]] = False
    share = _INT64_MAX // max(len(to), 1)

    def room(a):
        # at most a share of 2**63 - 1, so no sum of slots overflows, and
        # no more than the reverse slot can take back
        return np.minimum(np.minimum(cap[a], share), _INT64_MAX - cap[a ^ 1])

    def send(a, f):
        cap[a] -= f
        cap[a ^ 1] += f

    src = np.flatnonzero(tails == s)
    src = src[(cap[src] > 0) & inner[to[src]]]
    snk = np.flatnonzero(to == t)
    snk = snk[(cap[snk] > 0) & inner[tails[snk]]]
    supply = np.zeros(n, dtype=np.int64)
    demand = np.zeros(n, dtype=np.int64)
    np.add.at(supply, to[src], room(src))  # int64: np.bincount would sum in float64
    np.add.at(demand, tails[snk], room(snk))
    # live arcs from a node with supply, which is inner, to one with demand
    mask = (supply > 0)[tails]
    mask &= (demand > 0)[to]
    mask &= cap > 0
    mid = np.flatnonzero(mask)
    del mask
    f, _ = _greedy_fill(room(mid), _grouping(tails[mid], n), supply)
    f, into = _greedy_fill(f, _grouping(to[mid], n), demand)
    out = np.zeros(n, dtype=np.int64)
    np.add.at(out, tails[mid], f)  # f fits every supply: only sums by tail
    send(mid, f)
    pushed = int(f.sum())
    del mid, f
    send(src, _greedy_fill(room(src), _grouping(to[src], n), out)[0])
    send(snk, _greedy_fill(room(snk), _grouping(tails[snk], n), into)[0])
    return pushed


def _arc_tails(to):
    # slot a leaves to[a ^ 1]
    return to.reshape(-1, 2)[:, ::-1].ravel()


def _check_capacities(network: FlowNetwork) -> None:
    # Every capacity must be non-negative, and the sum of an arc pair's two
    # residuals, which no flow changes, must fit in int64, so that every
    # residual update below is exact. Negatives are refused first, since
    # _INT64_MAX - cap wraps round for a negative cap.
    cap, to = network.arc_cap, network.arc_to
    if cap.min(initial=0) < 0:
        a = int(np.argmax(cap < 0))
        kind = "reverse capacity" if a & 1 else "capacity"
        raise ValueError(f"negative {kind} {cap[a]} on arc ({to[a | 1]}, {to[a & ~1]})")
    for start in range(0, len(cap), 2 * _SLOT_CHUNK):
        part = cap[start : start + 2 * _SLOT_CHUNK]
        over = np.flatnonzero(part[1::2] > _INT64_MAX - part[0::2])
        if len(over):
            a = start + 2 * int(over[0])
            total = int(cap[a]) + int(cap[a + 1])
            raise ValueError(
                f"arc pair ({to[a + 1]}, {to[a]}) has capacities summing to {total}, "
                "above 2**63 - 1"
            )


def _level_graph(bounds, to, rev, cap, source, sink):
    # Breadth-first levels over the CSR slots with cap > 0, one numpy step
    # per level: gather the frontier's slots, keep the live ones and mark
    # their unreached heads. A broad frontier is expanded in parts of whole
    # nodes holding about _SLOT_CHUNK slots. Stops after the sink's level
    # (deeper nodes cannot lie on a shortest augmenting path); unreached
    # nodes keep level n, past every depth. Of each part, only the live
    # slots into the next level are held. If the sink is reached, also
    # returns the admissible slots in CSR order: from the deepest level
    # back, the held slots of level k whose head is the sink or a node of
    # level k + 1 kept so far, whose tails are then kept. These are the
    # slots from one level to the next that lie on a path to the sink.
    n = len(bounds) - 1
    level = np.full(n, n, dtype=np.int64)
    level[source] = 0
    frontier = np.array([source])
    steps = []
    while len(frontier) and level[sink] == n:
        depth = len(steps) + 1
        parts = []
        lo = bounds[frontier]
        count = bounds[frontier + 1] - lo
        end = np.cumsum(count)
        for slots in _frontier_slots(lo, count, end):
            slots = slots[cap[slots] > 0]
            heads = to[slots]
            ahead = level[heads] >= depth  # unreached, or reached by an earlier part
            level[heads[ahead]] = depth
            parts.append(slots[ahead])
        steps.append(parts)
        frontier = np.flatnonzero(level == depth)
    if level[sink] == n:
        return level, None
    kept = np.zeros(n, dtype=bool)
    kept[sink] = True
    # held slots lead one level deeper, so a level's kept tails never change
    # which of its own slots are kept
    for parts in reversed(steps):
        for i, slots in enumerate(parts):
            parts[i] = slots = slots[kept[to[slots]]]
            kept[to[rev[slots]]] = True  # the tails, as the reverse slots' heads
    adm = np.concatenate([slots for parts in steps for slots in parts])
    adm.sort()
    return level, adm


def _frontier_slots(lo, count, end):
    # The CSR slots of a frontier's nodes in order, given each node's first
    # slot, slot count and the running total of the counts: as one array, or
    # in parts of whole nodes holding about _SLOT_CHUNK slots (or one node
    # holding more).
    if end[-1] <= _SLOT_CHUNK:
        slots = np.repeat(lo - end + count, count)
        slots += np.arange(end[-1])
        return (slots,)
    return _slot_parts(lo, count, end)


def _slot_parts(lo, count, end):
    first = 0
    while first < len(lo):
        done = int(end[first] - count[first])
        last = max(first + 1, int(np.searchsorted(end, done + _SLOT_CHUNK, side="right")))
        c, e = count[first:last], end[first:last]
        slots = np.repeat(lo[first:last] - e + c, c)
        slots += np.arange(done, int(e[-1]))
        yield slots
        first = last


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
    and the flow it sends is applied to the residuals in numpy. Meanwhile
    ``network.arc_to`` and ``network.arc_cap`` themselves hold the heads
    and residuals in CSR order, so that no second copy of either is made;
    both are put back in arc order before the call returns or raises.

    Raises ``ValueError`` before touching any capacity if a capacity is
    negative or an arc pair's two capacities sum past 2**63 - 1.
    """
    n, m = network.num_nodes, len(network.arc_to)
    s, t = network.source, network.sink
    _check_capacities(network)
    tails = _arc_tails(network.arc_to)
    pushed = _push_three_arc_paths(network, tails)
    # CSR order by tail. At most two slot-sized int64 maps are alive at once:
    # the CSR order (sorted from tails cast to the sort's small keys, so the
    # int64 tails are freed first), then arc -> CSR slot made from it
    # (``slot``), then the reverse slot of each CSR slot (``rev``) made from
    # slot's even and odd halves. While the search runs, slot only waits to
    # put the arcs back, so it is held in the smallest unsigned type.
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=bounds[1:])
    tails = tails.astype(np.min_scalar_type(n - 1))
    order = _stable_order(tails, n)  # CSR slot -> arc
    del tails
    slot = np.empty(m, dtype=np.int64)
    for start in range(0, m, _SLOT_CHUNK):
        stop = min(start + _SLOT_CHUNK, m)
        slot[order[start:stop]] = np.arange(start, stop)
    del order
    to, cap = network.arc_to, network.arc_cap
    to[slot] = to.copy()
    cap[slot] = cap.copy()
    rev = None
    try:
        rev = np.empty(m, dtype=np.int64)
        rev[slot[0::2]] = slot[1::2]
        rev[slot[1::2]] = slot[0::2]
        slot = slot.astype(np.min_scalar_type(max(m - 1, 0)))
        # one Python int per node id, shared by every phase's lists of heads and tails
        ids = np.arange(n).astype(object)
        flow = phases = 0
        while True:
            level, adm = _level_graph(bounds, to, rev, cap, s, t)
            if adm is None:
                break
            phases += 1
            first = np.searchsorted(adm, bounds)  # node u owns adm[first[u]:first[u + 1]]
            heads = ids[to[adm]].tolist()
            tails = ids[to[rev[adm]]].tolist()  # a slot's tail is its reverse slot's head
            left = cap[adm].tolist()
            flow += _blocking_flow(first.tolist(), heads, tails, left, s, t)
            del heads, tails
            sent = cap[adm]
            sent -= left
            del left
            cap[adm] -= sent
            cap[rev[adm]] += sent
            del adm, sent  # not held through the next level graph
    finally:
        del rev  # so that slot and one gathered copy are the only maps alive
        slot = slot.astype(np.int64, copy=False)
        to[:] = to[slot]
        cap[:] = cap[slot]
    _log.debug(
        "max_flow: %d nodes, %d arc pairs, %d pushed in bulk, %d found by Dinic in %d phases",
        n, m // 2, pushed, flow, phases,
    )
    return pushed + flow, level < n


def build_flow_network(energy: EnergyGraph) -> tuple[FlowNetwork, QuantizationRecord]:
    """Reduce a binary energy to a flow network with integer capacities.

    Sites are nodes 0..U-1, the source is node U, the sink node U+1. For
    every labeling x (x_k = 0 iff site k on the source side), the capacity
    of the corresponding cut equals quantized_energy(x) - offset. The pair
    arcs are written straight into the network's arrays, from temporaries of
    at most _PAIR_CHUNK pairs.
    """
    if energy.num_labels != 2:
        raise ValueError(f"min-cut reduction needs a binary energy, got Q={energy.num_labels}")
    unary_max = float(np.abs(energy.unary).max(initial=0.0))  # finite: EnergyGraph holds it
    c1, c2 = energy.column.tolist()
    w1, w2 = energy.weights[:, c1], energy.weights[:, c2]  # -E(1,1) and -E(2,2)

    u, p = energy.num_sites, energy.num_pairs
    n_terms = u + p + 1
    bits = min(_MAX_QUANT_BITS, _INT_HEADROOM_BITS - max(1, math.ceil(math.log2(n_terms + 1))))
    # floor keeps the scale finite for (near-)zero energies
    pair_max = max(float(w1.max(initial=0.0)), float(w2.max(initial=0.0)))
    max_abs = max(unary_max, pair_max, 2.0**bits * 1e-300)
    scale = 2.0**bits / max_abs

    qu = np.rint(energy.unary * scale).astype(np.int64)
    theta = qu[:, 1] - qu[:, 0]
    offset = int(qu[:, 0].sum())

    # Terminal arcs come first, in site order (source -> k for theta > 0,
    # k -> sink for theta < 0), then one arc pair per site pair with any
    # capacity. Pair arcs are written after room for U terminal arcs, the T
    # terminal arcs right before them once theta is complete, and the
    # network is the slice from the first terminal arc to the last pair arc.
    arc_to = np.empty(2 * (u + p), dtype=np.int64)
    arc_cap = np.empty(2 * (u + p), dtype=np.int64)
    end = 2 * u
    for start in range(0, p, _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, p)
        # E(1,1) and E(2,2) rounded down (error < 1 quantum each), so the arc
        # capacities B' = -floor(-w1 * scale) = ceil(w1 * scale) and C' are
        # non-negative integers
        fwd = np.ceil(w1[start:stop] * scale).astype(np.int64)
        rev = fwd if c1 == c2 else np.ceil(w2[start:stop] * scale).astype(np.int64)
        offset -= int(fwd.sum())
        pairs = slice(start, stop)
        if c1 != c2:  # the pair's part of site i's unary: D - A = B' - C'
            np.add.at(theta, energy.pair_i[pairs], fwd - rev)
        kept = np.flatnonzero(fwd | rev)
        if len(kept) < stop - start:
            fwd, rev, pairs = fwd[kept], rev[kept], kept + start
        slots = slice(end, end + 2 * len(fwd))
        arc_to[slots][0::2], arc_to[slots][1::2] = energy.pair_j[pairs], energy.pair_i[pairs]
        arc_cap[slots][0::2], arc_cap[slots][1::2] = fwd, rev
        end = slots.stop
    offset += int(theta[theta < 0].sum())

    source, sink = u, u + 1
    ks = np.flatnonzero(theta)
    up = theta[ks] > 0
    first = 2 * (u - len(ks))
    arc_to[first : 2 * u : 2] = np.where(up, ks, sink)
    arc_to[first + 1 : 2 * u : 2] = np.where(up, source, ks)
    arc_cap[first : 2 * u : 2] = np.abs(theta[ks])
    arc_cap[first + 1 : 2 * u : 2] = 0
    arc_to, arc_cap = arc_to[first:end], arc_cap[first:end]
    network = FlowNetwork(u + 2, source, sink, arc_to, arc_cap)
    return network, QuantizationRecord(scale=scale, offset=offset, bits=bits)


def _flip_polish(energy: EnergyGraph, labels: np.ndarray) -> np.ndarray:
    # Greedy single-site flips in unquantized energy; a global optimum
    # admits none, so this only repairs quantization near-ties.
    labels = labels.copy()
    u = energy.num_sites
    rng_sites = np.arange(u)
    pi, pj = energy.pair_i, energy.pair_j
    c1, c2 = energy.column.tolist()
    w1, w2 = energy.weights[:, c1], energy.weights[:, c2]  # each pair's weight at labels 1, 2
    while True:
        cur = labels - 1
        alt = 1 - cur
        delta = energy.unary[rng_sites, alt] - energy.unary[rng_sites, cur]
        if energy.num_pairs:
            ci, cj = cur[pi], cur[pj]
            same = ci == cj
            # a flip loses the weight of a shared label, or gains the other end's
            w_i = w1 if c1 == c2 else np.where(ci == 0, w1, w2)
            w_j = w1 if c1 == c2 else np.where(cj == 0, w1, w2)
            np.add.at(delta, pi, np.where(same, w_i, -w_j))
            np.add.at(delta, pj, np.where(same, w_i, -w_i))
        k = int(np.argmin(delta))
        if delta[k] >= 0.0:
            return labels
        labels[k] = 3 - labels[k]  # flip 1 <-> 2


def binary_map(energy: EnergyGraph) -> np.ndarray:
    """Minimum-energy binary labeling (source side = class 1)."""
    network, _ = build_flow_network(energy)
    _, source_side = max_flow(network)
    del network  # freed before the polish allocates its own arrays
    labels = np.where(source_side[: energy.num_sites], 1, 2).astype(np.int64)
    return _flip_polish(energy, labels)

