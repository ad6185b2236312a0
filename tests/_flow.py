"""Flow-network helpers for tests: a triple constructor and the cut and balance checks.

``max_flow`` turns ``arc_cap`` into residuals in place and the network keeps
no copy of its original capacities, so a test copies ``net.arc_cap`` before
it solves and hands that copy to ``cut_capacity`` and ``node_balances``.
"""

import numpy as np

from coxcut import FlowNetwork


def network_from_arcs(num_nodes, source, sink, arcs):
    """A network of one-way arcs from (tail, head, capacity) triples."""
    tails, heads, caps = np.array(arcs, dtype=np.int64).reshape(-1, 3).T
    return FlowNetwork.from_arrays(num_nodes, source, sink, tails, heads, caps)


def cut_capacity(network, caps, source_side):
    """Total capacity, under the original capacities ``caps``, of the arcs
    from the source side to the sink side."""
    tails = network.arc_to[np.arange(len(network.arc_to)) ^ 1]
    crossing = source_side[tails] & ~source_side[network.arc_to]
    return int(caps[crossing].sum())


def node_balances(network, caps):
    """Net outflow per node of the flow that took the original capacities
    ``caps`` to the residuals in ``network.arc_cap`` (exact integers)."""
    balance = np.zeros(network.num_nodes, dtype=np.int64)
    even = np.arange(0, len(network.arc_to), 2)
    net = caps[even] - network.arc_cap[even]  # signed flow tail -> head
    np.add.at(balance, network.arc_to[even ^ 1], net)
    np.add.at(balance, network.arc_to[even], -net)
    return balance
