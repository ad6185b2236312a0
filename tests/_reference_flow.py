"""Reference max-flow oracle: Dinic over numpy arrays and per-node linked lists.

This is an independent implementation of the same contract as
``coxcut.max_flow``: it walks arcs through ``head``/``nxt`` linked lists
instead of CSR slots, and always restarts its depth-first search from the
source. Tests compare flow values and source sides against it.
"""

import numpy as np


def linked_lists(network):
    """Per-node arc lists: head[u] is u's last arc, nxt[a] the one before it."""
    head = np.full(network.num_nodes, -1, dtype=np.int64)
    nxt = np.empty(len(network.arc_to), dtype=np.int64)
    for a in range(len(network.arc_to)):
        tail = network.arc_to[a ^ 1]
        nxt[a] = head[tail]
        head[tail] = a
    return head, nxt


def reference_max_flow(network):
    """(flow value, source-side mask) on a copy of the network's residuals."""
    head, nxt = linked_lists(network)
    cap = network.arc_cap.copy()
    flow, level = _dinic(head, nxt, network.arc_to, cap, network.source, network.sink)
    return int(flow), level >= 0


def _dinic(head, nxt, arc_to, cap, source, sink):
    # Shortest-augmenting-path max flow: BFS level graph + DFS blocking flow
    # with the current-arc optimization. Returns (flow, last BFS levels);
    # nodes with level >= 0 are the source side of a minimum cut.
    n = head.shape[0]
    level = np.empty(n, np.int64)
    queue = np.empty(n, np.int64)
    cur = np.empty(n, np.int64)
    path = np.empty(n, np.int64)
    total = 0
    while True:
        for i in range(n):
            level[i] = -1
        level[source] = 0
        queue[0] = source
        qh, qt = 0, 1
        while qh < qt:
            u = queue[qh]
            qh += 1
            a = head[u]
            while a != -1:
                if cap[a] > 0:
                    v = arc_to[a]
                    if level[v] < 0:
                        level[v] = level[u] + 1
                        queue[qt] = v
                        qt += 1
                a = nxt[a]
        if level[sink] < 0:
            return total, level
        for i in range(n):
            cur[i] = head[i]
        while True:
            u = source
            top = 0
            reached = False
            while True:
                if u == sink:
                    reached = True
                    break
                a = cur[u]
                advanced = False
                while a != -1:
                    v = arc_to[a]
                    if cap[a] > 0 and level[v] == level[u] + 1:
                        path[top] = a
                        top += 1
                        u = v
                        advanced = True
                        break
                    a = nxt[a]
                    cur[u] = a
                if not advanced:
                    level[u] = -1  # dead end for this phase
                    if u == source:
                        break
                    top -= 1
                    u = arc_to[path[top] ^ 1]
            if not reached:
                break
            bottleneck = cap[path[0]]
            for i in range(1, top):
                if cap[path[i]] < bottleneck:
                    bottleneck = cap[path[i]]
            for i in range(top):
                a = path[i]
                cap[a] -= bottleneck
                cap[a ^ 1] += bottleneck
            total += bottleneck
