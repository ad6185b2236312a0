import logging
import re
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _instances import random_ssl_instance
from _reference_flow import reference_max_flow
from _reference_fold import binary_map_folded, build_flow_network_folded, table_energy
from _reference_network import build_flow_network_reference
from coxcut import (
    ClassModel,
    EnergyGraph,
    FlowNetwork,
    Kernel,
    alpha_expansion,
    binary_map,
    brute_force_map,
    build_energy,
    build_flow_network,
    cut_capacity,
    energy_of,
    gen_concentric_circles,
    gen_double_helix,
    max_flow,
    node_balances,
    partition,
    shared_models,
)
from coxcut import expansion, mincut


def _energy(unary, pairs=None, constant=0.0):
    """Energy with one weight column per label; pairs are (i, j, weights)."""
    unary = np.asarray(unary, dtype=float)
    q = unary.shape[1]
    if pairs:
        pi = np.array([p[0] for p in pairs])
        pj = np.array([p[1] for p in pairs])
        weights = np.array([p[2] for p in pairs], dtype=float)
    else:
        pi = pj = np.empty(0, dtype=np.int64)
        weights = np.empty((0, q))
    return EnergyGraph(unary, pi, pj, weights, np.arange(q), constant)


class TestRawNetworks:
    def test_single_arc(self):
        net = FlowNetwork.from_arcs(2, 0, 1, [(0, 1, 7)])
        flow, side = max_flow(net)
        assert flow == 7
        assert side.tolist() == [True, False]

    def test_two_disjoint_unit_paths(self):
        arcs = [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)]
        net = FlowNetwork.from_arcs(4, 0, 3, arcs)
        flow, _ = max_flow(net)
        assert flow == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            FlowNetwork.from_arcs(2, 0, 1, [(0, 1, -1)])

    def test_random_networks_match_exhaustive_cut(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = 10  # source 0, sink 9, 8 inner nodes
            arcs = []
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < 0.3:
                        arcs.append((u, v, int(rng.integers(0, 20))))
            net = FlowNetwork.from_arcs(n, 0, n - 1, arcs)
            flow, side = max_flow(net)
            # oracle: enumerate all 2^8 partitions of the inner nodes
            best = None
            for bits in product([True, False], repeat=n - 2):
                s_side = np.array([True, *bits, False])
                cost = sum(c for (u, v, c) in arcs if s_side[u] and not s_side[v])
                best = cost if best is None else min(best, cost)
            assert flow == best
            assert cut_capacity(net, side) == flow

    def test_two_way_arcs_match_exhaustive_cut(self):
        rng = np.random.default_rng(10)
        n = 9  # source 0, sink 8, 7 inner nodes
        for _ in range(40):
            pairs = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.35]
            tails, heads = (np.array(c, dtype=np.int64).reshape(-1) for c in zip(*pairs))
            caps = rng.integers(0, 20, len(pairs)) * (rng.random(len(pairs)) < 0.8)
            rev_caps = rng.integers(0, 20, len(pairs)) * (rng.random(len(pairs)) < 0.8)
            net = FlowNetwork.from_arrays(n, 0, n - 1, tails, heads, caps, rev_caps)
            assert np.array_equal(net.arc_cap0[1::2], rev_caps)
            ref_flow, ref_side = reference_max_flow(net)
            flow, side = max_flow(net)
            assert flow == _exhaustive_min_cut(net, caps, rev_caps) == ref_flow
            assert np.array_equal(side, ref_side)
            assert cut_capacity(net, side) == flow
            balance = node_balances(net)
            assert balance[0] == flow and np.all(balance[1:-1] == 0)

    def test_negative_reverse_capacity_rejected_with_its_arc(self):
        with pytest.raises(ValueError, match=r"^negative reverse capacity -2 on arc \(1, 2\)$"):
            FlowNetwork.from_arrays(3, 0, 2, [0, 1], [1, 2], [1, 1], [0, -2])


def _copy(net):
    return FlowNetwork(
        net.num_nodes, net.source, net.sink, net.arc_to.copy(), net.arc_cap.copy(),
        net.arc_cap0.copy(),
    )


def _assert_feasible_flow(net, value):
    """Residuals hold a flow of ``value`` from source to sink within the capacities."""
    assert np.all(net.arc_cap >= 0)
    # flow on a slot is residual capacity moved to its reverse slot
    assert np.array_equal(net.arc_cap.reshape(-1, 2).sum(1), net.arc_cap0.reshape(-1, 2).sum(1))
    balance = node_balances(net)
    assert balance[net.source] == value and balance[net.sink] == -value
    assert np.all(np.delete(balance, [net.source, net.sink]) == 0)


def _raw_network(rng, n=8):
    """Random two-way arcs, the terminals at random nodes, plus every awkward kind of arc.

    Parallel source and sink arcs, arcs between the terminals in both
    directions, an arc into the source, one out of the sink and a self-loop;
    about a fifth of the capacities are 0.
    """
    s, t, a, b = (int(x) for x in rng.choice(n, 4, replace=False))
    tails = [s, s, a, a, s, t, a, t, b]
    heads = [a, a, t, t, t, s, s, b, b]
    for _ in range(int(rng.integers(6, 30))):
        u, v = rng.choice(n, 2, replace=False)
        tails.append(int(u))
        heads.append(int(v))
    k = len(tails)
    caps = rng.integers(0, 20, k) * (rng.random(k) < 0.8)
    rev_caps = rng.integers(0, 20, k) * (rng.random(k) < 0.8)
    return FlowNetwork.from_arrays(n, s, t, tails, heads, caps, rev_caps), caps, rev_caps


def _exhaustive_min_cut(net, caps, rev_caps):
    tails, heads = net.arc_to[1::2], net.arc_to[0::2]
    inner = np.delete(np.arange(net.num_nodes), [net.source, net.sink])
    best = None
    for bits in product([True, False], repeat=len(inner)):
        side = np.zeros(net.num_nodes, dtype=bool)
        side[inner] = bits
        side[net.source] = True
        cost = int(np.sum(caps[side[tails] & ~side[heads]]))
        cost += int(np.sum(rev_caps[side[heads] & ~side[tails]]))
        best = cost if best is None else min(best, cost)
    return best


class TestBulkPush:
    """The push along source -> v -> w -> sink paths that runs before Dinic."""

    def test_raw_networks_match_reference_and_exhaustive_cut(self):
        rng = np.random.default_rng(12)
        pushed = []
        for _ in range(150):
            net, caps, rev_caps = _raw_network(rng)
            pushed.append(mincut._push_three_arc_paths(_copy(net)))
            ref_flow, ref_side = reference_max_flow(net)
            flow, side = max_flow(net)
            assert flow == ref_flow == _exhaustive_min_cut(net, caps, rev_caps)
            assert np.array_equal(side, ref_side)
            assert cut_capacity(net, side) == flow
            _assert_feasible_flow(net, flow)
        assert np.mean(np.array(pushed) > 0) > 0.5  # the push did carry flow

    def test_push_alone_is_a_feasible_flow(self):
        rng = np.random.default_rng(13)
        nets = [_raw_network(rng)[0] for _ in range(100)]
        nets += [build_flow_network(energy)[0] for _, energy in _kernel_energies()]
        carried = 0
        for net in nets:
            flow, _ = max_flow(_copy(net))
            pushed = mincut._push_three_arc_paths(net)
            _assert_feasible_flow(net, pushed)
            assert 0 <= pushed <= flow
            carried += pushed > 0
        assert carried > len(nets) // 2

    @pytest.mark.parametrize("tight", ["source", "sink"])
    def test_exact_at_2_to_the_48_capacities(self, tight):
        # 101 parallel arcs of 2**48 + k into one node: their sum is past
        # 2**53, where a float64 sum drops the low bits
        exact = [2**48 + k for k in range(1, 102)]
        loose = [2**48 + 2**40] * 101
        total = sum(exact)
        assert int(np.bincount(np.zeros(101, int), weights=np.array(exact, float))[0]) != total
        source_caps, sink_caps = (exact, loose) if tight == "source" else (loose, exact)
        tails = [0] * 101 + [1] * 101 + [2] * 101
        heads = [1] * 101 + [2] * 101 + [3] * 101
        net = FlowNetwork.from_arrays(4, 0, 3, tails, heads, source_caps + loose + sink_caps)
        probe = _copy(net)
        assert mincut._push_three_arc_paths(probe) == total
        _assert_feasible_flow(probe, total)
        ref_flow, ref_side = reference_max_flow(net)
        flow, side = max_flow(net)
        assert flow == ref_flow == total
        assert np.array_equal(side, ref_side)

    def test_capacities_near_int64_limit_stay_exact(self):
        # node 1 has 10 units of supply and four arcs to node 2; the running
        # sum of their capacities passes 2**63, which must not wrap round
        # into a share for the last arc
        big = 2**62
        net = FlowNetwork.from_arrays(
            4, 0, 3, [0, 1, 1, 1, 1, 2], [1, 2, 2, 2, 2, 3], [10, big, big, big, 5, big]
        )
        probe = _copy(net)
        _assert_feasible_flow(probe, mincut._push_three_arc_paths(probe))
        ref_flow, ref_side = reference_max_flow(net)
        flow, side = max_flow(net)
        assert flow == ref_flow == 10
        assert np.array_equal(side, ref_side)
        # a reverse slot 3 below the int64 limit can take back only 3 units
        limit = int(np.iinfo(np.int64).max)
        net = FlowNetwork.from_arrays(
            4, 0, 3, [0, 1, 2], [1, 2, 3], [10, 10, 10], [limit - 3, 0, 0]
        )
        assert mincut._push_three_arc_paths(net) == 3
        _assert_feasible_flow(net, 3)

    def test_debug_line_adds_up_to_the_flow(self, caplog):
        _, energy = _kernel_energies()[0]
        net, _ = build_flow_network(energy)
        with caplog.at_level(logging.INFO, logger="coxcut.mincut"):
            max_flow(_copy(net))
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="coxcut.mincut"):
            flow, _ = max_flow(net)
        (record,) = [r for r in caplog.records if r.name == "coxcut.mincut"]
        assert record.levelno == logging.DEBUG
        numbers = re.findall(r"\d+", record.getMessage())
        nodes, pairs, pushed, found, phases = (int(v) for v in numbers)
        assert (nodes, pairs) == (net.num_nodes, len(net.arc_to) // 2)
        assert pushed + found == flow and pushed > 0 and phases >= 1


def _solve_and_check(caplog, net, exhaustive=None):
    """max_flow against the reference Dinic; returns (Dinic phases logged, source side)."""
    ref_flow, ref_side = reference_max_flow(net)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="coxcut.mincut"):
        flow, side = max_flow(net)
    assert flow == ref_flow
    if exhaustive is not None:
        assert flow == exhaustive
    assert np.array_equal(side, ref_side)
    assert cut_capacity(net, side) == flow
    _assert_feasible_flow(net, flow)
    (record,) = [r for r in caplog.records if r.name == "coxcut.mincut"]
    return int(re.findall(r"\d+", record.getMessage())[-1]), side


def _chain_with_shortcuts(rng, n):
    """Source 0 to sink n-1 along a chain, plus short jumps either way."""
    tails = list(range(n - 1))
    heads = list(range(1, n))
    for _ in range(n):
        u = int(rng.integers(0, n - 2))
        v = min(n - 1, u + int(rng.integers(2, 5)))
        if rng.random() < 0.3:
            u, v = v, u
        tails.append(u)
        heads.append(v)
    k = len(tails)
    caps = rng.integers(1, 30, k)
    rev_caps = rng.integers(0, 30, k) * (rng.random(k) < 0.5)
    return FlowNetwork.from_arrays(n, 0, n - 1, tails, heads, caps, rev_caps)


def _grid(rng, rows, cols):
    """Two-way grid arcs; the source feeds the left column, the right one drains."""
    node = np.arange(rows * cols).reshape(rows, cols)
    s, t = rows * cols, rows * cols + 1
    tails = [node[:, :-1].ravel(), node[:-1, :].ravel(), np.full(rows, s), node[:, -1]]
    heads = [node[:, 1:].ravel(), node[1:, :].ravel(), node[:, 0], np.full(rows, t)]
    tails, heads = np.concatenate(tails), np.concatenate(heads)
    caps = rng.integers(1, 20, len(tails))
    rev_caps = rng.integers(0, 20, len(tails))
    return FlowNetwork.from_arrays(rows * cols + 2, s, t, tails, heads, caps, rev_caps)


def _sink_level_crowd(rng):
    """Layers s | a0..a2 | sink, b0..b3 | c0..c2: arcs within the layers, and
    from b and c back into the sink, so that later phases run through them."""
    s, a, t, b, c = 0, [1, 2, 3], 4, [5, 6, 7, 8], [9, 10, 11]
    arcs = [(s, x) for x in a] + [(x, t) for x in a]
    arcs += [(x, y) for x in a for y in b if rng.random() < 0.5]
    arcs += [(x, y) for x, y in combinations(a, 2)] + [(x, y) for x, y in combinations(b, 2)]
    arcs += [(x, y) for x in b for y in c if rng.random() < 0.5]
    arcs += [(x, t) for x in b + c if rng.random() < 0.5]
    arcs += [(x, y) for x, y in combinations(c, 2)]
    tails, heads = (list(v) for v in zip(*arcs))
    k = len(arcs)
    caps = rng.integers(1, 20, k)
    rev_caps = rng.integers(0, 20, k) * (rng.random(k) < 0.5)
    return FlowNetwork.from_arrays(12, s, t, tails, heads, caps, rev_caps), caps, rev_caps


class TestPhaseLoop:
    """Dinic's phases after the push: numpy levels, Python search over admissible slots."""

    def test_deep_chains_with_shortcuts(self, caplog):
        rng = np.random.default_rng(21)
        nets = [_chain_with_shortcuts(rng, n) for n in (40, 120, 300)]
        phases = [_solve_and_check(caplog, net)[0] for net in nets]
        assert max(phases) >= 3

    def test_grids_take_many_levels_and_phases(self, caplog):
        rng = np.random.default_rng(22)
        nets = [_grid(rng, r, c) for r, c in ((3, 30), (8, 8), (12, 5))]
        phases = [_solve_and_check(caplog, net)[0] for net in nets]
        assert max(phases) >= 5

    def test_nodes_at_the_sinks_level_and_arcs_within_a_level(self, caplog):
        rng = np.random.default_rng(23)
        phases = []
        for _ in range(40):
            net, caps, rev_caps = _sink_level_crowd(rng)
            exhaustive = _exhaustive_min_cut(net, caps, rev_caps)
            phases.append(_solve_and_check(caplog, net, exhaustive)[0])
        assert max(phases) >= 2

    def test_hand_built_sink_level_crowd(self, caplog):
        # s=0, a=1, b=2, c=3, d=4, sink=5, e=6; no path s -> v -> w -> sink,
        # so the push sends nothing. Phase 1 sends 3 along s-a-b-c-sink, with
        # d at the sink's level and the arc e -> c within level 3. Phase 2
        # sends 7 along s-a-b-c-d-sink and must not take e -> c. Phase 3
        # sends 3 along s-a-b-e-c-d-sink.
        arcs = [(0, 1, 20), (1, 2, 20), (2, 3, 10), (3, 5, 3), (3, 4, 10), (4, 5, 10),
                (2, 6, 10), (6, 3, 5)]
        net = FlowNetwork.from_arcs(7, 0, 5, arcs)
        caps = np.array([c for *_, c in arcs])
        phases, side = _solve_and_check(caplog, net, _exhaustive_min_cut(net, caps, 0 * caps))
        assert phases == 3 and side.tolist() == [True, True, True, True, False, False, True]
        assert net.arc_cap[0::2].tolist() == [7, 7, 0, 0, 0, 0, 7, 2]

    def test_parallel_and_two_way_arcs(self, caplog):
        # parallel arc pairs between each two consecutive nodes of 0-1-2-3-4,
        # most of them two-way, and a two-way arc from 1 to 3
        tails = [0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 1]
        heads = [1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 3]
        caps = [3, 4, 1, 5, 2, 2, 1, 3, 6, 1, 2]
        rev_caps = [0, 2, 4, 0, 3, 1, 3, 0, 0, 2, 1]
        net = FlowNetwork.from_arrays(5, 0, 4, tails, heads, caps, rev_caps)
        exhaustive = _exhaustive_min_cut(net, np.array(caps), np.array(rev_caps))
        assert exhaustive == 7
        assert _solve_and_check(caplog, net, exhaustive)[0] >= 1

    def test_source_without_out_arcs(self, caplog):
        net = FlowNetwork.from_arcs(4, 0, 3, [(1, 0, 5), (1, 2, 5), (2, 3, 5)])
        phases, side = _solve_and_check(caplog, net, 0)
        assert phases == 0 and side.tolist() == [True, False, False, False]

    def test_no_arcs(self, caplog):
        net = FlowNetwork.from_arrays(3, 0, 2, [], [], [])
        phases, side = _solve_and_check(caplog, net, 0)
        assert phases == 0 and side.tolist() == [True, False, False]

    def test_unreachable_sink(self, caplog):
        arcs = [(0, 1, 4), (1, 2, 3), (2, 0, 2), (3, 4, 9), (4, 3, 1)]
        net = FlowNetwork.from_arcs(5, 0, 4, arcs)
        phases, side = _solve_and_check(caplog, net, 0)
        assert phases == 0 and side.tolist() == [True, True, True, False, False]

    def test_pair_sum_past_int64_rejected(self, caplog):
        net = FlowNetwork.from_arrays(
            4, 0, 3, [0, 1, 2], [1, 2, 3], [10, 10, 10], [2**63 - 4, 0, 0]
        )
        before = net.arc_cap.copy()
        message = rf"^arc pair \(0, 1\) has capacities summing to {2**63 + 6}, above 2\*\*63 - 1$"
        with pytest.raises(ValueError, match=message):
            max_flow(net)
        assert np.array_equal(net.arc_cap, before)
        limit = FlowNetwork.from_arrays(3, 0, 2, [0, 1], [1, 2], [10, 10], [2**63 - 11, 0])
        assert _solve_and_check(caplog, limit)[0] == 1  # a sum of exactly 2**63 - 1 is fine


class TestStableOrder:
    """Grouping sorts on narrow unsigned keys, numpy's radix sort up to 16 bits."""

    @pytest.mark.parametrize("bound", [1, 256, 65536, 65537, 2**20])
    def test_equals_numpy_stable_argsort(self, bound):
        rng = np.random.default_rng(bound)
        # distinct and heavily repeated keys, the extremes included
        keys = np.concatenate([
            rng.integers(0, bound, 3000),
            rng.choice([0, bound // 2, bound - 1], 3000),
        ])
        rng.shuffle(keys)
        assert np.array_equal(mincut._stable_order(keys, bound), np.argsort(keys, kind="stable"))
        empty = np.empty(0, dtype=np.int64)
        assert len(mincut._stable_order(empty, bound)) == 0

    def test_network_past_16_bit_node_ids(self, caplog):
        # 66,002 nodes, most isolated: arcs among 3000 nodes spread over the
        # ids, with tails and heads above 65535 and both terminals up there
        rng = np.random.default_rng(31)
        n = 66_002
        s, t = n - 1, n - 2
        active = np.concatenate([rng.choice(65_000, 2900, replace=False), np.arange(65_900, 66_000)])
        feed = rng.choice(active, 1500, replace=False)
        drain = rng.choice(active, 1500, replace=False)
        u, v = rng.choice(active, (2, 6000))
        tails = np.concatenate([np.full(1500, s), drain, u])
        heads = np.concatenate([feed, np.full(1500, t), v])
        caps = rng.integers(1, 50, len(tails))
        rev_caps = rng.integers(0, 50, len(tails)) * (rng.random(len(tails)) < 0.5)
        net = FlowNetwork.from_arrays(n, s, t, tails, heads, caps, rev_caps)
        assert net.arc_to[1::2].max() > 65_535 and net.arc_to[0::2].max() > 65_535
        phases, side = _solve_and_check(caplog, net)
        assert phases >= 1 and 1 < side.sum() < n - 1


class TestBuildFlowNetwork:
    def test_zero_energy_all_zero_capacities(self):
        energy = _energy(np.zeros((3, 2)), pairs=[(0, 1, [0.0, 0.0])])
        net, rec = build_flow_network(energy)
        assert net.arc_cap0.sum() == 0
        flow, _ = max_flow(net)
        assert flow == 0 and rec.offset == 0

    def test_single_site_unary_cut(self):
        energy = _energy([[0.0, -3.0]])
        net, rec = build_flow_network(energy)
        flow, side = max_flow(net)
        assert flow == 0
        assert not side[0]  # sink side, label 2
        assert binary_map(energy).tolist() == [2]

    def test_cut_costs_enumerate_to_quantized_energy(self):
        # two sites, hand-built: every labeling's cut equals quantized energy - offset
        energy = _energy([[0.0, -1.0], [0.0, -1.0]], pairs=[(0, 1, [2.0, 2.0])])
        net, rec = build_flow_network(energy)
        for labs in product([1, 2], repeat=2):
            side = np.array([lab == 1 for lab in labs] + [True, False])
            cut = cut_capacity(net, side)
            true_e = energy_of(energy, list(labs))
            assert abs((cut + rec.offset) / rec.scale - true_e) <= 4 * 0.5 / rec.scale

    def test_multiclass_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            build_flow_network(_energy(np.zeros((2, 3))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # a non-finite pair weight never reaches here: EnergyGraph refuses it
        unary = np.zeros((3, 2))
        unary[1, 0] = bad
        with pytest.raises(ValueError, match=r"non-finite unary energy at site 1"):
            binary_map(_energy(unary, pairs=[(0, 2, [1.0, 1.0])]))

    def test_shared_kernel_potts_without_unaries_has_no_terminal_arcs(self):
        ds = gen_double_helix(60, 1.0, 1.5, 2.0, 0.04, 5)
        labeled, heldout = partition(ds, 5, 5)
        potts = build_energy(shared_models(2, Kernel("se", 1.0, 0.3)), labeled, heldout.covariates)
        assert potts.num_pairs > 0
        energy = EnergyGraph(
            np.zeros_like(potts.unary), potts.pair_i, potts.pair_j, potts.weights, potts.column
        )
        net, rec = build_flow_network(energy)
        assert not np.isin(net.arc_to, [net.source, net.sink]).any()
        assert len(net.arc_to) == 2 * potts.num_pairs  # one arc pair per kept pair
        flow, side = max_flow(net)
        assert flow == 0
        assert side.tolist() == [False] * energy.num_sites + [True, False]


class TestBinaryMap:
    def test_single_site_matches_brute_force(self):
        for col in ([0.0, -3.0], [1.0, 2.0], [0.25, 0.75]):
            energy = _energy([col])
            assert binary_map(energy).tolist() == brute_force_map(energy)[0].tolist()

    def test_exact_tie_both_labelings_optimal(self):
        energy = _energy([[-0.5, -0.5]])
        lab = binary_map(energy)
        assert energy_of(energy, lab) == brute_force_map(energy)[1]

    def test_random_instances_match_brute_force_energy_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            *_, energy = random_ssl_instance(rng, q=2)
            mc = binary_map(energy)
            bf_lab, bf_e = brute_force_map(energy)
            assert energy_of(energy, mc) == bf_e
            assert np.array_equal(mc, bf_lab)  # unique minimum a.s. for random data

    def test_map_beats_random_labelings(self):
        rng = np.random.default_rng(2)
        *_, energy = random_ssl_instance(rng, q=2, max_unlabeled=12)
        e_star = energy_of(energy, binary_map(energy))
        for _ in range(1000):
            y = rng.integers(1, 3, energy.num_sites)
            assert e_star <= energy_of(energy, y) + 1e-12


class TestDualityConservation:
    def test_flow_equals_cut_and_conservation_holds(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            *_, energy = random_ssl_instance(rng, q=2)
            net, _ = build_flow_network(energy)
            flow, side = max_flow(net)
            assert cut_capacity(net, side) == flow
            balance = node_balances(net)
            inner = np.delete(balance, [net.source, net.sink])
            assert np.all(inner == 0)
            assert balance[net.source] == flow
            assert balance[net.sink] == -flow


class TestQuantizationSoundness:
    def test_energy_error_bound_over_all_labelings(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            *_, energy = random_ssl_instance(rng, q=2, max_unlabeled=8)
            net, rec = build_flow_network(energy)
            u = energy.num_sites
            bound = u * u * 0.5 / rec.scale
            for labs in product([1, 2], repeat=u):
                side = np.array([lab == 1 for lab in labs] + [True, False])
                cut = cut_capacity(net, side)
                quantized = (cut + rec.offset) / rec.scale
                true_e = energy_of(energy, list(labs)) - energy.constant
                assert abs(quantized - true_e) <= bound

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_cut_plus_offset_is_the_quantized_energy(self, data):
        # dyadic entries keep the sums exact
        unit = 2.0 ** data.draw(st.integers(-20, 20))
        value = st.integers(-64, 64).map(lambda k: k / 8 * unit)
        weight = st.integers(0, 64).map(lambda k: k / 8 * unit)
        u = data.draw(st.integers(1, 8))
        unary = np.array(data.draw(st.lists(st.tuples(value, value), min_size=u, max_size=u)))
        site_pairs = list(combinations(range(u), 2))
        chosen = data.draw(st.lists(st.sampled_from(site_pairs), unique=True)) if site_pairs else []
        pairs = [(i, j, data.draw(st.tuples(weight, weight))) for i, j in chosen]
        energy = _energy(unary, pairs)
        net, rec = build_flow_network(energy)

        # the quantization rules of build_flow_network, term by term: E(a, a)
        # = -w rounded down, 0 off the diagonal
        qu = np.rint(energy.unary * rec.scale).astype(np.int64)
        qt = np.zeros((energy.num_pairs, 2, 2), dtype=np.int64)
        for a in (0, 1):
            qt[:, a, a] = np.floor(-energy.weights[:, a] * rec.scale)
        for labs in product([0, 1], repeat=u):
            quantized = sum(int(qu[k, x]) for k, x in enumerate(labs))
            quantized += sum(int(qt[p, labs[i], labs[j]]) for p, (i, j) in enumerate(chosen))
            side = np.array([x == 0 for x in labs] + [True, False])
            assert cut_capacity(net, side) + rec.offset == quantized


@cache
def _kernel_energies():
    """(name, energy) pairs of 150-400 sites on the paper's synthetic shapes."""
    out = []
    for seed, n, scales in [(1, 150, (0.08, 0.13, 0.3)), (2, 200, (0.08, 0.18))]:
        ds = gen_double_helix(n, 1.0, 1.5, 2.0, 0.04, seed)
        labeled, heldout = partition(ds, 10, seed)
        for ls in scales:
            models = shared_models(2, Kernel("se", 1.0, ls))
            energy = build_energy(models, labeled, heldout.covariates)
            out.append((f"helix{seed} ls={ls}", energy))
    for seed, scales in [(3, (0.5, 1.0)), (4, (0.7, 2.0))]:
        ds = gen_concentric_circles(100, (1.0, 4.0), 0.08, seed)
        labeled, heldout = partition(ds, 10, seed)
        for ls in scales:
            models = shared_models(2, Kernel("se", 0.25, ls))
            energy = build_energy(models, labeled, heldout.covariates)
            out.append((f"circles{seed} ls={ls}", energy))
    # the binary sub-energies that expansion moves hand to the min-cut
    # solver, over the sites not already at the move's label
    for radii, n_per_class in [((1.0, 4.0, 7.0), 100), ((1.0, 3.0, 5.0, 7.0), 70)]:
        q = len(radii)
        ds = gen_concentric_circles(n_per_class, radii, 0.08, q)
        labeled, heldout = partition(ds, 8, q)
        full = build_energy(shared_models(q, Kernel("se", 0.25, 1.0)), labeled, heldout.covariates)
        subs = _expansion_sub_energies(full, np.argmin(full.unary, axis=1) + 1)
        moves = [(f"expansion Q={q} move {k}", e) for k, e in enumerate(subs)]
        out += [(name, e) for name, e in moves if e.num_sites >= 150][:5]
    return out


def _expansion_sub_energies(energy, init):
    """Every binary sub-energy that alpha_expansion cuts from ``init``."""
    subs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expansion, "binary_map", lambda e: subs.append(e) or binary_map(e))
        alpha_expansion(energy, init)
    return subs


class TestAgainstReferenceSolver:
    def test_kernel_energies_match_reference_dinic(self):
        # too large for brute force: an independent Dinic is the judge
        instances = _kernel_energies()
        assert len(instances) >= 18
        for name, energy in instances:
            assert 150 <= energy.num_sites <= 400, name
            net, _ = build_flow_network(energy)
            ref_flow, ref_side = reference_max_flow(net)
            flow, side = max_flow(net)
            assert flow == ref_flow, name
            assert np.array_equal(side, ref_side), name
            assert cut_capacity(net, side) == flow, name
            balance = node_balances(net)
            assert balance[net.source] == flow, name
            assert np.all(np.delete(balance, [net.source, net.sink]) == 0), name
            ref_labels = mincut._flip_polish(energy, np.where(ref_side[: energy.num_sites], 1, 2))
            labels = binary_map(energy)
            assert np.array_equal(labels, ref_labels), name
            assert energy_of(energy, labels) == energy_of(energy, ref_labels), name


def _random_weight_energy(rng, u):
    """Random binary energy whose pairs weigh the two labels differently.

    w1 != w2 puts a term on the terminal arc of each pair's first site; a
    fifth of the weights are 0.
    """
    unary = rng.normal(0.0, 1.0, (u, 2))
    pairs = [(i, j, rng.exponential(1.0, 2) * (rng.random(2) < 0.8))
             for i, j in combinations(range(u), 2) if rng.random() < 0.6]
    return _energy(unary, pairs)


def _pair_arcs(network):
    """Arc pairs that join two sites (neither end a terminal)."""
    ends = network.arc_to.reshape(-1, 2)
    return int(np.count_nonzero((ends < network.source).all(axis=1)))


class TestAgainstReferenceNetwork:
    """The two-way pair arcs against the reference decomposition onto the terminals."""

    def test_cut_plus_offset_matches_reference_on_every_labeling(self):
        rng = np.random.default_rng(11)
        # build_energy's energies (per-class kernels weigh the labels
        # differently), then random weights
        instances = [random_ssl_instance(rng, q=2, max_unlabeled=8)[-1] for _ in range(20)]
        instances += [_random_weight_energy(rng, int(rng.integers(2, 9))) for _ in range(30)]
        w = np.concatenate([e.weights[:, e.column] for e in instances])
        assert np.sum(w[:, 0] != w[:, 1]) > 100
        for energy in instances:
            net, rec = build_flow_network(energy)
            ref, ref_rec = build_flow_network_reference(table_energy(energy))
            assert (rec.scale, rec.bits) == (ref_rec.scale, ref_rec.bits)
            u = energy.num_sites
            for labs in product([True, False], repeat=u):
                side = np.array([*labs, True, False])
                cut = cut_capacity(net, side) + rec.offset
                assert cut == cut_capacity(ref, side) + ref_rec.offset
            flow, side = max_flow(net)
            ref_flow, ref_side = max_flow(ref)
            assert flow + rec.offset == ref_flow + ref_rec.offset
            assert np.array_equal(side, ref_side)

    def test_binary_map_matches_reference_on_kernel_energies(self):
        for name, energy in _kernel_energies():
            net, rec = build_flow_network(energy)
            ref, ref_rec = build_flow_network_reference(table_energy(energy))
            assert _pair_arcs(net) == _pair_arcs(ref), name  # one arc pair per kept pair
            flow, side = max_flow(net)
            ref_flow, ref_side = max_flow(ref)
            assert flow + rec.offset == ref_flow + ref_rec.offset, name
            assert np.array_equal(side, ref_side), name
            ref_labels = mincut._flip_polish(energy, np.where(ref_side[: energy.num_sites], 1, 2))
            assert np.array_equal(binary_map(energy), ref_labels), name


def _assert_same_network(energy, name=""):
    """build_flow_network against the table-form reduction with the fold, bit for bit."""
    net, rec = build_flow_network(energy)
    ref, ref_rec = build_flow_network_folded(table_energy(energy))
    assert net.num_nodes == ref.num_nodes, name
    assert net.arc_to.tobytes() == ref.arc_to.tobytes(), name
    assert net.arc_cap.tobytes() == ref.arc_cap.tobytes(), name
    assert net.arc_cap0.tobytes() == ref.arc_cap0.tobytes(), name
    assert (rec.scale, rec.bits, rec.offset) == (ref_rec.scale, ref_rec.bits, ref_rec.offset), name


def _per_class_models(q, length_scale):
    return [ClassModel(0.1 * a, Kernel("exp" if a % 2 else "se", 0.25 + 0.1 * a,
                                       length_scale * (1 + a / 3))) for a in range(q)]


class TestAgainstFoldedNetwork:
    """Potts weights against the earlier reduction of general 2x2 tables."""

    def test_binary_build_energy_networks(self):
        rng = np.random.default_rng(41)
        instances = [random_ssl_instance(rng, q=2, max_unlabeled=30, shared_kernel=shared)[-1]
                     for shared in (True, False) * 30]
        instances += [e for _, e in _kernel_energies()[:10]]
        ds = gen_double_helix(120, 1.0, 1.5, 2.0, 0.04, 6)
        labeled, heldout = partition(ds, 10, 6)
        instances.append(build_energy(_per_class_models(2, 0.2), labeled, heldout.covariates))
        assert sum(len(np.unique(e.column)) == 2 for e in instances) > 30
        for energy in instances:
            _assert_same_network(energy)
            labels = binary_map(energy)
            assert np.array_equal(labels, binary_map_folded(table_energy(energy)))

    @pytest.mark.parametrize("q", [3, 4])
    def test_every_expansion_sub_energy(self, q):
        rng = np.random.default_rng(40 + q)
        cases = []
        for shared in (True, False) * 10:
            *_, energy = random_ssl_instance(rng, q=q, max_unlabeled=30, shared_kernel=shared)
            cases.append((energy, rng.integers(1, q + 1, energy.num_sites)))
        radii = (1.0, 2.0, 3.0, 4.0)[:q]
        ds = gen_concentric_circles(60, radii, 0.1, q)
        labeled, heldout = partition(ds, 8, q)
        for models in (shared_models(q, Kernel("se", 1.0, 0.3)), _per_class_models(q, 0.3)):
            energy = build_energy(models, labeled, heldout.covariates)
            cases.append((energy, np.argmin(energy.unary, axis=1) + 1))
        checked = 0
        for energy, init in cases:
            for k, sub in enumerate(_expansion_sub_energies(energy, init)):
                _assert_same_network(sub, f"move {k}")
                labels = binary_map(sub)
                assert np.array_equal(labels, binary_map_folded(table_energy(sub)))
                checked += sub.num_pairs > 0
        assert checked > 60
