from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_expansion
from _instances import random_ssl_instance
from _reference_flow import reference_max_flow
from coxcut import (
    EnergyGraph,
    FlowNetwork,
    Kernel,
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
from coxcut import mincut


def _energy(unary, pairs=None, constant=0.0):
    unary = np.asarray(unary, dtype=float)
    q = unary.shape[1]
    if pairs:
        pi = np.array([p[0] for p in pairs])
        pj = np.array([p[1] for p in pairs])
        tables = np.array([p[2] for p in pairs], dtype=float)
    else:
        pi = pj = np.empty(0, dtype=np.int64)
        tables = np.empty((0, q, q))
    return EnergyGraph(unary, pi, pj, tables, constant)


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


class TestBuildFlowNetwork:
    def test_zero_energy_all_zero_capacities(self):
        energy = _energy(np.zeros((3, 2)), pairs=[(0, 1, np.zeros((2, 2)))])
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
        table = np.array([[-2.0, 0.0], [0.0, -2.0]])
        energy = _energy([[0.0, -1.0], [0.0, -1.0]], pairs=[(0, 1, table)])
        net, rec = build_flow_network(energy)
        for labs in product([1, 2], repeat=2):
            side = np.array([lab == 1 for lab in labs] + [True, False])
            cut = cut_capacity(net, side)
            true_e = energy_of(energy, list(labs))
            assert abs((cut + rec.offset) / rec.scale - true_e) <= 4 * 0.5 / rec.scale

    def test_representability_violation_names_pair(self):
        bad = np.array([[-1.0, -3.0], [-3.0, -1.0]])
        energy = _energy(np.zeros((3, 2)), pairs=[(1, 2, bad)])
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            build_flow_network(energy)

    def test_multiclass_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            build_flow_network(_energy(np.zeros((2, 3))))


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
        # dyadic entries make every a + d <= b + c test exact
        unit = 2.0 ** data.draw(st.integers(-20, 20))
        value = st.integers(-64, 64).map(lambda k: k / 8 * unit)
        u = data.draw(st.integers(1, 8))
        unary = np.array(data.draw(st.lists(st.tuples(value, value), min_size=u, max_size=u)))
        site_pairs = list(combinations(range(u), 2))
        chosen = data.draw(st.lists(st.sampled_from(site_pairs), unique=True)) if site_pairs else []
        pairs = []
        for i, j in chosen:
            a, b, c, d = data.draw(st.tuples(value, value, value, value))
            # swapping the diagonal with the off-diagonal turns a violating table representable
            pairs.append((i, j, [[a, b], [c, d]] if a + d <= b + c else [[b, a], [d, c]]))
        energy = _energy(unary, pairs)
        net, rec = build_flow_network(energy)

        # the quantization rules of build_flow_network, term by term
        qu = np.rint(energy.unary * rec.scale).astype(np.int64)
        qt = np.empty(energy.tables.shape, dtype=np.int64)
        for a in (0, 1):
            qt[:, a, a] = np.floor(energy.tables[:, a, a] * rec.scale)
            qt[:, a, 1 - a] = np.ceil(energy.tables[:, a, 1 - a] * rec.scale)
        for labs in product([0, 1], repeat=u):
            quantized = sum(int(qu[k, x]) for k, x in enumerate(labs))
            quantized += sum(int(qt[p, labs[i], labs[j]]) for p, (i, j) in enumerate(chosen))
            side = np.array([x == 0 for x in labs] + [True, False])
            assert cut_capacity(net, side) + rec.offset == quantized


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
    # the binary sub-energies over all sites that the reference expansion
    # moves hand to the min-cut solver (the reduced moves cut fewer sites)
    for radii, n_per_class in [((1.0, 4.0, 7.0), 70), ((1.0, 3.0, 5.0, 7.0), 50)]:
        q = len(radii)
        ds = gen_concentric_circles(n_per_class, radii, 0.08, q)
        labeled, heldout = partition(ds, 8, q)
        full = build_energy(shared_models(q, Kernel("se", 0.25, 1.0)), labeled, heldout.covariates)
        subs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_reference_expansion, "binary_map", lambda e: subs.append(e) or binary_map(e))
            _reference_expansion.alpha_expansion_reference(full, np.argmin(full.unary, axis=1) + 1)
        out += [(f"expansion Q={q} move {k}", e) for k, e in enumerate(subs[:5])]
    return out


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
