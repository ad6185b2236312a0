import numpy as np
import pytest

import _reference_expansion
from _instances import random_models, random_ssl_instance
from _reference_expansion import alpha_expansion_reference, expansion_move_reference
from coxcut import (
    Dataset,
    EnergyGraph,
    Kernel,
    alpha_expansion,
    binary_map,
    brute_force_map,
    build_energy,
    energy_of,
    expansion_move,
    gen_concentric_circles,
    partition,
    predict_label,
    predict_proba,
    shared_models,
    ssl_solve,
)
from coxcut import expansion


def _circles_energy(radii, n_per_class, length_scale, seed):
    """Energy of a circles set with 8 labeled points per class (about 300 sites)."""
    q = len(radii)
    ds = gen_concentric_circles(n_per_class, radii, 0.1, seed)
    labeled, heldout = partition(ds, 8, seed)
    return build_energy(shared_models(q, Kernel("se", 1.0, length_scale)), labeled, heldout.covariates)


# Circles instances of 288-312 sites at the workload's and at wider length scales.
CIRCLES = [((1.0, 2.0, 3.0), 104, 0.2, 0), ((1.0, 2.0, 3.0), 104, 0.5, 1),
           ((1.0, 2.0, 3.0, 4.0), 80, 0.2, 2), ((1.0, 2.0, 3.0, 4.0), 80, 0.35, 3)]


def _random_weight_energy(rng, q, num_sites, num_pairs):
    """Random weights in 2..Q columns, some classes sharing one, about a fifth of them 0."""
    pi, pj = np.triu_indices(num_sites, 1)
    picked = np.sort(rng.choice(len(pi), num_pairs, replace=False))
    k = int(rng.integers(2, q + 1))
    column = np.r_[np.arange(k), rng.integers(0, k, q - k)]
    rng.shuffle(column)
    weights = rng.uniform(0, 2, (num_pairs, k)) * (rng.random((num_pairs, k)) < 0.8)
    return EnergyGraph(rng.normal(0, 2, (num_sites, q)), pi[picked], pj[picked], weights, column)


def _count_cuts(monkeypatch, module):
    calls = []
    real = module.binary_map
    monkeypatch.setattr(module, "binary_map", lambda e: calls.append(e.num_sites) or real(e))
    return calls


class TestAlphaExpansion:
    def test_binary_case_equals_mincut(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            *_, energy = random_ssl_instance(rng, q=2, max_unlabeled=10)
            init = rng.integers(1, 3, energy.num_sites)
            res = alpha_expansion(energy, init)
            mc = binary_map(energy)
            assert energy_of(energy, res) == energy_of(energy, mc)
            assert np.array_equal(res, mc)

    def test_strong_unaries_ignore_init(self):
        rng = np.random.default_rng(1)
        unary = rng.normal(0, 5, (8, 3))
        energy = EnergyGraph(
            unary, np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, 1)), [0, 0, 0]
        )
        want = (np.argmin(unary, axis=1) + 1).tolist()
        for _ in range(5):
            init = rng.integers(1, 4, 8)
            assert alpha_expansion(energy, init).tolist() == want

    def test_monotone_history_and_local_optimality(self):
        rng = np.random.default_rng(2)
        gaps = []
        for _ in range(60):
            *_, energy = random_ssl_instance(rng, q=3, max_unlabeled=10)
            init = rng.integers(1, 4, energy.num_sites)
            history = []
            res = alpha_expansion(energy, init, history=history)
            assert history[0] == energy_of(energy, init)
            assert all(b < a - 1e-12 for a, b in zip(history, history[1:]))
            e_fin = energy_of(energy, res)
            assert e_fin == history[-1]
            for alpha in (1, 2, 3):
                _, e_move = expansion_move(energy, res, alpha)
                assert e_move >= e_fin - 1e-12
            _, e_star = brute_force_map(energy)
            assert e_fin >= e_star - 1e-12
            gaps.append(e_fin - e_star)
        # report (no equality requirement for the multiclass local optimum)
        print(f"\nexpansion vs global optimum: max gap {max(gaps):.3e}, "
              f"suboptimal {sum(g > 1e-12 for g in gaps)}/{len(gaps)}")

    def test_expansion_move_validates_alpha(self):
        *_, energy = random_ssl_instance(np.random.default_rng(3), q=3, max_unlabeled=4)
        with pytest.raises(ValueError, match="alpha"):
            expansion_move(energy, np.ones(energy.num_sites, np.int64), 4)


class TestMatchesReference:
    """Reduced moves and the early stop give the reference's labelings and energies."""

    def _assert_same_run(self, energy, init):
        history, ref_history = [], []
        res = alpha_expansion(energy, init, history=history)
        ref = alpha_expansion_reference(energy, init, history=ref_history)
        assert np.array_equal(res, ref)
        assert history == ref_history
        assert energy_of(energy, res) == energy_of(energy, ref) == history[-1]
        return res

    @pytest.mark.parametrize("q", [3, 4])
    def test_random_instances(self, q):
        rng = np.random.default_rng(10 + q)
        for _ in range(40):
            *_, energy = random_ssl_instance(rng, q=q, max_labeled=8, max_unlabeled=40)
            self._assert_same_run(energy, rng.integers(1, q + 1, energy.num_sites))
            self._assert_same_run(energy, np.argmin(energy.unary, axis=1) + 1)

    def test_brute_force_sized_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            *_, energy = random_ssl_instance(rng, q=3, max_unlabeled=10)
            res = self._assert_same_run(energy, rng.integers(1, 4, energy.num_sites))
            _, e_star = brute_force_map(energy)
            assert energy_of(energy, res) >= e_star - 1e-12

    @pytest.mark.parametrize("radii,n_per_class,length_scale,seed", CIRCLES)
    def test_circles(self, radii, n_per_class, length_scale, seed):
        energy = _circles_energy(radii, n_per_class, length_scale, seed)
        assert 280 <= energy.num_sites <= 320
        self._assert_same_run(energy, np.argmin(energy.unary, axis=1) + 1)

    def test_random_weight_columns(self):
        # build_energy gives a column per distinct kernel in class order; these
        # map classes to columns at random, so a column mix-up in the moves shows
        rng = np.random.default_rng(15)
        for q in (3, 4) * 15:
            energy = _random_weight_energy(rng, q, 30, 120)
            self._assert_same_run(energy, rng.integers(1, q + 1, energy.num_sites))

    def test_every_move_from_mixed_labelings(self):
        rng = np.random.default_rng(13)
        energies = [random_ssl_instance(rng, q=q, max_unlabeled=30)[-1] for q in (3, 4) * 10]
        energies += [_random_weight_energy(rng, q, 30, 120) for q in (3, 4) * 5]
        energies.append(_circles_energy(*CIRCLES[2]))
        for energy in energies:
            q = energy.num_labels
            for labels in (rng.integers(1, q + 1, energy.num_sites),
                           rng.integers(1, 3, energy.num_sites)):  # labels 3.. absent
                for alpha in range(1, q + 1):
                    move, e_move = expansion_move(energy, labels, alpha)
                    ref, e_ref = expansion_move_reference(energy, labels, alpha)
                    assert np.array_equal(move, ref)
                    assert e_move == e_ref == energy_of(energy, move)

    def test_move_with_every_site_at_alpha_skips_the_cut(self, monkeypatch):
        *_, energy = random_ssl_instance(np.random.default_rng(14), q=3, max_unlabeled=12)
        calls = _count_cuts(monkeypatch, expansion)
        labels = np.full(energy.num_sites, 2, np.int64)
        move, e_move = expansion_move(energy, labels, 2)
        assert calls == []
        assert np.array_equal(move, labels) and move is not labels
        assert e_move == energy_of(energy, labels)

    def test_moves_cut_only_the_sites_not_at_alpha(self, monkeypatch):
        energy = _circles_energy(*CIRCLES[0])
        calls = _count_cuts(monkeypatch, expansion)
        labels = np.argmin(energy.unary, axis=1) + 1
        for alpha in (1, 2, 3):
            expansion_move(energy, labels, alpha)
        assert calls == [int(np.sum(labels != alpha)) for alpha in (1, 2, 3)]

    def test_fewer_cuts_than_reference(self, monkeypatch):
        energy = _circles_energy(*CIRCLES[0])
        calls = _count_cuts(monkeypatch, expansion)
        ref_calls = _count_cuts(monkeypatch, _reference_expansion)
        init = np.argmin(energy.unary, axis=1) + 1
        alpha_expansion(energy, init)
        alpha_expansion_reference(energy, init)
        assert 0 < len(calls) < len(ref_calls)
        assert sum(calls) < sum(ref_calls)


class TestSslSolve:
    def test_duplicate_of_labeled_point_gets_its_label(self):
        # one unlabeled site placed exactly on a labeled point; verified
        # against brute force on the same 3-point instance
        models = shared_models(2, Kernel("se", 1.0, 1.0))
        labeled = Dataset(np.array([[0.0, 0.0], [4.0, 0.0]]), np.array([1, 2]), 2)
        unlabeled = np.array([[0.0, 0.0]])
        res = ssl_solve(models, labeled, unlabeled)
        assert res.tolist() == [1]
        energy = build_energy(models, labeled, unlabeled)
        assert res.tolist() == brute_force_map(energy)[0].tolist()

    def test_single_unlabeled_agrees_with_supervised(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            q = int(rng.integers(2, 5))
            models = random_models(rng, q, shared_kernel=True, zero_means=True)
            n = int(rng.integers(1, 8))
            labeled = Dataset(rng.normal(0, 1, (n, 2)), rng.integers(1, q + 1, n), q)
            x = rng.normal(0, 1, (1, 2))
            res = ssl_solve(models, labeled, x)
            sup = predict_label(predict_proba(models, labeled, x[0]))
            assert res[0] == sup

    def test_binary_solve_is_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            models, labeled, unlabeled, energy = random_ssl_instance(rng, q=2)
            res = ssl_solve(models, labeled, unlabeled)
            _, e_star = brute_force_map(energy)
            assert energy_of(energy, res) == e_star

    def test_multiclass_route_runs(self):
        rng = np.random.default_rng(6)
        models, labeled, unlabeled, energy = random_ssl_instance(rng, q=3, max_unlabeled=8)
        res = ssl_solve(models, labeled, unlabeled)
        assert res.shape == (energy.num_sites,)
        assert set(np.unique(res)) <= {1, 2, 3}

    def test_requires_labeled_points(self):
        models = shared_models(2, Kernel("se"))
        empty = Dataset(np.empty((0, 1)), np.empty(0, np.int64), 2)
        with pytest.raises(ValueError, match="labeled"):
            ssl_solve(models, empty, np.array([[0.0]]))
