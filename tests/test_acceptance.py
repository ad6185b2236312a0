"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Timed criteria measure the
solve work itself; one tiny warm-up call first makes sure one-off first-call
costs of the hot kernels are not billed to the algorithm under test.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from _instances import random_ssl_instance
from coxcut import (
    ClassModel,
    Dataset,
    Kernel,
    Window,
    alpha_expansion,
    binary_map,
    brute_force_log_partition,
    brute_force_map,
    build_energy,
    build_flow_network,
    check_pairwise_representable,
    cut_capacity,
    energy_of,
    expansion_move,
    gen_concentric_circles,
    gen_double_helix,
    kde_predict_batch,
    kfold_cv_ssl,
    log_product_density,
    loo_cv,
    max_flow,
    node_balances,
    pair_tables,
    partition,
    predict_labels,
    predict_proba_batch,
    sample_gp_field,
    shared_models,
    ssl_solve,
)
from coxcut.cli import bench_prediction


def _passed(num, name):
    print(f"\nACCEPTANCE {num} {name}: PASS")


def _warm_up():
    rng = np.random.default_rng(0)
    *_, energy = random_ssl_instance(rng, q=2, max_unlabeled=4)
    binary_map(energy)
    brute_force_map(energy)
    brute_force_log_partition(energy)


def test_01_binary_map_exactness():
    _warm_up()
    rng = np.random.default_rng(1001)
    instances = []
    for _ in range(500):
        instances.append(random_ssl_instance(rng, q=2, max_unlabeled=15)[3])
    t0 = time.perf_counter()
    for energy in instances:
        bf_lab, bf_e = brute_force_map(energy)
        mc_lab = binary_map(energy)
        assert energy_of(energy, mc_lab) == bf_e
        # continuous random energies: the minimum is unique almost surely
        assert np.array_equal(mc_lab, bf_lab)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"binary MAP acceptance took {elapsed:.1f}s"
    _passed(1, f"binary MAP exactness (500 instances, {elapsed:.1f}s)")


def test_02_pairwise_representability_and_adversarial_tables():
    rng = np.random.default_rng(1002)
    for _ in range(1000):
        q = int(rng.integers(2, 5))
        *_, energy = random_ssl_instance(rng, q=q, max_unlabeled=8)
        ok, witness = check_pairwise_representable(pair_tables(energy))
        assert ok and witness is None
    # adversarial: perturb one pairwise table so some triple violates
    detected = 0
    for _ in range(100):
        q = int(rng.integers(2, 5))
        while True:
            *_, energy = random_ssl_instance(rng, q=q, max_unlabeled=8)
            if energy.num_pairs:
                break
        p = int(rng.integers(0, energy.num_pairs))
        a = int(rng.integers(0, q))
        c = int(rng.integers(0, q))
        while c == a:
            c = int(rng.integers(0, q))
        tables = pair_tables(energy)
        # a deep off-diagonal valley breaks E(a,a) + E(b,c) <= E(a,c) + E(b,a)
        tables[p, a, c] = -10.0
        ok, witness = check_pairwise_representable(tables)
        assert not ok and witness is not None
        wp, wa, wb, wc = witness
        assert wp == p  # the other tables are the energy's own, all representable
        t = tables[wp]
        assert t[wa - 1, wa - 1] + t[wb - 1, wc - 1] > t[wa - 1, wc - 1] + t[wb - 1, wa - 1] + 1e-9
        detected += 1
    assert detected == 100
    _passed(2, "pairwise representability (1000 valid, 100 adversarial)")


def test_03_argmax_equivalence():
    rng = np.random.default_rng(1003)
    for _ in range(1000):
        q = int(rng.integers(2, 5))
        n = int(rng.integers(1, 25))
        d = int(rng.integers(1, 4))
        k = Kernel("se" if rng.random() < 0.5 else "exp", 1.0, float(rng.uniform(0.3, 3.0)))
        train = Dataset(rng.uniform(-3, 3, (n, d)), rng.integers(1, q + 1, n), q)
        models = shared_models(q, k)
        # test points in the data region (kernel sums stay representable
        # next to the C(0)/2 constant; any float implementation ties far out)
        xt = train.covariates[rng.integers(0, n, 8)] + rng.normal(0, k.length_scale, (8, d))
        soft = predict_labels(predict_proba_batch(models, train, xt))
        dens = predict_labels(kde_predict_batch(k, train, xt))
        assert np.array_equal(soft, dens)
    _passed(3, "argmax equivalence of the two predictive rules (1000 instances)")


def test_04_product_density_monte_carlo():
    kernel = Kernel("se", 1.0, 1.0)
    model = ClassModel(0.0, kernel)
    window = Window(np.array([0.0]), np.array([2.0]), 2)  # centers 0.5 and 1.5
    centers = window.cell_centers()
    assert abs(np.linalg.norm(centers[0] - centers[1]) - 1.0) < 1e-12
    target = math.exp(log_product_density(model, centers))
    draws = np.empty(10_000)
    for seed in range(draws.size):
        field = sample_gp_field(0.0, kernel, window, seed=seed)
        draws[seed] = field.intensity[0] * field.intensity[1]
    mean = draws.mean()
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(mean - target) <= 3 * se, f"|{mean:.4f} - {target:.4f}| > 3*{se:.4f}"
    _passed(4, f"product density Monte-Carlo ({draws.size} draws, |diff|={abs(mean - target):.3f} <= {3 * se:.3f})")


def test_05_concentric_circles_reproduction():
    _warm_up()
    t0 = time.perf_counter()
    # two rings, squared-exponential kernel, signal std 0.5, unit length scale
    models = shared_models(2, Kernel("se", 0.25, 1.0))
    ds = gen_concentric_circles(100, (1.0, 4.0), noise_std=0.08, seed=42)
    labeled, heldout = partition(ds, 20, seed=7)
    solved = ssl_solve(models, labeled, heldout.covariates)
    two_ring_errors = int(np.sum(solved != heldout.labels))
    assert two_ring_errors <= 2, f"{two_ring_errors} errors on {heldout.n} unlabeled points"

    # three rings, same kernel settings
    models3 = shared_models(3, Kernel("se", 0.25, 1.0))
    ds3 = gen_concentric_circles(80, (1.0, 4.0, 7.0), noise_std=0.08, seed=43)
    labeled3, heldout3 = partition(ds3, 20, seed=8)
    solved3 = ssl_solve(models3, labeled3, heldout3.covariates)
    rate = float(np.mean(solved3 != heldout3.labels))
    assert rate <= 0.05, f"three-ring error rate {rate:.3f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"circle reproduction took {elapsed:.1f}s"
    _passed(5, f"concentric circles ({two_ring_errors} errors of {heldout.n}; "
               f"three rings {rate:.1%}; {elapsed:.1f}s)")


def test_06_double_helix_ssl_beats_supervised():
    _warm_up()
    # each method selects its own length scale: leave-one-out for the
    # supervised rule per partition, transductive k-fold once per level
    grid = np.geomspace(0.05, 5.0, 8)
    ds = gen_double_helix(150, radius=1.0, pitch=1.5, turns=2.0, noise_std=0.04, seed=777)
    levels = [2, 4, 8, 16]  # labeled points per class -> 4..32 total
    mean_sup, mean_ssl = [], []
    for n_lab in levels:
        labeled0, heldout0 = partition(ds, n_lab, seed=100)
        k = min(10, labeled0.n)
        ssl_scale, _ = kfold_cv_ssl(labeled0, heldout0.covariates, k, "se", grid, seed=100)
        sup_errs, ssl_errs = [], []
        for s in range(10):
            labeled, heldout = partition(ds, n_lab, seed=100 + s)
            sup_scale, _ = loo_cv(labeled, "se", grid)
            m_sup = shared_models(2, Kernel("se", 1.0, sup_scale))
            m_ssl = shared_models(2, Kernel("se", 1.0, ssl_scale))
            pred = predict_labels(predict_proba_batch(m_sup, labeled, heldout.covariates))
            sup_errs.append(float(np.mean(pred != heldout.labels)))
            solved = ssl_solve(m_ssl, labeled, heldout.covariates)
            ssl_errs.append(float(np.mean(solved != heldout.labels)))
        mean_sup.append(float(np.mean(sup_errs)))
        mean_ssl.append(float(np.mean(ssl_errs)))
    for n_lab, s_err, g_err in zip(levels, mean_sup, mean_ssl):
        assert g_err <= s_err, f"{n_lab}/class: ssl {g_err:.3f} > supervised {s_err:.3f}"
    assert mean_ssl[0] < mean_sup[0], "no strict improvement at the smallest level"
    table = ", ".join(
        f"{2 * n}pts sup={s:.3f} ssl={g:.3f}" for n, s, g in zip(levels, mean_sup, mean_ssl)
    )
    _passed(6, f"double helix ({table})")


def test_07_prediction_time_linear():
    rows, exponent = bench_prediction()
    assert 0.8 <= exponent <= 1.3, f"growth exponent {exponent:.3f} outside [0.8, 1.3]"
    _passed(7, f"prediction-time growth exponent {exponent:.3f} in [0.8, 1.3]")


def test_08_expansion_monotone_and_locally_optimal():
    _warm_up()
    rng = np.random.default_rng(1008)
    for _ in range(200):
        *_, energy = random_ssl_instance(rng, q=3, max_unlabeled=10)
        init = rng.integers(1, 4, energy.num_sites)
        history = []
        final = alpha_expansion(energy, init, history=history)
        assert all(b < a - 1e-12 for a, b in zip(history, history[1:]))
        e_fin = energy_of(energy, final)
        for alpha in (1, 2, 3):
            _, e_move = expansion_move(energy, final, alpha)
            assert e_move >= e_fin - 1e-12
    for _ in range(100):
        *_, energy = random_ssl_instance(rng, q=2, max_unlabeled=12)
        init = rng.integers(1, 3, energy.num_sites)
        expanded = alpha_expansion(energy, init)
        exact = binary_map(energy)
        assert np.array_equal(expanded, exact)
        assert energy_of(energy, expanded) == energy_of(energy, exact)
    _passed(8, "expansion monotonicity, local optimality, binary exactness")


def test_09_flow_duality_and_conservation():
    rng = np.random.default_rng(1009)
    for _ in range(200):
        *_, energy = random_ssl_instance(rng, q=2, max_unlabeled=15)
        network, _ = build_flow_network(energy)
        flow, side = max_flow(network)
        assert cut_capacity(network, side) == flow  # exact integers
        balance = node_balances(network)
        assert balance[network.source] == flow
        assert balance[network.sink] == -flow
        inner = np.delete(balance, [network.source, network.sink])
        assert np.all(inner == 0)
    _passed(9, "max-flow/min-cut duality and conservation (200 networks, exact)")


def test_10_no_interference_violation():
    # explicit 3-point instance: marginalizing the third (unlabeled) point's
    # label shifts the first two points' label distribution
    models = shared_models(2, Kernel("se", 1.0, 1.0))
    pair = np.array([[0.0], [2.0]])
    triple = np.array([[0.0], [2.0], [0.3]])
    e2 = build_energy(models, None, pair, cutoff=None)
    e3 = build_energy(models, None, triple, cutoff=None)
    z2 = brute_force_log_partition(e2)
    z3 = brute_force_log_partition(e3)
    labelings = list(product((1, 2), repeat=2))
    p2 = np.array([math.exp(-energy_of(e2, list(y)) - z2) for y in labelings])
    p3 = np.array(
        [
            sum(math.exp(-energy_of(e3, [*y, c]) - z3) for c in (1, 2))
            for y in labelings
        ]
    )
    assert p2.sum() == pytest.approx(1.0, abs=1e-12)
    assert p3.sum() == pytest.approx(1.0, abs=1e-12)
    tv = 0.5 * float(np.abs(p2 - p3).sum())
    assert tv > 1e-6, f"total variation {tv:.3e}"
    _passed(10, f"no-interference violation exhibit (TV = {tv:.4f} > 1e-6)")
