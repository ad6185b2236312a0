import math

import numpy as np
import pytest

from coxcut import (
    ClassModel,
    Dataset,
    Kernel,
    activations,
    activations_batch,
    kde_predict,
    kde_predict_batch,
    predict_label,
    predict_labels,
    predict_proba,
    predict_proba_batch,
    shared_models,
)


def _train(points, labels, q=2):
    return Dataset(np.asarray(points, dtype=float), np.asarray(labels), q)


class TestActivations:
    def test_no_training_points_gives_uniform(self):
        train = Dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), 3)
        models = shared_models(3, Kernel("se", 1.0, 1.0))
        f = activations(models, train, np.array([0.0, 0.0]))
        assert np.allclose(f, 0.5)
        assert np.allclose(predict_proba(models, train, np.array([0.0, 0.0])), 1 / 3)

    def test_equidistant_symmetric_uniform(self):
        train = _train([[-1.0, 0.0], [1.0, 0.0]], [1, 2])
        models = shared_models(2, Kernel("se", 1.0, 1.0))
        p = predict_proba(models, train, np.array([0.0, 0.0]))
        assert p[0] == pytest.approx(0.5, abs=1e-12)

    def test_hand_evaluated_two_class(self):
        # class-1 point at the test location, class-2 point at distance 1
        train = _train([[0.0, 0.0], [1.0, 0.0]], [1, 2])
        models = shared_models(2, Kernel("se", 1.0, 1.0))
        f = activations(models, train, np.array([0.0, 0.0]))
        assert f[0] == pytest.approx(1.5, abs=1e-12)
        assert f[1] == pytest.approx(0.5 + math.exp(-0.5), abs=1e-12)

    def test_dimension_mismatch(self):
        train = _train([[0.0, 0.0]], [1])
        models = shared_models(2, Kernel("se"))
        with pytest.raises(ValueError, match="shape"):
            activations(models, train, np.array([0.0, 0.0, 0.0]))


class TestPredictProba:
    def test_distribution_invariants_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = int(rng.integers(2, 5))
            n = int(rng.integers(0, 20))
            d = int(rng.integers(1, 4))
            train = Dataset(rng.normal(0, 1, (n, d)), rng.integers(1, q + 1, n), q)
            models = shared_models(q, Kernel("exp", 1.0, 1.0), rng.normal(0, 1, q))
            p = predict_proba_batch(models, train, rng.normal(0, 1, (5, d)))
            assert np.all(p >= 0)
            assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_temperature_scaling_keeps_argmax_sharpens(self):
        rng = np.random.default_rng(1)
        train = Dataset(rng.normal(0, 1, (12, 2)), rng.integers(1, 3, 12), 2)
        x = rng.normal(0, 1, 2)
        gamma = 5.0
        base = shared_models(2, Kernel("se", 1.0, 1.0), [0.1, -0.2])
        hot = shared_models(2, Kernel("se", gamma, 1.0), [0.1 * gamma, -0.2 * gamma])
        p0 = predict_proba(base, train, x)
        p1 = predict_proba(hot, train, x)
        assert np.argmax(p0) == np.argmax(p1)
        assert p1.max() > p0.max()

    def test_mean_shift_multiplies_odds(self):
        rng = np.random.default_rng(2)
        train = Dataset(rng.normal(0, 1, (8, 2)), rng.integers(1, 3, 8), 2)
        x = rng.normal(0, 1, 2)
        c = 0.9
        k = Kernel("se", 1.0, 1.0)
        p0 = predict_proba(shared_models(2, k, [0.0, 0.0]), train, x)
        p1 = predict_proba(shared_models(2, k, [c, 0.0]), train, x)
        odds0 = p0[0] / p0[1]
        odds1 = p1[0] / p1[1]
        assert odds1 / odds0 == pytest.approx(math.exp(c), rel=1e-10)

    def test_linear_cost_structure(self):
        # cost per test point is one kernel row per class; just check batching
        # and single-point paths agree
        rng = np.random.default_rng(3)
        train = Dataset(rng.normal(0, 1, (30, 2)), rng.integers(1, 4, 30), 3)
        models = shared_models(3, Kernel("se", 1.0, 0.7))
        xt = rng.normal(0, 1, (9, 2))
        batch = predict_proba_batch(models, train, xt)
        single = np.array([predict_proba(models, train, x) for x in xt])
        assert np.allclose(batch, single, rtol=0, atol=1e-15)


class TestKde:
    def test_single_occupied_class(self):
        train = _train([[0.0, 0.0], [1.0, 1.0]], [1, 1])
        p = kde_predict(Kernel("se"), train, np.array([0.2, 0.2]))
        assert p[0] == 1.0 and p[1] == 0.0

    def test_symmetric_two_class(self):
        train = _train([[-1.0, 0.0], [1.0, 0.0]], [1, 2])
        p = kde_predict(Kernel("se"), train, np.array([0.0, 0.0]))
        assert p[0] == pytest.approx(0.5, abs=1e-12)

    def test_hand_formula_unbalanced(self):
        k = Kernel("se", 1.0, 1.0)
        pts = np.array([[0.0], [2.0], [1.0]])
        train = _train(pts, [1, 1, 2])
        x = np.array([0.5])
        num1 = k.eval([0.5]) + k.eval([1.5])
        num2 = k.eval([0.5])
        p = kde_predict(k, train, x)
        assert p[0] == pytest.approx(num1 / (num1 + num2), rel=1e-12)

    def test_zero_density_rejected(self):
        # far enough for the kernel to underflow to exactly zero
        train = _train([[0.0]], [1])
        k = Kernel("se", 1.0, 0.01)
        with pytest.raises(ValueError, match="degenerate"):
            kde_predict(k, train, np.array([1e4]))

    def test_needs_a_labeled_point(self):
        train = Dataset(np.zeros((1, 1)), np.array([0]), 2)
        with pytest.raises(ValueError, match="labeled"):
            kde_predict(Kernel("se"), train, np.array([0.0]))


class TestPredictLabel:
    def test_cases(self):
        assert predict_label([0.2, 0.8]) == 2
        assert predict_label([0.5, 0.5]) == 1
        assert predict_label([1 / 3, 1 / 3, 1 / 3]) == 1

    def test_batch(self):
        assert predict_labels(np.array([[0.9, 0.1], [0.4, 0.6]])).tolist() == [1, 2]


class TestArgmaxEquivalence:
    def test_softmax_and_density_rules_agree(self):
        # zero means, one shared kernel; test points near the data so kernel
        # sums stay well above float absorption next to the C(0)/2 constant
        rng = np.random.default_rng(10)
        for _ in range(200):
            q = int(rng.integers(2, 5))
            n = int(rng.integers(1, 25))
            d = int(rng.integers(1, 4))
            k = Kernel("se" if rng.random() < 0.5 else "exp", 1.0, float(rng.uniform(0.3, 3)))
            train = Dataset(rng.uniform(-3, 3, (n, d)), rng.integers(1, q + 1, n), q)
            models = shared_models(q, k)
            xt = train.covariates[rng.integers(0, n, 8)] + rng.normal(0, k.length_scale, (8, d))
            soft = predict_labels(predict_proba_batch(models, train, xt))
            dens = predict_labels(kde_predict_batch(k, train, xt))
            assert np.array_equal(soft, dens)

    def test_temperature_leaves_labels_unchanged(self):
        rng = np.random.default_rng(11)
        train = Dataset(rng.normal(0, 1, (20, 2)), rng.integers(1, 4, 20), 3)
        xt = rng.normal(0, 1, (15, 2))
        for gamma in (0.1, 3.0, 40.0):
            base = shared_models(3, Kernel("se", 1.0, 1.0), [0.2, -0.1, 0.0])
            hot = shared_models(
                3, Kernel("se", gamma, 1.0), [0.2 * gamma, -0.1 * gamma, 0.0]
            )
            l0 = predict_labels(predict_proba_batch(base, train, xt))
            l1 = predict_labels(predict_proba_batch(hot, train, xt))
            assert np.array_equal(l0, l1)


def test_activations_batch_empty_class_contributes_constant_only():
    train = _train([[0.0, 0.0]], [1], q=3)
    models = shared_models(3, Kernel("se", 1.0, 1.0), [0.0, 0.3, 0.0])
    f = activations_batch(models, train, np.array([[5.0, 5.0]]))[0]
    assert f[1] == pytest.approx(0.3 + 0.5, abs=1e-15)
    assert f[2] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf])
def test_class_model_rejects_non_finite_mean(mean):
    with pytest.raises(ValueError, match=r"^class mean must be a finite real, got"):
        ClassModel(mean, Kernel("se"))
    with pytest.raises(ValueError, match="finite"):
        shared_models(2, Kernel("se"), [0.0, mean])
