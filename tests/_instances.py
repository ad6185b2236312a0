"""Shared builders for randomized model/data instances used across test modules."""

import numpy as np

from coxcut import ClassModel, Dataset, Kernel, build_energy

# A pair cutoff, relative to C(0), below every positive weight that the tests
# using the ``every_pair`` fixture build.
EVERY_PAIR = 1e-300


def random_kernel(rng, families=("se", "exp")):
    fam = families[rng.integers(0, len(families))]
    return Kernel(fam, float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.3, 2.0)))


def random_models(rng, q, shared_kernel=False, zero_means=False):
    if shared_kernel:
        k = random_kernel(rng)
        kernels = [k] * q
    else:
        kernels = [random_kernel(rng) for _ in range(q)]
    means = np.zeros(q) if zero_means else rng.normal(0.0, 0.5, q)
    return [ClassModel(float(m), k) for m, k in zip(means, kernels)]


def random_labeled(rng, q, n, d):
    x = rng.normal(0.0, 1.5, (n, d))
    y = rng.integers(1, q + 1, n)
    return Dataset(x, y, q)


def random_ssl_instance(rng, q=2, max_labeled=6, max_unlabeled=15, max_dim=3, **model_kw):
    """Random (models, labeled dataset, unlabeled covariates, energy)."""
    models = random_models(rng, q, **model_kw)
    n_l = int(rng.integers(1, max_labeled + 1))
    u = int(rng.integers(1, max_unlabeled + 1))
    d = int(rng.integers(1, max_dim + 1))
    labeled = random_labeled(rng, q, n_l, d)
    unlabeled = rng.normal(0.0, 1.5, (u, d))
    return models, labeled, unlabeled, build_energy(models, labeled, unlabeled)
