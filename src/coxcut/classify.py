"""Supervised prediction.

The predictive class distribution at a test point x* is softmax(F) with

    F_i = mean_i + C_i(0) / 2 + sum over training points x of class i of C_i(x* - x)

which costs O(N * Q) per test point, summed by one ``Kernel.row_sums`` call
per class; the label field's unaries (``mrf.build_energy``) are -F. A
kernel-sum density classifier is provided for comparison; with a single
shared kernel and zero means the two rules pick the same class for every
test point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .kernels import Kernel


@dataclass(frozen=True)
class ClassModel:
    """One class population: a constant mean and a stationary covariance."""

    mean: float
    kernel: Kernel

    def __post_init__(self):
        # a NaN or infinite mean would turn every energy and probability into NaN
        if not np.isfinite(self.mean):
            raise ValueError(f"class mean must be a finite real, got {self.mean!r}")


def shared_models(num_classes: int, kernel: Kernel, means=None) -> list[ClassModel]:
    """Q class models sharing one kernel; means default to zero."""
    if means is None:
        means = [0.0] * num_classes
    if len(means) != num_classes:
        raise ValueError(f"expected {num_classes} means, got {len(means)}")
    return [ClassModel(float(m), kernel) for m in means]


def _as_test_matrix(x, dim: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"test points have shape {x.shape}, expected (*, {dim})")
    if not np.all(np.isfinite(x)):
        raise ValueError("test points contain non-finite values")
    return x, single


def activations_batch(models, train: Dataset, x_test) -> np.ndarray:
    """Activation matrix F, shape (T, Q)."""
    if len(models) != train.num_classes:
        raise ValueError(f"need {train.num_classes} class models, got {len(models)}")
    x, _ = _as_test_matrix(x_test, train.dim)
    xl, yl = train.labeled()
    f = np.empty((x.shape[0], len(models)))
    for a, m in enumerate(models):
        f[:, a] = m.mean + 0.5 * m.kernel.signal_variance
        f[:, a] += m.kernel.row_sums(x, xl[yl == a + 1])  # 0.0 for a class without points
    return f


def activations(models, train: Dataset, test_point) -> np.ndarray:
    """Activation vector F for one test point, shape (Q,)."""
    x, single = _as_test_matrix(test_point, train.dim)
    if not single:
        raise ValueError("activations takes a single test point; use activations_batch")
    return activations_batch(models, train, x)[0]


def _softmax(f: np.ndarray) -> np.ndarray:
    z = f - f.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def predict_proba_batch(models, train: Dataset, x_test) -> np.ndarray:
    """Predictive class probabilities, shape (T, Q)."""
    return _softmax(activations_batch(models, train, x_test))


def predict_proba(models, train: Dataset, test_point) -> np.ndarray:
    """Predictive class probabilities for one test point, shape (Q,)."""
    return _softmax(activations(models, train, test_point))


def kde_predict_batch(kernel: Kernel, train: Dataset, x_test) -> np.ndarray:
    """Kernel-sum density classifier probabilities, shape (T, Q).

    Class i gets weight sum over its training points of G(x* - x), i.e. the
    per-class density estimate times the class count; empty classes get 0.
    """
    x, _ = _as_test_matrix(x_test, train.dim)
    xl, yl = train.labeled()
    if len(xl) == 0:
        raise ValueError("kernel density prediction needs at least one labeled point")
    num = np.zeros((x.shape[0], train.num_classes))
    for a in range(train.num_classes):
        num[:, a] = kernel.row_sums(x, xl[yl == a + 1])
    den = num.sum(axis=1)
    if np.any(den <= 0.0):
        raise ValueError(
            "degenerate kernel density: zero total density at a test point "
            "(test point infinitely far from all training points)"
        )
    return num / den[:, None]


def kde_predict(kernel: Kernel, train: Dataset, test_point) -> np.ndarray:
    x, single = _as_test_matrix(test_point, train.dim)
    if not single:
        raise ValueError("kde_predict takes a single test point; use kde_predict_batch")
    return kde_predict_batch(kernel, train, x)[0]


def predict_label(dist) -> int:
    """Class index (1-based) of the most probable class; ties pick the lowest index."""
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 1 or dist.size == 0:
        raise ValueError(f"expected a probability vector, got shape {dist.shape}")
    return int(np.argmax(dist)) + 1


def predict_labels(dists: np.ndarray) -> np.ndarray:
    """Row-wise argmax labels (1-based) for a (T, Q) probability or activation matrix."""
    return np.argmax(dists, axis=1).astype(np.int64) + 1
