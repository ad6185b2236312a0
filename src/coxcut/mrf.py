"""Conditional Potts random field over the unlabeled sites.

Conditioning the model on covariates yields label energies of the form

    E(y*) = sum_k unary(k, y*_k) + sum_{j<k} pairwise(j,k)(y*_j, y*_k) + constant

where unary(k, a) = -F_a(x*_k), minus the supervised activation of
``classify`` (mean_a + C_a(0)/2 + attraction of site k to the labeled points
of class a), and pairwise(j,k)(a,b) = -delta(a,b) * C_a(x*_j - x*_k).
``EnergyGraph`` holds each pair as one non-negative weight per distinct
kernel, which makes every pairwise table satisfy

    E(a,a) + E(b,c) <= E(a,c) + E(b,a)

for all label triples (Kolmogorov & Zabih 2004), which licenses the min-cut
machinery in ``mincut``/``expansion``. Brute-force enumeration of the
minimum and of the log partition function is provided as a test oracle for
small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import activations_batch
from .data import Dataset
from .simulate import log_product_density

BRUTE_FORCE_GUARD = 2_000_000
REPRESENTABILITY_TOL = 1e-9
PAIR_CUTOFF = 1e-12  # pairs whose weights all lie below this are dropped
# Largest unlabeled set. Each distinct kernel's U x U float64 gram (0.54 GB at
# this size) is evaluated in place and the kept pairs are selected from it one
# row strip at a time, so k kernels hold 8 k U^2 bytes of U x U arrays. The
# arrays proportional to the kept pairs come on top and are not counted here.
MAX_SSL_SITES = 8192

_CHUNK = 1 << 16  # labelings per brute-force scan chunk
_STRIP_ELEMENTS = 1 << 16  # gram entries per row strip that build_energy selects from
# Elements per (pairs, triples) margin temporary in check_pairwise_representable.
_MARGIN_ELEMENTS = 1 << 20


@dataclass
class EnergyGraph:
    """Unary energies and Potts pair weights over U sites with Q labels.

    Pairs are stored per unordered site pair (pair_i[p] < pair_j[p]).
    ``weights`` has one column per distinct kernel and ``column[a]`` is the
    column of label a+1: the pair's energy is -weights[p, column[a]] when
    both sites take label a+1, and 0 when their labels differ. Weights must
    be finite and non-negative, which makes every pair graph-representable.
    """

    unary: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    weights: np.ndarray
    column: np.ndarray
    constant: float = 0.0

    def __post_init__(self):
        self.unary = np.ascontiguousarray(self.unary, dtype=np.float64)
        self.pair_i = np.ascontiguousarray(self.pair_i, dtype=np.int64)
        self.pair_j = np.ascontiguousarray(self.pair_j, dtype=np.int64)
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.column = np.ascontiguousarray(self.column, dtype=np.int64)
        self.constant = float(self.constant)
        u, q = self.unary.shape
        p = len(self.pair_i)
        w = self.weights
        if self.pair_j.shape != (p,) or w.ndim != 2 or len(w) != p or self.column.shape != (q,):
            raise ValueError("pairwise arrays are inconsistent with the unary table")
        if p and (self.pair_i.min() < 0 or self.pair_j.max() >= u):
            raise ValueError("pair site indices out of range")
        if p and np.any(self.pair_i >= self.pair_j):
            raise ValueError("pairs must be stored with pair_i < pair_j")
        if q and (self.column.min() < 0 or self.column.max() >= w.shape[1]):
            raise ValueError(f"weight columns {self.column.tolist()} of the labels out of range")
        if w.size and not (w.min() >= 0 and w.max() < np.inf):  # False for NaN
            k = int(np.flatnonzero(~(np.isfinite(w) & (w >= 0)).all(axis=1))[0])
            raise ValueError(
                f"pair weights at sites ({int(self.pair_i[k])}, {int(self.pair_j[k])}) "
                f"must be finite and non-negative: {w[k].tolist()}"
            )

    @property
    def num_sites(self) -> int:
        return self.unary.shape[0]

    @property
    def num_labels(self) -> int:
        return self.unary.shape[1]

    @property
    def num_pairs(self) -> int:
        return len(self.pair_i)


def build_energy(models, labeled: Dataset | None, unlabeled, cutoff: float = PAIR_CUTOFF) -> EnergyGraph:
    """Energy of the unlabeled sites' labels given class models and labeled data.

    The unaries are -activations_batch(models, labeled, unlabeled), the
    supervised activations. The constant collects all terms that do not
    depend on the unlabeled labels: minus the joint log density of the
    labeled points alone, so that for a full labeling y* the identity
    joint_unnormalized_log_prob = -energy_of holds up to rounding.
    ``labeled`` may be None or contain no labeled rows, in which case the
    unaries carry only the mean and self-covariance terms.

    A site pair j < k is kept when some class kernel has C(x*_j - x*_k) >=
    ``cutoff``; every pair is kept when ``cutoff`` is None. Kept pairs come
    in row-major order (by j, then k), the order of ``np.triu_indices``.
    Each distinct kernel's gram on the unlabeled sites is evaluated once and
    gives one weight column, C(x*_j - x*_k) for each kept pair; classes that
    share a kernel share its column. The pairs are selected from the grams
    one row strip at a time, so the grams are the only U x U arrays, and the
    pairs' site indices are built once the grams are freed. More than
    MAX_SSL_SITES sites are refused before any U x U array is allocated.
    """
    x_u = np.asarray(unlabeled, dtype=np.float64)
    if x_u.ndim == 1:
        x_u = x_u[:, None]
    u = x_u.shape[0]
    if u == 0:
        raise ValueError("no unlabeled sites")
    kernels = list(dict.fromkeys(m.kernel for m in models))  # distinct, in class order
    if u > MAX_SSL_SITES:
        raise ValueError(
            f"{u} unlabeled sites need {len(kernels) * 8 * u * u / 1e9:.1f} GB of "
            f"{u}x{u} float64 kernel matrices (one per distinct kernel); the limit is "
            f"{MAX_SSL_SITES} sites"
        )
    if not np.all(np.isfinite(x_u)):
        raise ValueError("unlabeled covariates contain non-finite values")
    q = len(models)
    if q < 2:
        raise ValueError("need at least two class models")
    if labeled is None:
        labeled = Dataset(np.empty((0, x_u.shape[1])), np.empty(0, dtype=np.int64), q)
    elif labeled.num_classes != q:
        raise ValueError(f"labeled data has {labeled.num_classes} classes, got {q} models")
    elif labeled.dim != x_u.shape[1]:
        raise ValueError(f"dimension mismatch: labeled D={labeled.dim}, unlabeled D={x_u.shape[1]}")

    unary = -activations_batch(models, labeled, x_u)
    # 0.0 - j rather than -j keeps a labeled block of log density exactly 0 at +0.0
    constant = 0.0 - joint_unnormalized_log_prob(models, Dataset(*labeled.labeled(), q))
    grams = [k.gram(x_u) for k in kernels]
    flats, parts = _strip_pairs(grams, cutoff)
    del grams  # only arrays proportional to the kept pairs remain
    p = sum(map(len, flats))
    weights = np.empty((p, len(kernels)))
    for k, part in enumerate(parts):
        _join(part, weights[:, k])
    pi, pj = np.divmod(_join(flats, np.empty(p, dtype=np.int64)), u)
    column = [kernels.index(m.kernel) for m in models]
    return EnergyGraph(unary, pi, pj, weights, column, constant)


def _strip_pairs(grams, cutoff) -> tuple[list, list]:
    # The kept pairs j < k of the grams' upper triangle, read in row strips
    # of about _STRIP_ELEMENTS entries so that no U x U temporary is made.
    # Returns one list of flat indices j * U + k per strip, in row-major
    # order, and for each gram one list of the strips' weights.
    u = len(grams[0])
    rows = min(u, max(1, _STRIP_ELEMENTS // u))
    above = np.triu(np.ones((rows, rows), dtype=bool), 1)
    flats, parts = [], [[] for _ in grams]
    for start in range(0, u - 1, rows):
        stop = min(start + rows, u - 1)  # the last site pairs with no later one
        blocks = [g[start:stop] for g in grams]
        keep = np.zeros(blocks[0].shape, dtype=bool)
        right = keep[:, start:]  # no pair of the strip lies left of its first row's diagonal
        if cutoff is None:
            right.fill(True)
        else:
            np.greater_equal(blocks[0][:, start:], cutoff, out=right)
            for b in blocks[1:]:
                right |= b[:, start:] >= cutoff
        r = stop - start
        right[:, :r] &= above[:r, :r]  # row start + i pairs with column start + c iff c > i
        flat = np.flatnonzero(keep)
        for part, b in zip(parts, blocks):
            part.append(b.ravel().take(flat))
        flat += start * u
        flats.append(flat)
    return flats, parts


def _join(parts: list, out: np.ndarray) -> np.ndarray:
    # Concatenate ``parts`` into ``out`` and empty the list, freeing them.
    if parts:
        np.concatenate(parts, out=out)
        parts.clear()
    return out


def joint_unnormalized_log_prob(models, dataset: Dataset) -> float:
    """Log numerator of the label field for a fully labeled dataset.

    Equals the sum over classes of the log product density of that class's
    points (empty classes contribute nothing).
    """
    if len(models) != dataset.num_classes:
        raise ValueError(f"need {dataset.num_classes} class models, got {len(models)}")
    if not np.all(dataset.labeled_mask):
        raise ValueError("joint log probability requires every point to be labeled")
    total = 0.0
    for a, m in enumerate(models):
        pts = dataset.class_points(a + 1)
        if len(pts):
            total += log_product_density(m, pts)
    return total


def _check_labeling(energy: EnergyGraph, labeling) -> np.ndarray:
    y = np.asarray(labeling, dtype=np.int64)
    if y.shape != (energy.num_sites,):
        raise ValueError(f"labeling has shape {y.shape}, expected ({energy.num_sites},)")
    if y.size and (y.min() < 1 or y.max() > energy.num_labels):
        raise ValueError(f"labels must lie in {{1..{energy.num_labels}}}")
    return y


def energy_of(energy: EnergyGraph, labeling) -> float:
    """Total energy of a labeling: unary + pairwise (over j<k) + constant."""
    y = _check_labeling(energy, labeling) - 1
    e = energy.unary[np.arange(energy.num_sites), y].sum()
    if energy.num_pairs:
        yi, yj = y[energy.pair_i], y[energy.pair_j]
        w = energy.weights[np.arange(energy.num_pairs), energy.column[yi]]
        # one term per pair, 0.0 where the labels differ, so numpy sums (and
        # rounds) the same array as over explicit tables
        e += np.where(yi == yj, -w, 0.0).sum()
    return float(e + energy.constant)


def pair_tables(energy: EnergyGraph) -> np.ndarray:
    """The explicit (P, Q, Q) pair tables: -weights on the diagonal, 0 off it."""
    q = energy.num_labels
    tables = np.zeros((energy.num_pairs, q, q))
    tables[:, np.arange(q), np.arange(q)] = -energy.weights[:, energy.column]
    return tables


def check_pairwise_representable(tables, tol: float = REPRESENTABILITY_TOL):
    """Verify E(a,a) + E(b,c) <= E(a,c) + E(b,a) + tol for every table and triple.

    ``tables`` has shape (P, Q, Q); tables[p, a, b] is the energy of pair p's
    first site taking label a+1 and its second site label b+1. Returns
    (True, None) or (False, (p, a, b, c)) with the first violating pair
    index and triple (labels 1-based). Only triples with a != b and a != c
    are evaluated: for the others both sides are the same two entries, so
    the margin is 0 exactly, while evaluating it could round above ``tol``.
    Pairs are checked in chunks whose margin arrays hold about
    _MARGIN_ELEMENTS entries each.
    """
    tables = np.asarray(tables, dtype=np.float64)
    num_pairs, q = tables.shape[:2]
    a, b, c = np.indices((q, q, q)).reshape(3, -1)
    keep = (a != b) & (a != c)
    a, b, c = a[keep], b[keep], c[keep]
    if not len(a):
        return True, None
    flat = tables.reshape(num_pairs, q * q)
    step = max(1, _MARGIN_ELEMENTS // len(a))
    for start in range(0, num_pairs, step):
        chunk = flat[start : start + step]
        # margin[p, t] = E(a,a) + E(b,c) - E(a,c) - E(b,a) for triple t
        margin = (
            chunk.take(a * q + a, axis=1)
            + chunk.take(b * q + c, axis=1)
            - chunk.take(a * q + c, axis=1)
            - chunk.take(b * q + a, axis=1)
        )
        bad = np.argwhere(margin > tol)
        if len(bad):
            p, t = (int(v) for v in bad[0])
            return False, (p + start, int(a[t]) + 1, int(b[t]) + 1, int(c[t]) + 1)
    return True, None


def _guard_instance_size(energy: EnergyGraph) -> int:
    total = energy.num_labels**energy.num_sites
    if total > BRUTE_FORCE_GUARD:
        raise ValueError(
            f"instance has {total} labelings, above the {BRUTE_FORCE_GUARD} brute-force guard"
        )
    return total


# ---------------------------------------------------------------------------
# Brute-force oracles. The chunk scans below visit labelings in
# lexicographic order (site 0 most significant); ties keep the first hit.


def _chunk_energies(energy: EnergyGraph, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    u, q = energy.unary.shape
    powers = q ** np.arange(u - 1, -1, -1, dtype=np.int64)
    idx = np.arange(start, stop, dtype=np.int64)
    digits = (idx[:, None] // powers[None, :]) % q
    # accumulate term by term in the same order as the plain-loop reference
    # scan (tests/_reference_scan.py) so both give bit-identical energies
    e = np.zeros(stop - start)
    for k in range(u):
        e += energy.unary[k, digits[:, k]]
    diag = -energy.weights[:, energy.column]  # (P, Q): each pair's E(a, a)
    for r in range(energy.num_pairs):
        di, dj = digits[:, energy.pair_i[r]], digits[:, energy.pair_j[r]]
        e += np.where(di == dj, diag[r, di], 0.0)
    return digits, e


def _scan_min_numpy(energy: EnergyGraph, total: int) -> tuple[np.ndarray, float]:
    best_e = np.inf
    best = None
    for start in range(0, total, _CHUNK):
        digits, e = _chunk_energies(energy, start, min(start + _CHUNK, total))
        k = int(np.argmin(e))
        if e[k] < best_e:
            best_e = float(e[k])
            best = digits[k].copy()
    return best, best_e


def _scan_logz_numpy(energy: EnergyGraph, total: int) -> float:
    acc = -np.inf
    for start in range(0, total, _CHUNK):
        _, e = _chunk_energies(energy, start, min(start + _CHUNK, total))
        neg = -e
        m = float(neg.max())
        acc = np.logaddexp(acc, m + np.log(np.exp(neg - m).sum()))
    return float(acc)


def brute_force_map(energy: EnergyGraph) -> tuple[np.ndarray, float]:
    """Exhaustive global minimum; ties resolved to the lexicographically first labeling.

    The reported value is the minimum re-evaluated through ``energy_of`` so
    it is bit-identical to re-evaluations of the same labeling elsewhere.
    """
    total = _guard_instance_size(energy)
    digits, _ = _scan_min_numpy(energy, total)
    labeling = digits + 1
    return labeling, energy_of(energy, labeling)


def brute_force_log_partition(energy: EnergyGraph) -> float:
    """log sum over all labelings of exp(-E), via streaming log-sum-exp."""
    total = _guard_instance_size(energy)
    return _scan_logz_numpy(energy, total) - energy.constant
