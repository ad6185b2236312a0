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

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .classify import activations_batch
from .data import Dataset
from .kernels import upper_strip_sq_dists
from .simulate import log_product_density

BRUTE_FORCE_GUARD = 2_000_000
REPRESENTABILITY_TOL = 1e-9
# A pair is kept when some class kernel reaches PAIR_CUTOFF * C(0) there, so
# the kept pairs do not depend on the unit of the signal variance.
PAIR_CUTOFF = 1e-12
# Kept-pair budget: a solve's peak bytes per kept pair, the energy included,
# by solve kind; each is the stage bound of a tracemalloc test. Binary: flow
# network, max flow and polish (tests/test_mincut.py, a U=1000 helix: 100.6
# measured). Expansion, Q > 2: each move's sub-energy and network beside the
# full energy (tests/test_expansion.py, Q=3 circles with a kernel per class;
# 150 to 171 measured on Q=3 and Q=4 with one kernel). Each weight column
# after the first adds 8. Candidates whose count, so priced, passes
# MAX_SOLVE_BYTES are refused while they are counted, before any kernel is
# evaluated; the walk itself holds at most 24 bytes per candidate.
SOLVE_BYTES_PER_PAIR = 106
EXPANSION_BYTES_PER_PAIR = 184
MAX_SOLVE_BYTES = 2**31  # 2 GiB: about 20 million kept pairs of a binary solve

_CHUNK = 1 << 16  # labelings per brute-force scan chunk
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
        if not np.isfinite(self.unary).all():
            k = int(np.flatnonzero(~np.isfinite(self.unary).all(axis=1))[0])
            raise ValueError(f"non-finite unary energy at site {k}: {self.unary[k].tolist()}")
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


def build_energy(models, labeled: Dataset | None, unlabeled) -> EnergyGraph:
    """Energy of the unlabeled sites' labels given class models and labeled data.

    The unaries are -activations_batch(models, labeled, unlabeled), the
    supervised activations. The constant collects all terms that do not
    depend on the unlabeled labels: minus the joint log density of the
    labeled points alone (``log_product_density`` per class), so that for a
    full labeling y* the identity joint_unnormalized_log_prob = -energy_of
    holds up to rounding. ``labeled`` may be None or contain no labeled
    rows, in which case the unaries carry only the mean and self-covariance
    terms.

    A site pair j < k is kept when some class kernel has C(x*_j - x*_k) >=
    PAIR_CUTOFF times its own C(0); kept pairs come in row-major order, as
    from ``np.triu_indices``. They are picked from the pairs within the
    largest ``Kernel.reach_sq_dist(PAIR_CUTOFF)`` (whose margin covers all
    rounding for a normal C(0)) along ``kernels.upper_strip_sq_dists``, so
    no U x U array is made; each distinct kernel is then evaluated once on
    them, giving one weight column that its classes share. A solve whose
    candidates cost more than MAX_SOLVE_BYTES at its bytes per pair (see
    SOLVE_BYTES_PER_PAIR) is refused before any kernel is evaluated.
    """
    x_u = np.asarray(unlabeled, dtype=np.float64)
    if x_u.ndim == 1:
        x_u = x_u[:, None]
    u = x_u.shape[0]
    if u == 0:
        raise ValueError("no unlabeled sites")
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

    kernels = list(dict.fromkeys(m.kernel for m in models))  # distinct, in class order
    per_pair = SOLVE_BYTES_PER_PAIR if q == 2 else EXPANSION_BYTES_PER_PAIR
    reach = max(k.reach_sq_dist(PAIR_CUTOFF) for k in kernels)
    flat, d2 = _candidate_pairs(x_u, reach, per_pair + 8 * (len(kernels) - 1))
    unary = -activations_batch(models, labeled, x_u)
    # 0.0 - j rather than -j keeps a labeled block of log density exactly 0 at +0.0
    constant = 0.0 - joint_unnormalized_log_prob(models, Dataset(*labeled.labeled(), q))
    # the last kernel overwrites the distances once the others have read them
    cols = [k._from_sqdist(d2) for k in kernels[:-1]] + [kernels[-1]._from_sqdist(d2, out=d2)]
    weights = np.column_stack(cols) if len(cols) > 1 else d2[:, None]
    del cols, d2
    keep = (weights >= [PAIR_CUTOFF * k.signal_variance for k in kernels]).any(axis=1)
    flat = flat[keep]
    weights = weights[keep]
    del keep
    pi = np.empty_like(flat)
    pj = np.divmod(flat, u, out=(pi, flat))[1]  # the remainders overwrite the flat indices
    del flat
    column = [kernels.index(m.kernel) for m in models]
    return EnergyGraph(unary, pi, pj, weights, column, constant)


def _candidate_pairs(x, limit, per_pair) -> tuple[np.ndarray, np.ndarray]:
    # The flat indices j * U + k, in row-major order, and the squared
    # distances of the pairs j < k whose distance is not above ``limit`` (nor
    # is a NaN), their running count held to the budget at ``per_pair`` bytes.
    u = len(x)
    flats, dists = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    count = 0
    for start, d2, upper in upper_strip_sq_dists(x):
        h, w = d2.shape
        keep = ~(d2 > limit)
        keep[:, :h] &= upper
        flat = np.flatnonzero(keep)
        count += len(flat)
        if count * per_pair > MAX_SOLVE_BYTES:
            raise ValueError(
                f"at least {count:,} site pairs lie within the kernels' reach; solving them "
                f"needs at least {count * per_pair / 1e9:.3g} GB at {per_pair} bytes per "
                f"pair, above the {MAX_SOLVE_BYTES / 1e9:.3g} GB budget; use a smaller "
                "--lengthscale"
            )
        dists.append(d2.take(flat))
        # local index r * w + c of entry (start + r, start + c), made flat in U x U
        flat += start * (flat // w) + start * (u + 1)
        flats.append(flat)
    flat = np.concatenate(flats)
    del flats
    return flat, np.concatenate(dists)


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


def pair_tables(energy: EnergyGraph, pairs=slice(None)) -> np.ndarray:
    """The explicit (P, Q, Q) pair tables: -weights on the diagonal, 0 off it.

    ``pairs`` selects the pairs, all by default.
    """
    q = energy.num_labels
    w = energy.weights[pairs]
    tables = np.zeros((len(w), q, q))
    tables[:, np.arange(q), np.arange(q)] = -w[:, energy.column]
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


@contextmanager
def _refuse_overflow():
    # Every entry is finite, but a labeling's sum of them may still overflow
    # float64, and inf energies cannot be ranked: refuse before numpy warns.
    with np.errstate(over="raise"):
        try:
            yield
        except FloatingPointError:
            raise ValueError("the energy of some labeling overflows float64; "
                             "brute force cannot compare the labelings") from None


def brute_force_map(energy: EnergyGraph) -> tuple[np.ndarray, float]:
    """Exhaustive global minimum; ties resolved to the lexicographically first labeling.

    The reported value is the minimum re-evaluated through ``energy_of`` so
    it is bit-identical to re-evaluations of the same labeling elsewhere.
    An energy whose evaluation overflows is refused with a ValueError.
    """
    total = _guard_instance_size(energy)
    best_e = np.inf
    with _refuse_overflow():
        for start in range(0, total, _CHUNK):
            digits, e = _chunk_energies(energy, start, min(start + _CHUNK, total))
            k = int(np.argmin(e))
            if e[k] < best_e:
                best_e = float(e[k])
                labeling = digits[k] + 1
        return labeling, energy_of(energy, labeling)


def brute_force_log_partition(energy: EnergyGraph) -> float:
    """log sum over all labelings of exp(-E), via streaming log-sum-exp.

    An energy whose evaluation overflows is refused with a ValueError.
    """
    total = _guard_instance_size(energy)
    acc = -np.inf
    for start in range(0, total, _CHUNK):
        with _refuse_overflow():
            _, e = _chunk_energies(energy, start, min(start + _CHUNK, total))
        neg = -e
        m = float(neg.max())
        # a difference past -inf only gives exp's exact limit, 0
        with np.errstate(over="ignore"):
            acc = np.logaddexp(acc, m + np.log(np.exp(neg - m).sum()))
    return float(acc) - energy.constant
