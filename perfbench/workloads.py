"""Workload inputs, command sequences and output checks.

Inputs are generated here with numpy alone, so a change to the program's
own generators cannot change what the benchmark feeds it; the program only
ever sees the CSV files written below. Every random stream is derived from
the workload seed.

Each check recomputes what it can without the program: the label-field
energy and single-site moves of an ``ssl`` labeling, leave-one-out errors,
predictive probabilities and 0-1 error. A check raises ``CheckFailed`` and
returns a small summary that is compared with the references recorded from
the default seed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Sizes per workload. "full" is the measured benchmark; "smoke" is the tiny
# variant the benchmark's own test runs in seconds.
SIZES = {
    "full": {
        # Each pass runs one variant: its own inputs drawn from the seed. A run
        # cycles through the variants, so its median pass averages over
        # several draws and one slow instance moves it little.
        "variants": {"ssl-binary": 8, "ssl-multiclass": 12, "supervised": 3},
        # Q=2 double helix (3 turns, noise 0.05): fit --ssl solves about 270
        # sites per fold; a U=1000 helix keeps about 29k pairs at length scale
        # 0.08 and about 67k at 0.13. The max-flow time of one random helix
        # varies with its number of augmenting phases (by 2-3x at 0.18 with 10
        # labels per class), so the big helix is drawn evenly along its curve,
        # with its labels spread evenly too, at scales and label counts where
        # that count is steady (the 0.13 solve then varies about 8% between
        # draws, against about 20% for uniform draws). The fit's time varies
        # about 15% between draws.
        "helix_fit_per_class": 150,
        "helix_fit_labeled": 20,
        "helix_fit_grid": (0.05, 0.07, 0.1, 0.14),
        "helix_fit_folds": 4,
        "helix_big_per_class": 550,
        "helix_big_labeled": 50,
        "helix_scales": (0.08, 0.13),
        # circles (classes, points per class, labeled per class): U=348 and U=304
        "circles": ((3, 132, 16), (4, 92, 16)),
        "circles_scale": 0.2,
        "sup_train_per_class": 8192,
        "sup_test_per_class": 512,
        "sup_cv_subsample": 2000,
        "sup_scale": 0.25,
    },
    "smoke": {
        "variants": {"ssl-binary": 2, "ssl-multiclass": 2, "supervised": 2},
        "helix_fit_per_class": 30,
        "helix_fit_labeled": 6,
        "helix_fit_grid": (0.1, 0.2),
        "helix_fit_folds": 2,
        "helix_big_per_class": 40,
        "helix_big_labeled": 5,
        "helix_scales": (0.15, 0.3),
        "circles": ((3, 20, 3),),
        "circles_scale": 0.3,
        "sup_train_per_class": 200,
        "sup_test_per_class": 20,
        "sup_cv_subsample": 100,
        "sup_scale": 0.25,
    },
}

WORKLOADS = ("ssl-binary", "ssl-multiclass", "supervised")

HELIX_SHAPE = {"radius": 1.0, "pitch": 1.0, "turns": 3.0, "noise": 0.05}
CIRCLES_NOISE = 0.1
SUP_RADII = (1.0, 2.0)
SUP_NOISE = 0.3


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Step:
    """One CLI command of a workload pass and how to check what it produced."""

    cmd: str
    argv: list
    check: Callable[[str], dict]  # stdout -> summary; raises CheckFailed
    out: Path | None = None  # file the command writes, if any
    sites: int = 0  # unlabeled sites an ssl command solves
    points: int = 0  # test points a predict command scores

    def digest(self, stdout: str) -> str:
        """Hash of everything the command produced, to compare repeated passes."""
        h = hashlib.sha256(stdout.encode())
        if self.out is not None:
            h.update(self.out.read_bytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# input generation


def _rng(seed: int, variant: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, variant, stream])


def _helix(rng, n_per_class: int, even: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Two interleaved helices; ``even`` draws one point per equal step of the curve."""
    s = HELIX_SHAPE
    span = 2.0 * math.pi * s["turns"]
    xs, ys = [], []
    for label, phase in ((1, 0.0), (2, math.pi)):
        if even:
            t = (np.arange(n_per_class) + rng.uniform(0.0, 1.0, n_per_class)) * (
                span / n_per_class)
        else:
            t = rng.uniform(0.0, span, n_per_class)
        pts = np.column_stack(
            [s["radius"] * np.cos(t + phase), s["radius"] * np.sin(t + phase),
             s["pitch"] * t / (2.0 * math.pi)]
        )
        xs.append(pts + rng.normal(0.0, s["noise"], pts.shape))
        ys.append(np.full(n_per_class, label, np.int64))
    return np.vstack(xs), np.concatenate(ys)


def _circles(rng, radii, n_per_class: int, noise: float) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    for label, r in enumerate(radii, start=1):
        theta = rng.uniform(0.0, 2.0 * math.pi, n_per_class)
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        xs.append(pts + rng.normal(0.0, noise, pts.shape))
        ys.append(np.full(n_per_class, label, np.int64))
    return np.vstack(xs), np.concatenate(ys)


def _mask_labels(rng, y: np.ndarray, per_class: int, even: bool = False) -> np.ndarray:
    """Copy of y with all but ``per_class`` random rows of each class set to 0.

    With ``even`` the kept rows are one random row from each of ``per_class``
    equal runs of the class's rows in order.
    """
    keep = np.zeros(len(y), bool)
    for c in np.unique(y):
        rows = np.flatnonzero(y == c)
        if even:
            edges = np.linspace(0, len(rows), per_class + 1).astype(np.int64)
            pick = edges[:-1] + (rng.uniform(0.0, 1.0, per_class)
                                 * (edges[1:] - edges[:-1])).astype(np.int64)
            keep[rows[pick]] = True
        else:
            keep[rng.permutation(rows)[:per_class]] = True
    return np.where(keep, y, 0)


def write_csv(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i + 1}" for i in range(x.shape[1])] + ["label"])
        for row, lab in zip(x.tolist(), y.tolist()):
            w.writerow([repr(v) for v in row] + [str(lab) if lab else ""])


def read_csv(path: Path) -> tuple[list, np.ndarray, np.ndarray]:
    """(header, numeric matrix of every column but ``label``, labels with 0 for blank)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    li = header.index("label")
    cols = [i for i in range(len(header)) if i != li]
    x = np.array([[float(r[i]) for i in cols] for r in body]).reshape(len(body), len(cols))
    y = np.array([int(r[li]) if r[li].strip() else 0 for r in body], np.int64)
    return header, x, y


# ---------------------------------------------------------------------------
# independent reference computations


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", d, d)


def _kernel(family: str, ls: float, d2: np.ndarray) -> np.ndarray:
    if family == "se":
        return np.exp(-d2 / (2.0 * ls * ls))
    return np.exp(-np.sqrt(d2) / ls)


def _labels_sha(y: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(y, np.int64).tobytes()).hexdigest()[:16]


def check_ssl_labeling(masked: Path, out: Path, q: int, ls: float) -> dict:
    """Energy of the returned labeling, and no single-site change may lower it.

    The energy is that of the conditional Potts field with a shared unit
    squared-exponential kernel and zero means (what ``ssl`` solves), over all
    site pairs. The tolerance covers the pairs the program drops (coupling
    below 1e-12 each) and the integer quantization of the cuts inside
    expansion moves.
    """
    _, x_in, y_in = read_csv(masked)
    _, x_out, y_out = read_csv(out)
    if x_out.shape != x_in.shape or not np.array_equal(x_out, x_in):
        raise CheckFailed(f"{out.name}: covariates differ from the input rows")
    lab = y_in != 0
    if not np.array_equal(y_out[lab], y_in[lab]):
        raise CheckFailed(f"{out.name}: labeled rows were changed")
    ys = y_out[~lab]
    if ys.size == 0 or ys.min() < 1 or ys.max() > q:
        raise CheckFailed(f"{out.name}: unlabeled rows not all labeled in 1..{q}")
    xs, xl, yl = x_in[~lab], x_in[lab], y_in[lab]
    unary = np.empty((len(xs), q))
    constant = 0.0
    for a in range(q):
        pts = xl[yl == a + 1]
        unary[:, a] = -0.5 - _kernel("se", ls, _sq_dists(pts, xs)).sum(axis=0)
        constant -= 0.5 * _kernel("se", ls, _sq_dists(pts, pts)).sum()
    k = _kernel("se", ls, _sq_dists(xs, xs))
    np.fill_diagonal(k, 0.0)
    y0 = ys - 1
    onehot = np.eye(q)[y0]
    attract = k @ onehot  # attract[i, c]: coupling of site i to sites labeled c
    sites = np.arange(len(xs))
    energy = float(unary[sites, y0].sum() - 0.5 * np.sum(attract[sites, y0]) + constant)
    # energy change of moving site i alone to label c
    delta = unary - unary[sites, y0][:, None] - attract + attract[sites, y0][:, None]
    tol = 1e-8 * (1.0 + abs(energy)) + 1e-12 * len(xs)
    worst = float(delta.min())
    if worst < -tol:
        i, c = np.unravel_index(int(np.argmin(delta)), delta.shape)
        raise CheckFailed(
            f"{out.name}: moving site {i} to label {c + 1} lowers the energy by {-worst:.3e}"
        )
    return {"energy": energy, "labels_sha": _labels_sha(ys)}


def check_eval(stdout: str, pred: Path, truth: Path, masked: Path | None) -> dict:
    m = re.search(r"error=([0-9.]+) scored=(\d+) wrong=(\d+)", stdout)
    if not m:
        raise CheckFailed(f"eval printed no error line: {stdout!r}")
    _, _, y_pred = read_csv(pred)
    _, _, y_true = read_csv(truth)
    scored = y_true != 0
    if masked is not None:
        scored &= read_csv(masked)[2] == 0
    wrong, total = int(np.sum(y_pred[scored] != y_true[scored])), int(scored.sum())
    if (int(m.group(2)), int(m.group(3))) != (total, wrong):
        raise CheckFailed(f"eval reported {m.group(0)}, expected scored={total} wrong={wrong}")
    if f"{wrong / total:.6f}" != m.group(1):
        raise CheckFailed(f"eval reported error={m.group(1)}, expected {wrong / total:.6f}")
    return {"error": wrong / total}


def _read_table(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["lengthscale", "error"]:
        raise CheckFailed(f"{path.name}: unexpected header {rows[0]}")
    return np.array([[float(a), float(b)] for a, b in rows[1:]]).reshape(-1, 2)


def _check_table(table: np.ndarray, stdout: str, grid: np.ndarray, path: Path) -> None:
    if table.shape != (len(grid), 2) or not np.allclose(table[:, 0], grid, rtol=1e-9, atol=0):
        raise CheckFailed(f"{path.name}: grid {table[:, 0].tolist()} != {grid.tolist()}")
    err = table[:, 1]
    if np.any(err < 0) or np.any(err > 1):
        raise CheckFailed(f"{path.name}: error outside [0, 1]")
    best = float(grid[np.flatnonzero(err == err.min())].max())
    m = re.search(r"best_lengthscale=(\S+)", stdout)
    if not m or not math.isclose(float(m.group(1)), best, rel_tol=1e-9):
        raise CheckFailed(f"fit printed {stdout.strip()!r}, expected best_lengthscale={best!r}")


def check_fit_ssl(stdout: str, out: Path, grid) -> dict:
    table = _read_table(out)
    _check_table(table, stdout, np.asarray(grid, float), out)
    return {"errors": table[:, 1].tolist()}


def check_fit_loo(stdout: str, out: Path, train: Path, subsample: int, seed: int) -> dict:
    """Recompute the automatic grid and every leave-one-out error."""
    _, x, y = read_csv(train)
    x, y = x[y != 0], y[y != 0]
    idx = np.sort(np.random.default_rng(seed).permutation(len(x))[:subsample])
    x, y = x[idx], y[idx]
    n = len(x)
    d2 = _sq_dists(x, x)
    med = float(np.median(np.sqrt(d2[np.triu_indices(n, k=1)])))
    grid = np.geomspace(0.01 * med, 100.0 * med, 16)
    table = _read_table(out)
    _check_table(table, stdout, grid, out)
    onehot = np.eye(int(y.max()))[y - 1]
    for ls, err in table:
        k = _kernel("se", ls, d2)
        np.fill_diagonal(k, 0.0)
        sums = k @ onehot
        # The program adds the self term C(0) = 1 to a class sum and subtracts
        # it again, so sums closer than a few rounding errors of 1 + sum may
        # be decided either way.
        top2 = np.sort(sums, axis=1)[:, -2:]
        unsure = top2[:, 1] - top2[:, 0] <= 1e-13 * (1.0 + sums.sum(axis=1))
        wrong = int(np.sum((np.argmax(sums, axis=1) + 1 != y) & ~unsure))
        if not wrong / n - 1e-12 <= err <= (wrong + unsure.sum()) / n + 1e-12:
            raise CheckFailed(
                f"{out.name}: LOO error {err} at {ls}; recomputed {wrong / n} "
                f"with {int(unsure.sum())} undecidable points")
    return {"errors": table[:, 1].tolist()}


def check_predict(out: Path, train: Path, test: Path, family: str, ls: float, seed: int) -> dict:
    """Probabilities are a distribution, labels their argmax, and a sample matches."""
    header, probs, labels = read_csv(out)
    _, x_test, _ = read_csv(test)
    _, x_tr, y_tr = read_csv(train)
    q = int(y_tr.max())
    if header != [f"prob_{i + 1}" for i in range(q)] + ["label"] or len(probs) != len(x_test):
        raise CheckFailed(f"{out.name}: wrong shape or header {header}")
    if np.any(probs < 0) or np.any(probs > 1) or np.any(np.abs(probs.sum(1) - 1) > 1e-9):
        raise CheckFailed(f"{out.name}: rows are not probability distributions")
    if not np.array_equal(labels, np.argmax(probs, axis=1) + 1):
        raise CheckFailed(f"{out.name}: labels are not the most probable class")
    pick = np.sort(np.random.default_rng(seed).permutation(len(x_test))[:64])
    f = np.column_stack(
        [0.5 + _kernel(family, ls, _sq_dists(x_test[pick], x_tr[y_tr == a + 1])).sum(1)
         for a in range(q)]
    )
    e = np.exp(f - f.max(1, keepdims=True))
    mine = e / e.sum(1, keepdims=True)
    if not np.allclose(probs[pick], mine, rtol=1e-7, atol=1e-9):
        raise CheckFailed(f"{out.name}: probabilities differ from a direct kernel sum")
    return {"labels_sha": _labels_sha(labels), "prob_1_sum": float(probs[:, 0].sum())}


# ---------------------------------------------------------------------------
# workloads


def _ssl_steps(d: Path, tag: str, x, y, masked_y, q: int, scales) -> list:
    truth, masked = d / f"{tag}_truth.csv", d / f"{tag}_masked.csv"
    write_csv(truth, x, y)
    write_csv(masked, x, masked_y)
    sites = int(np.sum(masked_y == 0))
    steps = []
    for ls in scales:
        out = d / f"{tag}_ls{ls}_ssl.csv"
        steps.append(Step(
            "ssl",
            ["ssl", "--data", str(masked), "--lengthscale", repr(ls), "--out", str(out)],
            lambda _s, out=out, ls=ls: check_ssl_labeling(masked, out, q, ls),
            out=out, sites=sites,
        ))
        steps.append(Step(
            "eval",
            ["eval", "--pred", str(out), "--truth", str(truth), "--data", str(masked)],
            lambda s, out=out: check_eval(s, out, truth, masked),
        ))
    return steps


def _variant(name: str, seed: int, v: int, p: dict, d: Path) -> list:
    """Write the inputs of variant ``v`` into ``d`` and return its command sequence."""
    # the program's own --seed (CV folds, LOO subsample), distinct per variant
    prog_seed = 1000 * seed + v
    steps = []
    if name == "ssl-binary":
        rng = _rng(seed, v, 1)
        x, y = _helix(rng, p["helix_fit_per_class"])
        fit_data = d / "helix_fit.csv"
        write_csv(fit_data, x, _mask_labels(rng, y, p["helix_fit_labeled"]))
        fit_out = d / "helix_fit_table.csv"
        grid = p["helix_fit_grid"]
        steps.append(Step(
            "fit",
            ["fit", "--train", str(fit_data), "--ssl", "--folds", str(p["helix_fit_folds"]),
             "--grid", ",".join(repr(g) for g in grid), "--seed", str(prog_seed),
             "--out", str(fit_out)],
            lambda s: check_fit_ssl(s, fit_out, grid),
            out=fit_out,
        ))
        rng = _rng(seed, v, 2)
        x, y = _helix(rng, p["helix_big_per_class"], even=True)
        masked_y = _mask_labels(rng, y, p["helix_big_labeled"], even=True)
        steps += _ssl_steps(d, "helix", x, y, masked_y, 2, p["helix_scales"])
    elif name == "ssl-multiclass":
        for q, per_class, labeled in p["circles"]:
            radii = tuple(float(r) for r in range(1, q + 1))
            rng = _rng(seed, v, 200 + q)
            x, y = _circles(rng, radii, per_class, CIRCLES_NOISE)
            masked_y = _mask_labels(rng, y, labeled)
            steps += _ssl_steps(d, f"circles{q}", x, y, masked_y, q, (p["circles_scale"],))
    elif name == "supervised":
        x, y = _circles(_rng(seed, v, 300), SUP_RADII, p["sup_train_per_class"], SUP_NOISE)
        train = d / "sup_train.csv"
        write_csv(train, x, y)
        x_t, y_t = _circles(_rng(seed, v, 301), SUP_RADII, p["sup_test_per_class"], SUP_NOISE)
        test, truth = d / "sup_test.csv", d / "sup_test_truth.csv"
        write_csv(test, x_t, np.zeros_like(y_t))
        write_csv(truth, x_t, y_t)
        fit_out = d / "sup_fit_table.csv"
        sub = p["sup_cv_subsample"]
        steps.append(Step(
            "fit",
            ["fit", "--train", str(train), "--cv-subsample", str(sub), "--seed", str(prog_seed),
             "--out", str(fit_out)],
            lambda s: check_fit_loo(s, fit_out, train, sub, prog_seed),
            out=fit_out,
        ))
        ls = p["sup_scale"]
        for family in ("se", "exp"):
            out = d / f"sup_pred_{family}.csv"
            steps.append(Step(
                "predict",
                ["predict", "--train", str(train), "--test", str(test), "--kernel", family,
                 "--lengthscale", repr(ls), "--out", str(out)],
                lambda _s, out=out, family=family: check_predict(
                    out, train, test, family, ls, prog_seed),
                out=out, points=len(x_t),
            ))
            steps.append(Step(
                "eval",
                ["eval", "--pred", str(out), "--truth", str(truth)],
                lambda s, out=out: check_eval(s, out, truth, None),
            ))
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return steps


def build(name: str, seed: int, size: str, d: Path) -> list:
    """Write every variant's inputs under ``d``; returns one command sequence per variant."""
    p = SIZES[size]
    variants = []
    for v in range(p["variants"][name]):
        vd = d / f"v{v}"
        vd.mkdir()
        variants.append(_variant(name, seed, v, p, vd))
    return variants
