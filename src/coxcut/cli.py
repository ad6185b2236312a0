"""Command-line interface.

Exit codes: 0 success, 1 runtime failure, 2 usage error. All randomness in a
subcommand flows from its --seed flag.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .classify import predict_labels, predict_proba_batch, shared_models
from .cv import kfold_cv_ssl, loo_cv
from .data import (
    MAX_ROWS_BYTES,
    Dataset,
    gen_concentric_circles,
    gen_double_helix,
    load_covariates,
    load_csv,
    rows_bytes,
    save_csv,
    stratified_mask,
    write_csv,
)
from .expansion import ssl_solve
from .kernels import Kernel
from .mrf import build_energy, pair_tables
from .simulate import Window, sample_gp_field, sample_poisson_points

BENCH_SIZES = (1024, 2048, 4096, 8192)
_DUMP_PAIRS = 1024  # pairs per chunk of energy --dump


def _add_kernel_flags(p: argparse.ArgumentParser, lengthscale_required: bool = True) -> None:
    p.add_argument("--kernel", choices=["se", "exp"], default="se")
    p.add_argument("--lengthscale", type=float, required=lengthscale_required, default=None)
    p.add_argument("--variance", type=float, default=1.0)


def _kernel_from(args) -> Kernel:
    return Kernel(args.kernel, args.variance, args.lengthscale)


def _models_from(args, num_classes: int, num_points: int):
    """Class models from --means and the kernel flags, for data of ``num_points`` rows.

    With N rows, means of magnitude at most M and variance v, every
    activation and energy term, the energy of any labeling and the
    difference of any two of these lie within 2 (N + 1) (M + (N + 1) v).
    Flags that let this bound overflow float64 are refused here, before
    any kernel is evaluated, and the flag that does so is named.
    """
    means = None
    if getattr(args, "means", None):
        means = [float(v) for v in args.means.split(",")]
    models = shared_models(num_classes, _kernel_from(args), means)
    n = num_points + 1.0
    m = max(abs(c.mean) for c in models)
    v = models[0].kernel.signal_variance
    # the means alone, then with the variance, so the refusal names the flag that overflows
    checks = (("--means", m, 2.0 * n * m), ("--variance", v, 2.0 * n * (m + n * v)))
    for flag, value, bound in checks:
        if not math.isfinite(bound):
            raise ValueError(
                f"{flag} value {value!r} is too large for {num_points} points: "
                "energies and probabilities would overflow"
            )
    return models


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _r(v) -> str:
    """Shortest exact decimal form of a float for CSV output."""
    return repr(float(v))


def _guard_rows(need: int, what: str, flags: str) -> None:
    if need > MAX_ROWS_BYTES:
        raise ValueError(
            f"{what} need {need / 1e9:,.1f} GB, above the {MAX_ROWS_BYTES / 1e9:.1f} GB "
            f"guard; use {flags}"
        )


def _cmd_gen(args) -> int:
    circles = args.shape == "circles"
    radii = _floats(args.radii) if circles else []
    rows = args.n_per_class * (len(radii) if circles else 2)
    _guard_rows(rows_bytes(rows, 2 if circles else 3), f"{rows} rows to generate and write",
                "fewer points per class (--n-per-class)")
    if circles:
        ds = gen_concentric_circles(args.n_per_class, radii, args.noise, args.seed)
    else:
        ds = gen_double_helix(
            args.n_per_class, args.radius, args.pitch, args.turns, args.noise, args.seed
        )
    truth = ds
    if args.labeled_per_class:
        mask = stratified_mask(ds, args.labeled_per_class, args.seed)
        ds = Dataset(ds.covariates, np.where(mask, ds.labels, 0), ds.num_classes)
    if args.truth_out:
        save_csv(truth, args.truth_out)
    save_csv(ds, args.out)
    return 0


def _cmd_simulate(args) -> int:
    corners = _floats(args.window)
    if len(corners) % 2:
        raise ValueError("--window needs an even number of values: lower corner then upper corner")
    d = len(corners) // 2
    window = Window(np.array(corners[:d]), np.array(corners[d:]), args.grid)
    field = sample_gp_field(args.mean, _kernel_from(args), window, args.seed)
    points = sample_poisson_points(field, args.seed + 1)
    coord_names = [f"x{i + 1}" for i in range(d)]
    write_csv(
        args.out_field,
        coord_names + ["intensity"],
        [[_r(v) for v in c] + [_r(i)] for c, i in zip(field.centers, field.intensity)],
    )
    write_csv(args.out_points, coord_names, [[_r(v) for v in p] for p in points])
    return 0


def _cmd_fit(args) -> int:
    if args.cv_subsample is not None and args.cv_subsample < 2:
        raise ValueError(f"--cv-subsample must be at least 2, got {args.cv_subsample}")
    ds = load_csv(args.train, args.label_column)
    x, y = ds.labeled()
    if args.cv_subsample is not None and args.cv_subsample < len(x):
        idx = np.random.default_rng(args.seed).permutation(len(x))[: args.cv_subsample]
        idx.sort()
        x, y = x[idx], y[idx]
    labeled = Dataset(x, y, ds.num_classes)
    grid = None if args.grid == "auto" else _floats(args.grid)
    if args.ssl:
        best, table = kfold_cv_ssl(
            labeled, ds.unlabeled_points(), args.folds, args.kernel, grid, args.seed
        )
    else:
        best, table = loo_cv(labeled, args.kernel, grid)
    write_csv(args.out, ["lengthscale", "error"], [[_r(a), _r(b)] for a, b in table])
    print(f"best_lengthscale={_r(best)}")
    return 0


def _cmd_predict(args) -> int:
    train = load_csv(args.train, args.label_column)
    x_test = load_covariates(args.test, args.label_column)
    if not len(x_test):
        raise ValueError(f"{args.test}: no test points")
    models = _models_from(args, train.num_classes, train.n)
    probs = predict_proba_batch(models, train, x_test)
    labels = predict_labels(probs)
    header = [f"prob_{i + 1}" for i in range(train.num_classes)] + ["label"]
    rows = [[*map(repr, p), str(lab)] for p, lab in zip(probs.tolist(), labels.tolist())]
    write_csv(args.out, header, rows)
    return 0


def _cmd_ssl(args) -> int:
    ds = load_csv(args.data, args.label_column)
    unlabeled_mask = ~ds.labeled_mask
    if not unlabeled_mask.any():
        raise ValueError(f"{args.data} has no unlabeled rows to solve for")
    labeled = Dataset(ds.covariates[~unlabeled_mask], ds.labels[~unlabeled_mask], ds.num_classes)
    models = _models_from(args, ds.num_classes, ds.n)
    solved = ssl_solve(models, labeled, ds.covariates[unlabeled_mask])
    full = ds.labels.copy()
    full[unlabeled_mask] = solved
    mode = "exact" if ds.num_classes == 2 else "local-optimum"
    out = Dataset(ds.covariates, full, ds.num_classes)
    save_csv(out, args.out, comments=[f"solve-mode: {mode}", "tie-break: first-found-deterministic"])
    return 0


def _cmd_eval(args) -> int:
    # scoring compares labels only, so no file needs two classes: the class
    # count is the largest label the loader accepts
    def labels(path):
        return load_csv(path, args.label_column, num_classes=np.iinfo(np.int64).max)

    pred, truth = labels(args.pred), labels(args.truth)
    if pred.n != truth.n:
        raise ValueError(f"prediction rows {pred.n} != truth rows {truth.n}")
    scored = truth.labeled_mask.copy()
    if args.data:
        masked = labels(args.data)
        if masked.n != truth.n:
            raise ValueError(f"--data rows {masked.n} != truth rows {truth.n}")
        scored &= ~masked.labeled_mask  # score only rows the solver had to predict
    if not scored.any():
        raise ValueError("no rows to score")
    blank = int(np.sum(scored & ~pred.labeled_mask))
    if blank:
        raise ValueError(f"{args.pred}: {blank} scored rows have no predicted label")
    wrong = int(np.sum(pred.labels[scored] != truth.labels[scored]))
    total = int(scored.sum())
    print(f"error={wrong / total:.6f} scored={total} wrong={wrong}")
    return 0


def bench_prediction(sizes=BENCH_SIZES, n_test: int = 512, repeats: int = 9, seed: int = 0):
    """Per-test-point prediction time of a unit se kernel against training-set size.

    Repeats are interleaved across sizes (round robin, minimum kept) so slow
    machine-load drift cannot tilt the fitted slope. Returns
    ([(n, seconds_per_point), ...], fitted log-log growth exponent).
    """
    if len(set(sizes)) < 2:
        raise ValueError(f"need at least two distinct training sizes, got {list(sizes)}")
    if min(sizes) < 2:
        raise ValueError(f"training sizes must be >= 2, got {min(sizes)}")
    if n_test < 1:
        raise ValueError(f"test points must be >= 1, got {n_test}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    # Every training set (2-D points and labels, 24 bytes a row) and its
    # test points (16 bytes a row) are held until the timing ends; a
    # prediction copies the labeled rows and each class's points and squares
    # them (at most 96 bytes a training row) and takes at most 96 bytes a
    # test point for the activations and probabilities.
    need = 24 * sum(sizes) + 96 * max(sizes) + (16 * len(sizes) + 96) * n_test
    _guard_rows(need, f"{len(sizes)} training sets of up to {max(sizes)} points and "
                f"{n_test} test points each", "smaller --sizes or fewer --test-points")
    rng = np.random.default_rng(seed)
    kern = Kernel("se", 1.0, 1.0)
    setups = []
    for n in sizes:
        half = n // 2
        x = np.vstack(
            [rng.normal(0.0, 1.0, (half, 2)), rng.normal(3.0, 1.0, (n - half, 2))]
        )
        y = np.concatenate([np.ones(half, np.int64), np.full(n - half, 2, np.int64)])
        train = Dataset(x, y, 2)
        models = shared_models(2, kern)
        x_test = rng.normal(1.5, 2.0, (n_test, 2))
        predict_proba_batch(models, train, x_test)  # warm caches
        setups.append((n, models, train, x_test))
    best = {n: np.inf for n in sizes}
    for _ in range(repeats):
        for n, models, train, x_test in setups:
            t0 = time.perf_counter()
            predict_proba_batch(models, train, x_test)
            best[n] = min(best[n], time.perf_counter() - t0)
    times = [(n, best[n] / n_test) for n in sizes]
    ns = np.log([n for n, _ in times])
    ts = np.log([t for _, t in times])
    exponent = float(np.polyfit(ns, ts, 1)[0])
    return times, exponent


def _cmd_bench(args) -> int:
    sizes = tuple(int(v) for v in args.sizes.split(","))
    rows, exponent = bench_prediction(sizes, args.test_points, args.repeats, args.seed)
    write_csv(None, ["n_train", "seconds_per_test_point"], [[n, _r(t)] for n, t in rows])
    print(f"exponent={exponent:.4f}")
    return 0


def _cmd_energy(args) -> int:
    ds = load_csv(args.data, args.label_column)
    unlabeled = ds.unlabeled_points()
    if len(unlabeled) == 0:
        raise ValueError(f"{args.data} has no unlabeled rows")
    labeled = Dataset(*ds.labeled(), ds.num_classes)
    energy = build_energy(_models_from(args, ds.num_classes, ds.n), labeled, unlabeled)
    with open(args.dump, "w", encoding="utf-8") as fh:
        _dump_energy(energy, fh)
    return 0


def _dump_energy(energy, fh) -> None:
    """Write ``energy`` as the text of json.dumps(payload, indent=1), pairs streamed.

    The payload holds the sizes, the constant, the unaries and one
    {"i", "j", "table"} object per pair. The pairs are written _DUMP_PAIRS
    at a time: each chunk's json.dumps list, without its brackets and one
    level deeper, so no object is held for every pair at once.
    """
    head = json.dumps({
        "num_sites": energy.num_sites,
        "num_labels": energy.num_labels,
        "constant": energy.constant,
        "unary": energy.unary.tolist(),
        "pairs": [],
    }, indent=1)
    if not energy.num_pairs:
        fh.write(head)
        return
    fh.write(head[: -len("]\n}")])  # up to the pairs' opening bracket
    for start in range(0, energy.num_pairs, _DUMP_PAIRS):
        pairs = slice(start, start + _DUMP_PAIRS)
        chunk = json.dumps([
            {"i": i, "j": j, "table": t}
            for i, j, t in zip(energy.pair_i[pairs].tolist(), energy.pair_j[pairs].tolist(),
                               pair_tables(energy, pairs).tolist())
        ], indent=1)
        fh.write(("," if start else "") + chunk[1:-2].replace("\n", "\n "))
    fh.write("\n ]\n}")


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", choices=["circles", "helix"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-per-class", type=int, default=100)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--radii", default="1,2", help="circles: comma-separated radii")
    p.add_argument("--radius", type=float, default=1.0, help="helix radius")
    p.add_argument("--pitch", type=float, default=1.0)
    p.add_argument("--turns", type=float, default=2.0)
    p.add_argument("--labeled-per-class", type=int, default=0,
                   help="if set, blank all labels except this many per class")
    p.add_argument("--truth-out", default=None, help="also write the fully labeled dataset here")
    p.set_defaults(func=_cmd_gen)


def _simulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", required=True, help="lower corner then upper corner, e.g. -3,-3,3,3")
    p.add_argument("--grid", type=int, default=64, help="cells per axis")
    _add_kernel_flags(p, lengthscale_required=False)
    p.set_defaults(lengthscale=1.0)
    p.add_argument("--mean", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-field", required=True)
    p.add_argument("--out-points", required=True)
    p.set_defaults(func=_cmd_simulate)


def _fit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train", required=True)
    p.add_argument("--kernel", choices=["se", "exp"], default="se")
    p.add_argument("--grid", default="auto", help="'auto' or comma-separated length scales")
    p.add_argument("--ssl", action="store_true", help="transductive k-fold instead of leave-one-out")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cv-subsample", type=int, default=None)
    p.add_argument("--label-column", default="label")
    p.add_argument("--out", default=None, help="error table destination (default stdout)")
    p.set_defaults(func=_cmd_fit)


def _predict_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    _add_kernel_flags(p)
    p.add_argument("--means", default=None, help="comma-separated per-class means")
    p.add_argument("--label-column", default="label")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)


def _ssl_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)
    _add_kernel_flags(p)
    p.add_argument("--means", default=None)
    p.add_argument("--label-column", default="label")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ssl)


def _eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--data", default=None, help="masked input; score only its unlabeled rows")
    p.add_argument("--label-column", default="label")
    p.set_defaults(func=_cmd_eval)


def _bench_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sizes", default=",".join(str(s) for s in BENCH_SIZES))
    p.add_argument("--test-points", type=int, default=256)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)


def _energy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)
    _add_kernel_flags(p)
    p.add_argument("--means", default=None)
    p.add_argument("--label-column", default="label")
    p.add_argument("--dump", required=True)
    p.set_defaults(func=_cmd_energy)


# name: (help line, function adding its arguments and handler), in help order
_COMMANDS = {
    "gen": ("generate a synthetic dataset CSV", _gen_args),
    "simulate": ("sample an intensity field and points from it", _simulate_args),
    "fit": ("select a length scale by cross-validation", _fit_args),
    "predict": ("predictive probabilities for test points", _predict_args),
    "ssl": ("fill in labels for the unlabeled rows of a dataset", _ssl_args),
    "eval": ("0-1 error of predicted labels against withheld truth", _eval_args),
    "bench": ("prediction-time scaling against training size", _bench_args),
    "energy": ("dump the label-field energy tables as JSON", _energy_args),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; with ``command`` given, only that subcommand gets its arguments.

    Every subcommand is registered with its help line either way, so the
    top-level help and the unknown-command error read the same.
    """
    parser = argparse.ArgumentParser(
        prog="coxcut",
        description="Point-process classification: supervised prediction and "
        "min-cut semi-supervised labeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command in (None, name):
            add_args(p)
    return parser


# flags whose comma-separated values may start with a minus sign; fold the
# value into --flag=value so argparse does not mistake it for an option
_VALUE_FLAGS = {"--window", "--means", "--radii"}


def _fold_negative_values(argv: list) -> list:
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    argv = _fold_negative_values(list(sys.argv[1:] if argv is None else argv))
    # arguments only for the invoked command; anything else gets the full parser
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as e:
        print(f"coxcut: error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        # last resort for sizes that no guard refused before allocating
        print(f"coxcut: error: {args.command} ran out of memory", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
