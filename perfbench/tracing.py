"""Per-layer spans and counts, recorded from outside the program.

A traced pass replaces the module attributes through which one layer of
``coxcut`` calls the next with wrappers that record a span (name, start,
end, parent) and a few counts computed from argument and result shapes.
The originals are put back when the pass ends, so untraced passes run the
program exactly as shipped. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# Every layer function, named <module>.<function> after the module that
# defines it. A layer reports <name>.calls and <name>.self_s.
LAYERS = (
    "cli.run",
    "data.load_csv",
    "data.save_csv",
    "cv.loo_cv",
    "cv.kfold_cv_ssl",
    "classify.predict_proba_batch",
    "expansion.ssl_solve",
    "expansion.alpha_expansion",
    "expansion.expansion_move",
    "mrf.build_energy",
    "mrf.check_pairwise_representable",
    "mrf.energy_of",
    "mincut.binary_map",
    "mincut.build_flow_network",
    "mincut.max_flow",
    "kernels.gram",
    "kernels.cross",
    "kernels.row_sums",
)

# (namespace the caller looks the name up in, attribute, layer). Wrapping the
# caller's namespace puts the span on the edge between two layers.
WRAPS = (
    ("coxcut.cli", "run", "cli.run"),
    ("coxcut.cli", "load_csv", "data.load_csv"),
    ("coxcut.cli", "save_csv", "data.save_csv"),
    ("coxcut.cli", "loo_cv", "cv.loo_cv"),
    ("coxcut.cli", "kfold_cv_ssl", "cv.kfold_cv_ssl"),
    ("coxcut.cli", "predict_proba_batch", "classify.predict_proba_batch"),
    ("coxcut.cli", "ssl_solve", "expansion.ssl_solve"),
    ("coxcut.cli", "build_energy", "mrf.build_energy"),
    ("coxcut.cv", "ssl_solve", "expansion.ssl_solve"),
    ("coxcut.expansion", "alpha_expansion", "expansion.alpha_expansion"),
    ("coxcut.expansion", "expansion_move", "expansion.expansion_move"),
    ("coxcut.expansion", "build_energy", "mrf.build_energy"),
    ("coxcut.expansion", "check_pairwise_representable", "mrf.check_pairwise_representable"),
    ("coxcut.expansion", "energy_of", "mrf.energy_of"),
    ("coxcut.expansion", "binary_map", "mincut.binary_map"),
    ("coxcut.mincut", "build_flow_network", "mincut.build_flow_network"),
    ("coxcut.mincut", "max_flow", "mincut.max_flow"),
    ("coxcut.kernels:Kernel", "gram", "kernels.gram"),
    ("coxcut.kernels:Kernel", "cross", "kernels.cross"),
    ("coxcut.kernels:Kernel", "row_sums", "kernels.row_sums"),
)

# Counts recorded at layer boundaries; every one is reported, zero if unused.
COUNTS = (
    "kernels.gram.evals",
    "kernels.gram.bytes",
    "kernels.cross.evals",
    "kernels.cross.bytes",
    "kernels.row_sums.evals",
    "kernels.row_sums.bytes",
    "mrf.build_energy.pairs_total",
    "mrf.build_energy.pairs_kept",
    "mrf.build_energy.table_bytes",
    "mincut.build_flow_network.arcs",
    "mincut.max_flow.arcs",
    "mincut.binary_map.polish_flips",
    "data.load_csv.rows",
    "expansion.moves_accepted",
)

ROOT = "harness"  # one span per pass; its self time is the benchmark's own code


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


def _points(a) -> np.ndarray:
    a = np.asarray(a)
    return a[:, None] if a.ndim == 1 else a


def _kernel_counts(name, args, result):
    # evals and bytes (inputs read plus result written, float64) from shapes
    pts = [_points(a) for a in args[1:]]
    n_in = sum(p.size for p in pts)
    m = len(pts[0])
    n = len(pts[-1]) if len(pts) > 1 else m
    return {f"{name}.evals": m * n, f"{name}.bytes": 8 * (n_in + np.asarray(result).size)}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []
        self._last_cut = None

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _exit(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self):
        """Span that covers one whole pass."""
        idx = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(idx)

    def _count(self, layer: str, args, result) -> None:
        c = self.counts
        if layer.startswith("kernels."):
            c.update(_kernel_counts(layer, args, result))
        elif layer == "mrf.build_energy":
            u = result.num_sites
            total = u * (u - 1) // 2
            c["mrf.build_energy.pairs_total"] += total
            c["mrf.build_energy.pairs_kept"] += result.num_pairs
            # the dense (pairs, Q, Q) table allocated before the cutoff drops pairs
            c["mrf.build_energy.table_bytes"] += 8 * total * result.num_labels**2
        elif layer == "mincut.build_flow_network":
            c["mincut.build_flow_network.arcs"] += len(result[0].arc_to) // 2
        elif layer == "mincut.max_flow":
            c["mincut.max_flow.arcs"] += len(args[0].arc_to) // 2
            self._last_cut = result[1]
        elif layer == "mincut.binary_map":
            u = args[0].num_sites
            cut_labels = np.where(self._last_cut[:u], 1, 2)
            c["mincut.binary_map.polish_flips"] += int(np.sum(result != cut_labels))
        elif layer == "data.load_csv":
            c["data.load_csv.rows"] += result.n

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            history = None
            if layer == "expansion.alpha_expansion" and kwargs.get("history") is None:
                history = kwargs["history"] = []
            idx = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            tracer._count(layer, args, result)
            if history is not None:
                tracer.counts["expansion.moves_accepted"] += len(history) - 1
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every attribute in WRAPS; raise if one is missing."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for where, attr, layer in WRAPS:
            modname, _, clsname = where.partition(":")
            owner = importlib.import_module(modname)
            if clsname:
                owner = getattr(owner, clsname)
            orig = vars(owner).get(attr)  # a class's own plain function, not a bound one
            if not callable(orig):
                self.uninstall()
                raise AttributeError(f"cannot trace {layer}: {where}.{attr} is missing")
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(layer, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- summary -----------------------------------------------------------

    def _calls_under(self, name: str, parent: str) -> int:
        return sum(1 for s in self.spans if s.name == name and s.parent >= 0
                   and self.spans[s.parent].name == parent)

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass calls, self time and counts, averaged over ``passes`` passes."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        calls, self_s = Counter(), Counter()
        for s, c in zip(self.spans, child):
            calls[s.name] += 1
            self_s[s.name] += s.end - s.start - c
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / passes
            out[f"{layer}.self_s"] = self_s[layer] / passes
        out[f"{ROOT}.self_s"] = self_s[ROOT] / passes
        for key in COUNTS:
            out[key] = self.counts[key] / passes

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        out["mrf.build_energy.kept_ratio"] = ratio(
            c["mrf.build_energy.pairs_kept"], c["mrf.build_energy.pairs_total"])
        out["kernels.gram.calls_per_build_energy"] = ratio(
            self._calls_under("kernels.gram", "mrf.build_energy"), calls["mrf.build_energy"])
        out["cv.kfold_cv_ssl.solves"] = (
            self._calls_under("expansion.ssl_solve", "cv.kfold_cv_ssl") / passes)
        out["expansion.accept_ratio"] = ratio(
            c["expansion.moves_accepted"], calls["expansion.expansion_move"])
        out["trace.wall_s"] = sum(s.end - s.start for s in self.spans if s.parent < 0) / passes
        return out
