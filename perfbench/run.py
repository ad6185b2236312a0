#!/usr/bin/env python3
"""coxcut benchmark: whole CLI workloads, timed end to end and split by layer.

Run from the repository root:

    python3 perfbench/run.py --workload ssl-binary --seed 0 --seconds 35 --trace 0

Each workload writes the inputs of several variants from ``--seed``. A pass
runs one variant's CLI commands through ``coxcut.cli.run`` in this process
(no interpreter start per command); passes cycle through the variants until
``--seconds`` of pass time is used, and the times reported are medians over
passes. The first pass of each variant is checked outside the timing; a
repeated variant must reproduce those outputs exactly.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced passes and prints the per-layer split. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is non-zero if any command fails or any check
does. ``--size smoke`` runs tiny inputs for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
# One BLAS thread keeps runs on a shared two-core machine steady.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the thread settings)

import tracing  # noqa: E402
import workloads  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0, help="pass time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    p.add_argument("--record-references", action="store_true",
                   help="store this run's output summaries as the default-seed references")
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_coxcut():
    """Import coxcut from this checkout's sources, never from elsewhere."""
    if not (SRC / "coxcut" / "__init__.py").is_file():
        raise RuntimeError(f"no coxcut sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coxcut
    import coxcut.cli

    if SRC.resolve() not in Path(coxcut.__file__).resolve().parents:
        raise RuntimeError(f"imported coxcut from {coxcut.__file__}, not from {SRC}")
    return coxcut


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def _environment(coxcut) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "use_numba": bool(coxcut.USE_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _measure_setup(args) -> float:
    """Median wall time of a fresh process that imports coxcut and writes the inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        out = WORK / f"{args.workload}-{os.getpid()}-setup{i}"
        out.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--setup-only", str(out)]
        t = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t)
        shutil.rmtree(out)
        if proc.returncode != 0:
            raise RuntimeError(f"setup process failed:\n{proc.stderr}")
    return statistics.median(times)


@dataclass
class Pass:
    """Timings and outputs of one pass over a variant's commands."""

    steps: list
    traced: bool
    wall: float = 0.0
    times: list = field(default_factory=list)  # seconds per command
    stdouts: list = field(default_factory=list)
    ok: list = field(default_factory=list)  # command exited 0


def _run_pass(cli, steps, tracer) -> Pass:
    rec = Pass(steps, tracer is not None)
    scope = tracer.root() if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with scope:
        for step in steps:
            out, err = io.StringIO(), io.StringIO()
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(step.argv)  # looked up per call, so tracing applies
            except Exception:  # a crash is a failed command, reported and counted
                code = None
                err.write(traceback.format_exc())
            rec.times.append(time.perf_counter() - t)
            rec.stdouts.append(out.getvalue())
            rec.ok.append(code == 0)
            if code != 0:
                print(f"FAIL {step.cmd} exit={code}: {err.getvalue().strip()}", file=sys.stderr)
    rec.wall = time.perf_counter() - t0
    return rec


def _same(ref, got) -> bool:
    if isinstance(ref, float):
        return math.isclose(ref, got, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(ref, list):
        return len(ref) == len(got) and all(_same(a, b) for a, b in zip(ref, got))
    return ref == got


def _check_first(steps, rec: Pass, refs) -> tuple[list, list]:
    """Full checks of every command; returns (summaries, per-step ok)."""
    summaries, ok = [], []
    for i, (step, stdout, ran) in enumerate(zip(steps, rec.stdouts, rec.ok)):
        summary = None
        if ran:
            try:
                summary = step.check(stdout)
                if refs is not None and not _same(refs[i], summary):
                    raise workloads.CheckFailed(
                        f"differs from the default-seed reference: {summary} != {refs[i]}")
            except Exception as e:  # unreadable output fails the command like a mismatch
                print(f"CHECK {step.cmd} #{i}: {type(e).__name__}: {e}", file=sys.stderr)
                summary = None
        summaries.append(summary)
        ok.append(summary is not None)
    return summaries, ok


def _command_metrics(passes: list, errors: list, attempted: int, failed: int) -> dict:
    """The per-command figures a CLI user sees, as medians over untraced passes."""
    untraced = [p for p in passes if not p.traced]

    def seconds(p, cmd):
        return sum(t for t, s in zip(p.times, p.steps) if s.cmd == cmd)

    def rate(p, cmd, attr):
        t = seconds(p, cmd)
        return sum(getattr(s, attr) for s in p.steps) / t if t else 0.0

    def median(f):
        return statistics.median(f(p) for p in untraced)

    return {
        "ssl_s": median(lambda p: seconds(p, "ssl")),
        "sites_per_s": median(lambda p: rate(p, "ssl", "sites")),
        "cv_s": median(lambda p: seconds(p, "fit")),
        "predict_points_per_s": median(lambda p: rate(p, "predict", "points")),
        "error_rate": statistics.fmean(errors) if errors else 1.0,
        "failed_frac": failed / attempted,
    }


# metric-name suffix -> unit, first match wins; any other metric is a count
UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("bytes", "B"), ("ratio", "ratio"),
         ("share", "ratio"), ("error_rate", "ratio"), ("accuracy", "ratio"),
         ("failed_frac", "ratio"))


def _unit(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def benchmark(args, coxcut) -> tuple[dict, int, int]:
    """Run the measured passes; returns (metrics, attempted, failed)."""
    refs = None
    if args.size == "full" and args.seed == DEFAULT_SEED and not args.record_references:
        refs = json.loads(REFERENCES.read_text())[args.workload]
    setup_s = _measure_setup(args)
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        variants = workloads.build(args.workload, args.seed, args.size, run_dir)
        tracer = tracing.Tracer() if args.trace else None
        # a traced run visits each variant twice: untraced, then traced
        visit = 1 + args.trace
        passes, digests, summaries, errors = [], {}, {}, []
        attempted = failed = 0
        while True:
            v = len(passes) // visit % len(variants)
            steps = variants[v]
            traced = len(passes) % visit == 1
            if traced:
                tracer.install()
            try:
                rec = _run_pass(coxcut.cli, steps, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            passes.append(rec)
            if len(passes) == 1:  # the program's own peak, before any check runs
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if v not in digests:
                summaries[v], ok = _check_first(steps, rec, refs and refs[v])
                errors += [m["error"] for s, m in zip(steps, summaries[v])
                           if s.cmd == "eval" and m]
                digests[v] = [s.digest(o) if r else None
                              for s, o, r in zip(steps, rec.stdouts, rec.ok)]
            else:
                ok = [r and s.digest(o) == d
                      for s, o, r, d in zip(steps, rec.stdouts, rec.ok, digests[v])]
                for i, good in enumerate(ok):
                    if rec.ok[i] and not good:
                        print(f"CHECK {steps[i].cmd} #{i} of variant {v}: output differs "
                              "from its first pass", file=sys.stderr)
            attempted += len(ok)
            failed += ok.count(False)
            if len(passes) % visit:
                continue
            if failed:
                break
            if args.record_references:
                if len(digests) == len(variants):
                    break
                continue
            # stop before a visit that would end past --seconds
            spent = sum(p.wall for p in passes)
            if spent + visit * statistics.median(p.wall for p in passes) > args.seconds:
                break
        if args.record_references:
            if failed:
                raise RuntimeError("not recording references from a run that failed")
            REFERENCES.write_text(json.dumps(
                {**json.loads(REFERENCES.read_text()),
                 args.workload: [summaries[v] for v in range(len(variants))]},
                indent=1) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    cmds = _command_metrics(passes, errors, attempted, failed)
    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall for p in passes),
            "peak_rss_mb": peak_rss_mb,
            "accuracy": 1.0 - cmds["error_rate"],
        }
        report = {**cmds, **metrics}
    else:
        metrics = tracer.layer_metrics(sum(p.traced for p in passes))
        untraced = statistics.fmean(p.wall for p in passes if not p.traced)
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        if not math.isclose(self_sum, metrics["trace.wall_s"], rel_tol=1e-9):
            raise RuntimeError(f"self times sum to {self_sum}, traced wall is "
                               f"{metrics['trace.wall_s']}")
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
        metrics["mincut.max_flow.share"] = (
            metrics["mincut.max_flow.self_s"] / metrics["trace.wall_s"])
        metrics.update({f"cli.{k}": v for k, v in cmds.items()})
        report = metrics
    for name, value in report.items():
        print(f"{args.workload:15s} {name:40s} {value:14.6g} {_unit(name)}")
    print(f"{args.workload:15s} passes={len(passes)} variants={len(digests)} "
          f"commands={attempted} failed={failed}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        coxcut = _import_coxcut()
    except (ImportError, RuntimeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.build(args.workload, args.seed, args.size, Path(args.setup_only))
        return 0
    if args.record_references and (args.seed != DEFAULT_SEED or args.size != "full"):
        print("perfbench: references are recorded only at the default seed and full size",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(_environment(coxcut), sort_keys=True))
    try:
        metrics, attempted, failed = benchmark(args, coxcut)
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(out))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
