"""The benchmark's own test, on tiny inputs: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        solver = [k for k in values if k.endswith(".calls") and k.split(".")[0] in
                  ("mincut", "mrf", "expansion")]
        if workload == "supervised":
            assert all(values[k] == 0 for k in solver)
        else:
            assert values["mincut.max_flow.calls"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_wrong_labels_fail_the_run(monkeypatch, capsys):
    coxcut = run._import_coxcut()
    solve = coxcut.cli.ssl_solve

    def one_class(models, labeled, unlabeled):
        return solve(models, labeled, unlabeled) * 0 + 1

    monkeypatch.setattr(coxcut.cli, "ssl_solve", one_class)
    code = run.main(["--workload", "ssl-binary", "--seconds", "1", "--size", "smoke"])
    out = capsys.readouterr()
    assert code != 0
    result = json.loads(out.out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert "CHECK ssl" in out.err


def test_missing_layer_fails_loudly(monkeypatch):
    coxcut = run._import_coxcut()
    original = coxcut.expansion.binary_map
    monkeypatch.delattr(coxcut.mincut, "max_flow")
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError, match="mincut.max_flow"):
        tracer.install()
    assert coxcut.expansion.binary_map is original  # partial install was undone


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "supervised", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed_and_differ_by_variant(workload, tmp_path):
    def inputs(seed, d):
        d.mkdir()
        workloads.build(workload, seed, "smoke", d)
        return {p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*.csv"))}

    a, again, other = (inputs(7, tmp_path / "a"), inputs(7, tmp_path / "b"),
                       inputs(8, tmp_path / "c"))
    assert a == again and a != other
    names = {p.name for p in a}
    first, second = ({p.name: b for p, b in a.items() if p.parts[0] == v} for v in ("v0", "v1"))
    assert set(first) == set(second) == names
    assert all(first[n] != second[n] for n in names)
