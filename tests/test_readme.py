"""The README's library example and CLI round trip run as written against this checkout."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_block(), str(README), "exec"), {"__name__": "readme"})
    lines = dict(line.split(":", 1) for line in out.getvalue().splitlines())
    assert set(lines) == {"supervised error", "semi-supervised error", "kept pairs",
                          "representable", "energy of the solve"}
    assert 0.0 <= float(lines["semi-supervised error"]) <= 1.0
    assert lines["representable"].strip() == "(True, None)"
    assert "weight columns: 1" in lines["kept pairs"]


def _round_trip_commands():
    text = README.read_text(encoding="utf-8")
    section = text.split("\nA full round trip:\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, flags=re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def test_cli_round_trip_runs(tmp_path):
    commands = _round_trip_commands()
    assert [argv[:2] for argv in commands] == [["coxcut", "gen"], ["coxcut", "ssl"],
                                                ["coxcut", "eval"]]
    src = str(README.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for argv in commands:  # python -m coxcut <command> ..., in an empty directory
        res = subprocess.run([sys.executable, "-m", *argv], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
    assert re.search(r"^error=", res.stdout, flags=re.M)
