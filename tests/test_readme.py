"""The README's library example runs as written against this checkout."""

import contextlib
import io
import re
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
