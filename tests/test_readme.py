"""The README's Python API example runs as written."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [
        "EnergyReport(bulk=0.0, jump=2.9375, p=2.0)",  # bulk 0, jump 2.9375
        "[(0.0, 8.25), (17.0, 8.0)]",  # clusters at 0 and 17
        "True",  # report.ok
    ]
