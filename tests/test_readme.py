"""The README's Python API example and its first CLI pipeline run as written."""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

from crackgrid import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [
        "EnergyReport(bulk=0.0, jump=2.9375, p=2.0, total=2.9375)",  # bulk 0, jump 2.9375
        "[(0.0, 8.25), (17.0, 8.0)]",  # clusters at 0 and 17
        "[8.25, 8.0]",  # each bubble's mass
        "True",  # report.ok
    ]


def test_cli_quick_start_pipeline_prints_its_comment(tmp_path, capsys):
    # the quick start's first pipeline, `crackgrid A | crackgrid B -`, run as
    # `A --out FILE` and `B FILE`, prints the JSON of the comment below it
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(CLI\)\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    k = next(i for i, line in enumerate(lines) if " | " in line)
    assert lines[k] == "crackgrid fixture staircase --n 16 | crackgrid energy -"
    first, second = (part.split()[1:] for part in lines[k].split(" | "))
    path = str(tmp_path / "fixture.json")
    assert cli.main(first + ["--out", path]) == 0
    capsys.readouterr()
    assert cli.main([path if arg == "-" else arg for arg in second]) == 0
    out = capsys.readouterr().out
    assert lines[k + 1] == "# " + out.strip()
    assert json.loads(out) == {"bulk": 0.0, "jump": 2.9375, "p": 2.0, "total": 2.9375}
