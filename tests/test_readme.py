"""The README's library example runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    value_line, ok_line = capsys.readouterr().out.splitlines()
    assert ok_line == "True"
    assert float(value_line.split()[-1]) == pytest.approx(0.7**2 + 1.9**2 + 3.2**2)
