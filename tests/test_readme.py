"""README's "Library use" example runs as written, so it cannot go stale."""

import math
import re
from pathlib import Path

import expertgames

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}: Library use", "exec"), {})
    game_line, report_line = capsys.readouterr().out.splitlines()
    assert game_line.startswith("0.0 ")  # matching pennies has value 0
    assert all(math.isfinite(float(value)) for value in report_line.split())


def test_library_use_names_every_export():
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    assert [name for name in expertgames.__all__ if f"`{name}`" not in section] == []
