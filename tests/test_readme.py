"""The README's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    tour = {}
    exec(compile(block.group(1), str(README), "exec"), tour)
    assert tour["diag"].converged
    assert [lv["n"] for lv in tour["diag"].levels] == [13, 25, 49, 97, 193, 385]
