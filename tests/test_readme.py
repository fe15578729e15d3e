"""The README's library quick tour runs as written, and its config example validates."""

import json
import re
from pathlib import Path

from degenlab.config import validate_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    tour = {}
    exec(compile(block.group(1), str(README), "exec"), tour)
    assert tour["diag"].converged
    assert [lv["n"] for lv in tour["diag"].levels] == [13, 25, 49, 97, 193, 385]


def test_config_example_validates():
    block = re.search(r"Config example:\s*```json\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S)
    cfg = validate_config(json.loads(block.group(1)))
    assert cfg.build_problem()[1].name == "radial-power"
