"""The benchmark tracer's contract with the package.

bench/spans.py wraps the functions named in its TARGETS by replacing them
in their module's or class's ``__dict__`` while a traced round runs.  A
name that moved or was deleted makes ``--trace 1`` fail, so each one is
checked here.  The file is loaded by path: bench/ is not a package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, owner, attr", [t[:3] for t in _targets()],
                         ids=lambda v: str(v))
def test_every_target_is_patchable(module, owner, attr):
    obj = importlib.import_module(module)
    if owner is not None:
        obj = obj.__dict__[owner]
    assert callable(obj.__dict__.get(attr)), f"{module}.{owner or ''}.{attr}"
