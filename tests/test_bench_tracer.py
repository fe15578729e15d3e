"""The benchmark tracer's contract with the package.

bench/spans.py wraps the functions named in its TARGETS by replacing them
in their module's or class's ``__dict__`` while a traced round runs.  A
name that moved or was deleted makes ``--trace 1`` fail, so each one is
checked here, and so is that the commands call through the wrapped names:
a command that stops calling one leaves its layer's metrics at 0.  The
file is loaded by path: bench/ is not a package.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from degenlab.cli import EXIT_OK, main
from degenlab.solver import cascade_sizes

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, owner, attr", [t[:3] for t in _spans().TARGETS],
                         ids=lambda v: str(v))
def test_every_target_is_patchable(module, owner, attr):
    obj = importlib.import_module(module)
    if owner is not None:
        obj = obj.__dict__[owner]
    assert callable(obj.__dict__.get(attr)), f"{module}.{owner or ''}.{attr}"


def test_a_traced_pipeline_calls_through_every_layer(tmp_path):
    n = 17
    cfg = {
        "problem": {"benchmark": "radial-power", "params": {"theta": 1.0, "d": 1}},
        "grid": {"d": 1, "n": n},
        "scheme": {"tol_solve": 1e-6},
        "modulus": {"C": 1.0, "alpha0": 0.5, "delta": 0.125, "K": 32},
        "lab": {"centers": [[0.0]], "r": 0.5, "N": 1},
        "out": str(tmp_path / "out"),
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    base = ["--config", str(path)]
    field = [*base, "--field", str(tmp_path / "out" / "field.csv")]
    spans = _spans()
    tracer = spans.Tracer()
    # as bench/run.py traces a round: the targets patched, one span per command
    for stage, argv in (("solve", base), ("certify", field), ("build-modulus", base),
                        ("measure", field), ("report", base)):
        with tracer.patched(), tracer.span(f"cli.{stage}"):
            assert main([stage, *argv]) == EXIT_OK
    got = tracer.spans

    def under(parent_name, name):
        """Spans called ``name`` whose parent is a span called ``parent_name``."""
        return [s for s in got if s.name == name and s.parent >= 0
                and got[s.parent].name == parent_name]

    assert len(under("cli.certify", "certifier.certify")) == 2
    assert [s.name for s in got].count("certifier.certify") == 2
    assert len(under("cli.solve", "solver.cascade")) == 1
    levels = under("solver.cascade", "solver.solve")
    assert [s.counts["n"] for s in levels] == cascade_sizes(n) == [9, 17]
    assert [s.name for s in got].count("modulus.build") == 1
    stages = [s.name for s in got if s.parent >= 0 and got[s.parent].name == "modulus.build"]
    assert stages == ["modulus.a_sequence", "modulus.rescale", "modulus.recursion",
                      "modulus.tail"]
    assert under("cli.measure", "lab.decay_scan")
    assert under("lab.decay_scan", "lab.fit")
    metrics = spans.round_metrics(got, 0)
    assert metrics["certifier.candidates"] > 0 and metrics["lab.fits"] > 0
