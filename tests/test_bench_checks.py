"""The benchmark's output checks accept what the CLI writes.

bench/checks.py reads ``certificates.json`` and ``summary.json`` on its
own, apart from degenlab.  A change of either layout that those checks
would reject makes this file fail before a benchmark round does.  The
file is loaded by path: bench/ is not a package.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from degenlab.cli import EXIT_CERTIFICATE, EXIT_OK, main

CHECKS = Path(__file__).resolve().parent.parent / "bench" / "checks.py"
N = 33
THETA = 1.0


@pytest.fixture(scope="module")
def ck():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _certify_and_report(ck, tmp_path, planted: bool):
    axis = np.linspace(-1.0, 1.0, N)
    coords = tuple(c.ravel() for c in np.meshgrid(axis, axis, indexing="ij"))
    u = ck.radial_exact(THETA, *coords)
    if planted:
        u = u + 10.0 * ((coords[0] - 0.25) ** 2 + (coords[1] + 0.5) ** 2)
    field = tmp_path / "field.csv"
    rows = (f"{x:.17g},{y:.17g},{v:.17g}" for x, y, v in zip(*coords, u))
    field.write_text("x,y,u\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "problem": {"benchmark": "radial-power", "params": {"theta": THETA, "d": 2}},
        "grid": {"d": 2, "n": N},
        "out": str(out),
    }))
    code = main(["certify", "--config", str(cfg), "--field", str(field)])
    assert main(["report", "--config", str(cfg)]) == EXIT_OK
    return code, out


@pytest.mark.parametrize("planted, expect", [(False, EXIT_OK), (True, EXIT_CERTIFICATE)])
def test_certificate_and_report_pass_the_benchmark_checks(ck, tmp_path, planted, expect):
    code, out = _certify_and_report(ck, tmp_path, planted)
    assert code == expect
    cert = ck.read_json(out / "certificates.json")
    assert ck.check_certificate(cert, code, expect_pass=not planted) == []
    # the check can fail: the other verdict is rejected
    assert ck.check_certificate(cert, code, expect_pass=planted) != []
    artifacts = {p.name: ck.read_json(p) for p in sorted(out.glob("*.json"))
                 if p.name not in ("summary.json", "manifest.json")}
    assert ck.check_report(ck.read_json(out / "summary.json"), artifacts) == []
