"""Benchmark of the degenlab command line: one workload, one seed.

    python3 bench/run.py --workload radial-2d --seed 1 --seconds 30 --trace 0

Run from the repository root.  The run imports ``degenlab.cli`` from
``src/`` once and then calls ``degenlab.cli.main`` in-process with the
argv a user would type, round after round, until ``--seconds`` have
passed (at least one whole round).  Every output is checked against
``checks.py``.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (wall_s,
setup_s, peak_rss_mb; the times scaled to a reference host speed by
``hostspeed.py``); with ``--trace 1`` rounds alternate untraced and
traced, and the metrics are the per-layer figures of the traced rounds
(see README.md).  Spans go to bench/_runs/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import os

# One thread per run: set before numpy loads BLAS or OpenMP.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"
SETUP_SAMPLES = 5
IMPORT_PROBE = (
    "import time, degenlab.cli; t = time.monotonic(); import sys; "
    f"sys.path.append({str(BENCH)!r}); import hostspeed as h; "
    "print(t, h.scale(h.burst(50)))"
)


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setup_probe() -> tuple:
    """(seconds, reference-host seconds) from spawning a fresh interpreter
    until degenlab.cli is imported.

    The interpreter times the host kernel right after the import, so the
    scale comes from the core the import ran on.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    imported, scale = map(float, done.stdout.split())
    seconds = imported - t0
    return seconds, seconds * scale


def _digests(out: Path) -> dict:
    """sha256 of every artifact but manifest.json, which holds timings."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "degenlab" / "cli.py").is_file():
        print(f"bench: no degenlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import degenlab.cli as cli
    import_s = time.perf_counter() - t0

    import hostspeed
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = RUNS / args.workload
    shutil.rmtree(work, ignore_errors=True)
    ops = WORKLOADS[args.workload].build(args.seed, work.relative_to(ROOT))
    probes: list = []
    kernel_samples: list = []

    tracer = Tracer()
    problems: list = []
    attempted = failed = 0
    walls = {False: [], True: []}
    reference = None
    # The set-up probes are spread over the run, between rounds, so that
    # they sample the host at several moments; their time is not counted
    # in the run's --seconds.
    start = time.perf_counter()
    probe_s = 0.0
    rnd = 0
    while (rnd < (2 if args.trace else 1)
           or time.perf_counter() - start - probe_s < args.seconds):
        if not args.trace and len(probes) < SETUP_SAMPLES and (
            time.perf_counter() - start - probe_s >= len(probes) * args.seconds / SETUP_SAMPLES
        ):
            t = time.perf_counter()
            probes.append(_setup_probe())
            probe_s += time.perf_counter() - t
        traced = bool(args.trace) and rnd % 2 == 1
        tracer.round = rnd
        shutil.rmtree(work / "out", ignore_errors=True)
        wall = 0.0
        for op in ops:
            attempted += 1
            sink = io.StringIO()
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(tracer.patched())
                    stack.enter_context(tracer.span(f"cli.{op.stage}"))
                stack.enter_context(contextlib.redirect_stdout(sink))
                stack.enter_context(contextlib.redirect_stderr(sink))
                taken = stack.enter_context(hostspeed.sampling())
                t = time.perf_counter()
                try:
                    code = cli.main(op.argv)
                except Exception:  # a crash is a failed operation; keep going
                    code = None
                    traceback.print_exc()
                wall += time.perf_counter() - t
            kernel_samples += taken
            if code is None:
                print(f"bench: {' '.join(op.argv)} crashed:\n{sink.getvalue()}", file=sys.stderr)
            if code != op.expect:
                failed += 1
                continue
            if op.check is None:
                continue
            try:
                problems += [f"{op.stage}: {p}" for p in op.check()]
            except Exception as exc:  # an unreadable artifact is a wrong output
                problems.append(f"{op.stage}: cannot check its output: {exc!r}")
        digests = _digests(work / "out")
        if reference is None:
            reference = digests
        elif digests != reference:
            problems.append(f"round {rnd} artifacts differ from round 0 "
                            f"({'traced' if traced else 'untraced'})")
        walls[traced].append(wall)
        rnd += 1

    while not args.trace and len(probes) < SETUP_SAMPLES:
        probes.append(_setup_probe())

    if args.trace:
        tracer.write(RUNS / f"trace-{args.workload}-{args.seed}.json")
        traced_rounds = sorted({s.round for s in tracer.spans})
        values = layer_metrics(tracer.spans, traced_rounds)
        values["setup.import_s"] = import_s
        values["cli.artifact_bytes"] = sum(
            p.stat().st_size for p in (work / "out").rglob("*") if p.is_file()
        )
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        )
        values["host.kernel_ms"] = hostspeed.kernel_mean(kernel_samples) * 1e3
        values["host.wall_raw_s"] = statistics.mean(walls[False])
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    else:
        values = {
            "wall_s": statistics.mean(walls[False]) * hostspeed.scale(kernel_samples),
            "setup_s": statistics.median(scaled for _, scaled in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    print(f"bench: {rnd} rounds; command seconds untraced "
          f"{[round(w, 3) for w in walls[False]]}, traced {[round(w, 3) for w in walls[True]]}; "
          f"set-up probes {[round(raw, 3) for raw, _ in probes]}; {len(kernel_samples)} kernel "
          f"samples, mean {hostspeed.kernel_mean(kernel_samples) * 1e3:.5f} ms, "
          f"scale {hostspeed.scale(kernel_samples):.4f}", file=sys.stderr)
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


if __name__ == "__main__":
    sys.exit(main())
