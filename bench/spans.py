"""Spans around calls into degenlab's public functions, and the per-layer
metrics derived from them.

The tracer wraps module and class attributes only while a traced round
runs and puts the originals back afterwards, so degenlab itself is not
changed and untraced rounds run the program as shipped.  Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    round: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_counts(args, kwargs, result):
    u, diag = result
    grid = u.grid
    return {"n": grid.n, "iterations": diag.iterations, "nodes": (grid.n - 2) ** grid.d}


def _cert_counts(args, kwargs, rep):
    return {"candidates": rep.tested_candidates, "nodes": rep.checked_nodes}


def _fit_counts(args, kwargs, fit):
    return {"nodes": fit.n_nodes}


def _cascade_counts(args, kwargs, result):
    return {"n": result[0].grid.n}


def _inverse_counts(args, kwargs, result):
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["s"]))}


# (module, attribute owner, attribute, span name, counts of the call).
# degenlab.cli binds the names it imports, so a function called both from
# the CLI and inside its own module (solve) is wrapped in both places.
TARGETS = (
    ("degenlab.cli", None, "read_field", "cli.field_read", None),
    ("degenlab.cli", None, "write_field", "cli.field_write", None),
    ("degenlab.cli", None, "solve", "solver.solve", _solve_counts),
    ("degenlab.cli", None, "solve_cascade", "solver.cascade", _cascade_counts),
    ("degenlab.solver", None, "solve", "solver.solve", _solve_counts),
    ("degenlab.cli", None, "certify_min", "certifier.certify", _cert_counts),
    ("degenlab.cli", None, "certify_max", "certifier.certify", _cert_counts),
    ("degenlab.cli", None, "build_modulus", "modulus.build", None),
    ("degenlab.modulus", None, "a_sequence", "modulus.a_sequence", None),
    ("degenlab.modulus", None, "rescale_sequence", "modulus.rescale", None),
    ("degenlab.modulus", None, "mu_recursion", "modulus.recursion", None),
    ("degenlab.modulus", None, "certified_tail", "modulus.tail", None),
    ("degenlab.cli", None, "decay_scan", "lab.decay_scan", None),
    ("degenlab.lab", None, "best_affine", "lab.fit", _fit_counts),
    ("degenlab.laws", "DegeneracyLaw", "inverse", "laws.inverse", _inverse_counts),
    ("degenlab.laws", "PowerLaw", "inverse", "laws.inverse", _inverse_counts),
    ("degenlab.laws", "ExponentialFlatLaw", "inverse", "laws.inverse", _inverse_counts),
    ("degenlab.laws", "TabulatedLaw", "inverse", "laws.inverse", _inverse_counts),
    ("degenlab.laws", "ScaledLaw", "inverse", "laws.inverse", _inverse_counts),
)

CLI_STAGES = ("solve", "certify", "build-modulus", "measure", "report")


class Tracer:
    """In-memory span recorder with a patch context for degenlab's calls."""

    def __init__(self):
        self.spans: list = []
        self.round = 0
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a block; yields the Span."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.round)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, counts):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module, owner, attr, name, counts in TARGETS:
                obj = importlib.import_module(module)
                if owner is not None:
                    obj = getattr(obj, owner)
                original = obj.__dict__[attr]
                saved.append((obj, attr, original))
                setattr(obj, attr, self._wrap(original, name, counts))
            yield
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")


def _outermost(spans: list, name: str) -> list:
    """Spans of one name that have no ancestor of the same name."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def round_metrics(all_spans: list, rnd: int) -> dict:
    """Per-layer figures of one traced round.

    A ``*_s`` figure is the time inside the outermost spans of its layer;
    ``cli.self_s`` is the time of the command spans not covered by a
    child span.
    """
    spans = [s for s in all_spans if s.round == rnd]
    child_time: dict = {}
    for s in spans:
        child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in _outermost(all_spans, name) if s.round == rnd)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    m = {}
    for stage in CLI_STAGES:
        m[f"cli.{stage.replace('-', '_')}_s"] = total(f"cli.{stage}")
    m["cli.self_s"] = sum(
        s.duration - child_time.get(i, 0.0)
        for i, s in enumerate(all_spans)
        if s.round == rnd and s.parent < 0
    )
    m["cli.field_read_s"] = total("cli.field_read")
    m["cli.field_write_s"] = total("cli.field_write")

    # solver.solve runs either straight from the CLI or once per cascade
    # level; the finest level is the one the command asked for.
    solves = named("solver.solve")
    top = named("solver.cascade") + [s for s in solves if all_spans[s.parent].parent < 0]
    finest = {s.counts["n"] for s in top}
    m["solver.solve_s"] = sum(s.duration for s in top)
    m["solver.iterations"] = sum(s.counts["iterations"] for s in solves)
    m["solver.iterations_finest"] = sum(
        s.counts["iterations"] for s in solves if s.counts["n"] in finest
    )
    m["solver.ns_per_node_iter"] = ratio(
        sum(s.duration for s in solves),
        sum(s.counts["iterations"] * s.counts["nodes"] for s in solves),
        1e9,
    )

    certs = named("certifier.certify")
    m["certifier.certify_s"] = sum(s.duration for s in certs)
    m["certifier.candidates"] = sum(s.counts["candidates"] for s in certs)
    m["certifier.ns_per_node_candidate"] = ratio(
        m["certifier.certify_s"],
        sum(s.counts["candidates"] * s.counts["nodes"] for s in certs),
        1e9,
    )

    m["modulus.build_s"] = total("modulus.build")
    m["modulus.builds"] = len(named("modulus.build"))
    m["modulus.a_sequence_s"] = total("modulus.a_sequence")
    m["modulus.rescale_s"] = total("modulus.rescale")
    m["modulus.recursion_s"] = total("modulus.recursion")
    m["modulus.tail_s"] = total("modulus.tail")

    inverses = [s for s in _outermost(all_spans, "laws.inverse") if s.round == rnd]
    m["laws.inverse_s"] = sum(s.duration for s in inverses)
    m["laws.inverse_points"] = sum(s.counts["points"] for s in inverses)
    m["laws.ns_per_inverse_point"] = ratio(m["laws.inverse_s"], m["laws.inverse_points"], 1e9)

    fits = named("lab.fit")
    m["lab.decay_scan_s"] = total("lab.decay_scan")
    m["lab.fits"] = len(fits)
    m["lab.ms_per_fit"] = ratio(sum(s.duration for s in fits), len(fits), 1e3)
    m["lab.fit_nodes"] = sum(s.counts["nodes"] for s in fits)
    return m


def layer_metrics(spans: list, rounds: list) -> dict:
    """Median over the traced rounds of each per-layer figure."""
    per_round = [round_metrics(spans, r) for r in rounds]
    return {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
