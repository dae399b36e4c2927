"""Spans recorded from outside the program.

The tracer swaps selected module attributes of rainbow_hcd for timing
wrappers while it is installed, and puts the originals back afterwards,
so untraced solves run the unmodified code.  Each function is wrapped at
the name its caller looks it up by: solver calls embed_dense through
solver.embed_dense, extend_sparse calls the colourings through its own
imported names, and so on.  The solver recurses through its module
global solve, so recursive solves are spans too.

A span is [name, start, end, parent index, instance id].  Spans stay in
memory; write_spans stores them when the run ends.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, attribute, span name); attributes looked up by the caller
WRAPPED = [
    ("solver", "solve", "solver.solve"),
    ("solver", "embed_dense", "embed_dense.embed_dense"),
    ("solver", "extend_with_k2s", "extend_sparse.extend_with_k2s"),
    ("solver", "extend_to_hcd", "hilton.extend_to_hcd"),
    ("solver", "verify_certificate", "graph_core.verify_certificate"),
    ("solver", "analyze_linear_forest", "graph_core.analyze_linear_forest"),
    ("embed_dense", "analyze_linear_forest", "graph_core.analyze_linear_forest"),
    ("extend_sparse", "analyze_linear_forest", "graph_core.analyze_linear_forest"),
    ("extend_sparse", "balanced_k_coloring", "coloring.balanced_k_coloring"),
    ("extend_sparse", "paired_balanced_2_coloring",
     "coloring.paired_balanced_2_coloring"),
    ("extend_sparse", "rebalance_drop_one", "coloring.rebalance_drop_one"),
    ("extend_sparse", "capacity_graph", "extend_sparse.capacity_graph"),
    ("extend_sparse", "_witness_ok", "extend_sparse._witness_ok"),
    ("hilton", "analyze_linear_forest", "graph_core.analyze_linear_forest"),
    ("hilton", "single_vertex_step", "hilton.single_vertex_step"),
    ("hilton._Dinic", "max_flow", "hilton.max_flow"),
    ("files", "certificate_to_text", "files.certificate_to_text"),
    ("files", "certificate_from_text", "files.certificate_from_text"),
    ("graph_core", "verify_certificate", "graph_core.verify_certificate"),
]


class Tracer:
    """Collects spans for the instances solved while it is installed."""

    def __init__(self, modules: dict[str, object]):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._instance: int | None = None
        self._targets = []
        for mod, attr, name in WRAPPED:
            owner = modules[mod.split(".")[0]]
            for part in mod.split(".")[1:]:
                owner = getattr(owner, part)
            self._targets.append((owner, attr, name, getattr(owner, attr)))

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0,
                    stack[-1] if stack else -1, self._instance]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, instance: int):
        """Trace everything called inside the block as one instance."""
        self._instance = instance
        for owner, attr, name, fn in self._targets:
            setattr(owner, attr, self._wrap(fn, name))
        try:
            yield
        finally:
            for owner, attr, _, fn in self._targets:
                setattr(owner, attr, fn)
            self._instance = None


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def write_spans(spans: list[list], path: Path) -> None:
    """One JSON array per span: name, start, end, parent, instance."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for s in spans:
            out.write(json.dumps(s) + "\n")
