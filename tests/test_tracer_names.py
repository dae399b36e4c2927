"""The benchmark's tracer wraps rainbow_hcd functions by name.

perfbench/tracer.py lists them in WRAPPED as (module, attribute, span
name), with the module given relative to rainbow_hcd and possibly
dotted into a class.  A change that deletes or renames one of them
breaks the benchmark, so it fails here too.  perfbench/run.py derives
per-layer counters from how often some of them are called, which must
stay what the counters say.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import rainbow_hcd
from rainbow_hcd.families import cycle_graph, disjoint_union, path_graph

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_wrapped_name_resolves():
    # a fresh interpreter, so no earlier test's patching can hide a name
    code = textwrap.dedent("""
        import importlib
        import importlib.util
        import json
        import sys

        spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        missing = []
        for mod, attr, _ in tracer.WRAPPED:
            root, *inner = mod.split(".")
            owner = importlib.import_module(f"rainbow_hcd.{root}")
            try:
                for part in inner:
                    owner = getattr(owner, part)
                if not callable(getattr(owner, attr)):
                    missing.append(f"{mod}.{attr} is not callable")
            except AttributeError:
                missing.append(f"{mod}.{attr}")
        print(json.dumps([len(tracer.WRAPPED), missing]))
    """)
    src = Path(rainbow_hcd.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code, str(TRACER)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    count, missing = json.loads(out.stdout.splitlines()[-1])
    assert count > 0
    assert missing == []


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("n", [6, 9, 14])
def test_counted_calls_match_the_pipeline(n):
    # perfbench/run.py counts attach rounds as capacity_graph calls and
    # witness checks as _witness_ok calls; C3 + (n - 3)K2 runs one round
    # per single edge, n - t of them, from the direct embed of K_3, and
    # then one Hilton step per vertex from order 3 + 2(n - t) to 2n
    tracer = load_tracer()
    modules = {
        root: importlib.import_module(f"rainbow_hcd.{root}")
        for root in {mod.split(".")[0] for mod, _, _ in tracer.WRAPPED}
    }
    traced = tracer.Tracer(modules)
    with traced.installed(0):
        cert = modules["solver"].solve(
            disjoint_union(cycle_graph(3), *[path_graph(1)] * (n - 3)), seed=0
        )
    assert cert.trace[0] == "route: pipeline"
    calls = Counter(span[0] for span in traced.spans)
    t = 3
    assert calls["extend_sparse.capacity_graph"] == n - t
    assert calls["extend_sparse._witness_ok"] == n - t
    assert calls["hilton.single_vertex_step"] == 2 * n - (3 + 2 * (n - t))
