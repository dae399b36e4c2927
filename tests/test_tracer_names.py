"""The benchmark's tracer wraps rainbow_hcd functions by name.

perfbench/tracer.py lists them in WRAPPED as (module, attribute, span
name), with the module given relative to rainbow_hcd and possibly
dotted into a class.  A change that deletes or renames one of them
breaks the benchmark, so it fails here too.  perfbench/run.py derives
per-layer counters from how often some of them are called, which must
stay what the counters say.

A module keeps an import only the tracer looks up by marking it
# noqa: F401; any other imported name that a module of the package or of
the tests never uses fails here.
"""

import ast
import importlib
import importlib.util
import json
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from rainbow_hcd.families import cycle_graph, disjoint_union, path_graph

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_wrapped_name_resolves(run_python):
    # a fresh interpreter, so no earlier test's patching can hide a name
    code = """
        import importlib
        import importlib.util
        import json
        import os

        spec = importlib.util.spec_from_file_location("tracer", os.environ["TRACER"])
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
    """
    count, missing = json.loads(run_python(code, TRACER=str(TRACER))[-1])
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


def imported_names(source):
    """(line, name, marked) of each name the source imports, leaving out
    __future__ imports; marked when its line is marked # noqa: F401."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            marks = (lines[node.lineno - 1], lines[alias.lineno - 1])
            marked = any("# noqa: F401" in line for line in marks)
            name = alias.asname or alias.name.split(".")[0]
            found.append((alias.lineno, name, marked))
    return found


def unused_imports(source):
    """(line, name) of each name the source imports and never uses, leaving
    out __future__ imports and lines marked # noqa: F401.  A name counts
    as used where it is read, or listed in __all__."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        (line, name)
        for line, name, marked in imported_names(source)
        if not marked and name not in used
    ]


def test_unused_imports_finds_what_is_never_read():
    source = textwrap.dedent("""
        from __future__ import annotations
        import os
        import os.path
        import sys  # noqa: F401
        from json import (  # noqa: F401
            dumps,
        )
        from a import b as c, d
        __all__ = ["d"]
        print(c, os.sep)
    """)
    assert unused_imports(source) == []
    assert unused_imports(source.replace("os.sep", "1")) == [(3, "os"), (4, "os")]
    assert [(name, marked) for _, name, marked in imported_names(source)] == [
        ("os", False), ("os", False), ("sys", True), ("dumps", True),
        ("c", False), ("d", False),
    ]


def test_tracer_only_imports_are_wrapped():
    # a module of the package imports a name it never reads only for the
    # tracer to wrap it there; once the tracer stops looking it up there,
    # the import fails here and goes
    wrapped = {(mod, attr) for mod, attr, _ in load_tracer().WRAPPED}
    marked = [
        (path.stem, name)
        for path in sorted((ROOT / "src" / "rainbow_hcd").glob("*.py"))
        for _, name, mark in imported_names(path.read_text())
        if mark
    ]
    unwrapped = [f"{mod}.{name}" for mod, name in marked if (mod, name) not in wrapped]
    assert unwrapped == []


def test_every_imported_name_is_used():
    modules = sorted((ROOT / "src" / "rainbow_hcd").glob("*.py"))
    modules += sorted((ROOT / "tests").glob("*.py"))
    unused = {
        str(path.relative_to(ROOT)): found
        for path in modules
        if (found := unused_imports(path.read_text()))
    }
    assert len(modules) > 20
    assert unused == {}
