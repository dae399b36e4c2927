"""The benchmark's tracer wraps rainbow_hcd functions by name.

perfbench/tracer.py lists them in WRAPPED as (module, attribute, span
name), with the module given relative to rainbow_hcd and possibly
dotted into a class.  A change that deletes or renames one of them
breaks the benchmark, so it fails here too.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import rainbow_hcd

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
