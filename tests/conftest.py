"""Fixtures shared by the tier-1 suite.

They live here, not in a helper module, because pytest rewrites the
asserts of conftest modules, so they still check under python -O.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rainbow_hcd

SRC = str(Path(rainbow_hcd.__file__).resolve().parents[1])


def _run_python(code, *flags, **env):
    out = subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(code)],
        env={**os.environ, **env, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def _run_optimized(code):
    lines = _run_python("print(__debug__)\n" + textwrap.dedent(code), "-O")
    assert lines[0] == "False"
    return lines[1:]


@pytest.fixture
def run_python():
    """run_python(code, *flags, **env): the standard output lines of code,
    dedented, run by a new python with flags on this checkout's src, with
    env added to the environment; the run must exit 0."""
    return _run_python


@pytest.fixture
def run_optimized():
    """run_optimized(code): the standard output lines of code run by
    python -O, which strips asserts; the run checks first that
    __debug__ is False."""
    return _run_optimized
