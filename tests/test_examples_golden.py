"""The five examples' exact stdout: what changing how they run must keep.

``tests/data/examples_golden.json`` maps each script under
``examples/`` to its exit code and stdout, each run in a fresh
interpreter (so xid and packet-id counters start from zero), with a
ticket's ``--- stack trace ---`` block cut as in the CLI golden.  It
was recorded before the examples' fault timelines moved onto
``repro.scenario``.  Never regenerate it to make a change pass.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from test_cli_golden import without_stack_traces

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "data" / "examples_golden.json"
EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py"))


def run(name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "examples" / name)],
                          env=env, capture_output=True, text=True,
                          check=False)
    return {"exit": done.returncode,
            "stdout": without_stack_traces(done.stdout)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_example(golden):
    assert sorted(golden) == EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_stdout_is_unchanged(golden, name):
    assert run(name) == golden[name]
