"""The module walk the AST censuses share.

``tests/test_option_census.py`` (every option is one somebody sets)
and ``tests/test_state_census.py`` (every attribute is one something
reads) scan the same trees: the classes under ``src/repro``, and the
code that could set or read what they declare.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The program's own callers: what runs when nobody runs the tests.
CALLER_DIRS = ("src", "benchmarks", "examples", "wallbench")


def modules(*directories):
    """``(path, tree)`` for every ``.py`` file under ``directories``
    (paths relative to the repository root), in path order."""
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield path, ast.parse(path.read_text())
