"""README's CLI examples parse against the real parser.

Every ``python -m repro ...`` command inside a fenced block of
README.md is handed to ``cli.build_parser()`` -- parse only, nothing
runs -- so a renamed flag, a dropped subcommand or a changed choice
cannot rot the docs unnoticed.  This is the cheap half; the census,
``benchmarks/reach.py``, executes every one that finishes in seconds.
"""

import importlib.util
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "reach", ROOT / "benchmarks" / "reach.py")
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

PREFIX = reach.README_PREFIX
COMMANDS = reach.readme_commands()


def test_readme_still_has_its_cli_blocks():
    # 16 since ``bug-study``, ``show-topology`` and ``trace tree`` (four
    # of the 20 examples) were deleted.
    assert len(COMMANDS) >= 16, COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_parses(command):
    argv = shlex.split(command[len(PREFIX):])
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # argparse reports to stderr, then exits
        pytest.fail(f"README command no longer parses ({exc.code}): "
                    f"{command}")
    assert callable(getattr(args, "func", None)), command
