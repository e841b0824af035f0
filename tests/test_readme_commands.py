"""README's CLI examples parse against the real parser.

Every ``python -m repro ...`` command inside a fenced block of
README.md is handed to ``cli.build_parser()`` -- parse only, nothing
runs -- so a renamed flag, a dropped subcommand or a changed choice
cannot rot the docs unnoticed.  (Running the blocks is the expensive
half of ROADMAP item 8(f); this is the cheap one.)
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
PREFIX = "python -m repro"


def readme_commands():
    """``python -m repro`` command lines from README's fenced blocks:
    ``\\`` continuations joined, ``$ `` prompts and trailing ``# ...``
    comments stripped."""
    commands = []
    fenced = False
    pending = ""
    for raw in README.read_text().splitlines():
        if raw.lstrip().startswith("```"):
            fenced = not fenced
            pending = ""
            continue
        if not fenced:
            continue
        line = pending + raw.strip()
        pending = ""
        if line.endswith("\\"):
            pending = line[:-1].rstrip() + " "
            continue
        line = re.sub(r"^\$\s+", "", line)
        line = re.sub(r"\s+#.*$", "", line)
        if line.startswith(PREFIX):
            commands.append(line)
    return commands


COMMANDS = readme_commands()


def test_readme_still_has_its_cli_blocks():
    # 20 since ``repro trace diff`` (two of the 22 examples) was deleted.
    assert len(COMMANDS) >= 20, COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_parses(command):
    argv = shlex.split(command[len(PREFIX):])
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # argparse reports to stderr, then exits
        pytest.fail(f"README command no longer parses ({exc.code}): "
                    f"{command}")
    assert callable(getattr(args, "func", None)), command
