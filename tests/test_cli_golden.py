"""The CLI's exact stdout: what rebuilding its stacks must keep.

``tests/data/cli_golden.json`` was recorded on the commit *before* the
CLI's hand-assembled stacks were replaced by ``repro.stack`` (the nine
seed-0 commands), the next four before its run loops were replaced
by ``repro.scenario``, and the last three before ``repro.debug``'s
record/replay did the same.  It maps
each command line below to the stdout of ``repro.cli.main`` run
in-process from fresh xid and packet-id counters (ids are
varint-encoded, so their magnitude reaches wire sizes and through them
sim instants).  A ticket's ``--- stack trace ---`` block is cut out:
its frames are formatted differently across CPython versions.  Never
regenerate the golden to make a change pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

from repro.cli import main
from repro.network.packet import reset_packet_ids
from repro.openflow.messages import reset_xid_counter

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

COMMANDS = (
    "demo",
    "drill --duration 4",
    "drill --runtime monolithic --duration 4",
    "replicate --duration 3",
    "shard --size 6 --shards 3 --duration 3 --kill-shard 1",
    "chaos --sweep 0,0.2 --duration 3",
    "byzantine --size 4 --sweep 0,0.3 --duration 3",
    "trace --size 3",
    "trace critical-path --duration 3 --size 4",
    # Recorded later, before the CLI's run loops became scenario steps.
    # The first is the one run found whose stdout tells a kill applied
    # after the events already due at its instant (the order these
    # commands always had) from one applied before them.
    "shard --size 6 --shards 3 --duration 5 --kill-shard 2 --seed 2",
    "replicate --seed 3 --backups 2 --size 4",
    "drill --seed 2 --duration 7 --topology ring --size 4",
    "chaos --seed 2 --sweep 0.1,0.3 --partition 2.0:0.5 --duration 4",
    # Recorded before the debug loop's record/replay became scenario
    # steps: the planted crash at two settings, and every bug kind of
    # the corpus (hangs included) under every adversity cell.
    "minimize",
    "minimize --seed 3 --loss 0.3 --noise 6",
    "corpus --preset full",
)


def without_stack_traces(text: str) -> str:
    """``text`` minus every ``--- stack trace ---`` section (up to the
    next ``--- `` header or the end of the ticket)."""
    kept, skipping = [], False
    for line in text.splitlines():
        if line.startswith("--- "):
            skipping = line == "--- stack trace ---"
        if not skipping:
            kept.append(line)
    return "\n".join(kept) + "\n"


def run(command: str) -> dict:
    reset_xid_counter()
    reset_packet_ids()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    return {"exit": code, "stdout": without_stack_traces(out.getvalue())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_stdout_is_unchanged(golden, command):
    assert run(command) == golden[command]
