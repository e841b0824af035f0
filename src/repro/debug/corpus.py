"""The chaos-correlated bug corpus: E1 bugs x network adversity.

Each cell of the grid runs one catastrophic bug from the E1 corpus
(:func:`repro.faults.make_bug_corpus`) under one seeded
:class:`~repro.faults.netfaults.ChaosProfile` (loss x reorder x
corruption on the proxy<->stub channel) through the full recorded
stack, and aggregates the Crash-Pad policy outcome: what failed, how
it was classified, what the recovery decision was, and -- because the
run was recorded -- how short the failure minimizes.  The aggregate
is committed as ``CORPUS_PR10.json`` and regenerated byte-identically
by ``repro corpus --preset smoke --check`` in CI, so a behaviour
change in any layer (detector, chaos plane, Crash-Pad, minimizer)
shows up as a corpus diff, not a silent drift.

Known trigger lengths (the E21 bound): a crash / hang / byzantine bug
fires on the marker event alone (1); state corruption needs the marker
plus the next event the poisoned app handles (2).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Sequence, Tuple

from repro.core.runtime import RuntimeConfig
from repro.debug.minimize import MinimizationError, minimize_failure
from repro.debug.replay import FLIGHT_CAPACITY, ReplayHarness
from repro.faults.bugs import Bug, BugKind, make_bug_corpus
from repro.network.topology import linear_topology
from repro.record import record
from repro.scenario import Step
from repro.stack import StackSpec

#: Events a bug's failure inherently needs: the marker event, plus one
#: follow-up for the deferred state-corruption crash.
TRIGGER_LENGTHS = {
    BugKind.CRASH: 1,
    BugKind.HANG: 1,
    BugKind.BYZANTINE_LOOP: 1,
    BugKind.BYZANTINE_BLACKHOLE: 1,
    BugKind.STATE_CORRUPTION: 2,
}


@record
class CorpusPreset:
    """One corpus configuration: which bug kinds, which adversity grid."""

    name: str
    bug_kinds: Tuple[BugKind, ...]
    #: Adversity cells as ChaosProfile kwargs ({} = clean network).
    grid: Tuple[Dict[str, float], ...]
    corpus_size: int = 60


SMOKE_GRID = (
    {},
    {"loss": 0.2, "reorder": 0.1, "corrupt": 0.01},
)

FULL_GRID = (
    {},
    {"loss": 0.1},
    {"loss": 0.2, "reorder": 0.1},
    {"loss": 0.2, "reorder": 0.1, "corrupt": 0.01},
)

CORPUS_PRESETS = {
    "smoke": CorpusPreset(
        name="smoke",
        bug_kinds=(BugKind.CRASH, BugKind.STATE_CORRUPTION),
        grid=SMOKE_GRID,
    ),
    "full": CorpusPreset(
        name="full",
        bug_kinds=(BugKind.CRASH, BugKind.HANG, BugKind.BYZANTINE_LOOP,
                   BugKind.BYZANTINE_BLACKHOLE, BugKind.STATE_CORRUPTION),
        grid=FULL_GRID,
    ),
}


def _pick_bugs(preset: CorpusPreset, seed: int) -> List[Bug]:
    """The first corpus bug of each requested kind, in kind order."""
    corpus = make_bug_corpus(n=preset.corpus_size, seed=seed)
    picked = []
    for kind in preset.bug_kinds:
        bug = next((b for b in corpus if b.kind == kind), None)
        if bug is None:
            raise ValueError(f"corpus has no bug of kind {kind.value}")
        picked.append(bug)
    return picked


def _cell_harness(bug: Bug, cell: Dict[str, float],
                  seed: int) -> ReplayHarness:
    from repro.apps import LearningSwitch
    from repro.faults.injector import FaultyApp

    # fired_count is mutable bookkeeping; every run gets a pristine bug.
    fresh = dataclasses.replace(bug, fired_count=0)
    # learn_hosts: the byzantine invariant checker probes *learned*
    # hosts, so warmup must teach the controller the topology before
    # the bug fires (cf. E12's pre-injection reachability pass).
    return ReplayHarness(StackSpec(
        topology=linear_topology(3, 1), seed=seed,
        apps=(lambda: FaultyApp(LearningSwitch(), [fresh], seed=seed),),
        runtime=RuntimeConfig(byzantine_check=True),
        telemetry={"flight_capacity": FLIGHT_CAPACITY},
        chaos=cell or None), learn_hosts=True)


def _run_cell(bug: Bug, cell: Dict[str, float], seed: int) -> dict:
    harness = _cell_harness(bug, cell, seed)
    hosts = sorted(host.name for host in harness.spec.topology.hosts)
    # The marker event, then one plain follow-up on a distinct host pair
    # (it must punt even if the marker's flow installed) so deferred
    # state-corruption crashes have an event to fire on.
    b = harness.base
    recording = harness.record([
        Step(b, "marker_packet", {"src": hosts[0], "dst": hosts[1],
                                  "marker": bug.payload_marker}),
        Step(b + 0.4, "marker_packet", {"src": hosts[-1], "dst": hosts[0],
                                        "marker": "PLAIN-FOLLOWUP"}),
    ], until=(b + 0.4) + 0.4)
    runtime = recording.stack.runtime
    stats = runtime.stats()
    outcome = {
        "signature": recording.signature.to_dict(),
        "tickets": len(runtime.tickets),
        "recovery_policy": (recording.ticket.recovery_policy
                            if recording.ticket else ""),
        "crashes": sum(s["crashes"] for s in stats.values()),
        "recoveries": sum(s["recoveries"] for s in stats.values()),
        "controller_up": runtime.is_up,
        "events_captured": len(recording.events),
    }
    trigger_len = TRIGGER_LENGTHS.get(bug.kind)
    if recording.signature.failed:
        try:
            repro = minimize_failure(recording, harness, attach=True)
        except MinimizationError as exc:
            # The recording does not replay to its own signature: report
            # both, and leave the cell unminimized.
            outcome["replayed_signature"] = exc.replayed.to_dict()
        else:
            outcome["minimized_length"] = len(repro)
            outcome["minimize_probes"] = repro.probes
    return {
        "bug": bug.bug_id,
        "kind": bug.kind.value,
        "marker": bug.payload_marker,
        "deterministic": bug.deterministic,
        "adversity": {k: cell[k] for k in sorted(cell)},
        "trigger_length": trigger_len,
        "outcome": outcome,
    }


def run_corpus(preset: str = "smoke", seed: int = 0, log=None) -> dict:
    """Run a full (bug x adversity) grid, minimizing every failure;
    returns the corpus document."""
    spec = CORPUS_PRESETS[preset]
    cells = []
    for bug in _pick_bugs(spec, seed):
        for cell in spec.grid:
            if log:
                adversity = ", ".join(f"{k}={v:g}" for k, v in
                                      sorted(cell.items())) or "clean"
                log(f"corpus: {bug.bug_id} ({bug.kind.value}) "
                    f"under {adversity}")
            cells.append(_run_cell(bug, cell, seed))
    return {
        "version": 1,
        "preset": preset,
        "seed": seed,
        "grid": [dict(g) for g in spec.grid],
        "cells": cells,
    }


def corpus_json(doc: dict) -> str:
    """The canonical byte-stable rendering of a corpus document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def check_corpus(doc: dict, path: str) -> Tuple[bool, List[str]]:
    """Byte-compare a regenerated document against the committed file."""
    with open(path) as fh:
        committed_text = fh.read()
    regenerated_text = corpus_json(doc)
    if regenerated_text == committed_text:
        return True, [f"corpus matches {path} byte-for-byte "
                      f"({len(doc['cells'])} cells)"]
    problems = []
    try:
        committed = json.loads(committed_text)
    except ValueError:
        return False, [f"{path} is not valid JSON"]
    for key in ("preset", "seed", "version"):
        if committed.get(key) != doc.get(key):
            problems.append(f"{key}: committed {committed.get(key)!r} "
                            f"!= regenerated {doc.get(key)!r}")
    committed_cells = {(c["bug"], json.dumps(c["adversity"], sort_keys=True)):
                       c for c in committed.get("cells", [])}
    for cell in doc["cells"]:
        key = (cell["bug"], json.dumps(cell["adversity"], sort_keys=True))
        old = committed_cells.pop(key, None)
        if old is None:
            problems.append(f"cell {key} missing from committed corpus")
        elif old != cell:
            problems.append(f"cell {key} drifted")
    for key in committed_cells:
        problems.append(f"cell {key} no longer produced")
    if not problems:
        problems.append("formatting drift (semantic content matches)")
    return False, problems
