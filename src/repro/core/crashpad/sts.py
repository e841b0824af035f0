"""Minimal causal sequences for multi-event failures (§5).

"Currently, LegoSDN can easily overcome failure induced by the most
recently processed event.  If the failure is induced as a cumulation
of events, we plan on extending LegoSDN to read a history of snapshots
(or checkpoints of the SDN-App) and use techniques like STS [28] to
detect the exact set of events that induced the crash.  STS allows us
to determine which checkpoint to roll back the application to."

This module implements that extension: given a base checkpoint, the
journalled events delivered since it, and a final event that crashed
the app, :func:`find_minimal_causal_sequence` delta-debugs (ddmin) the
event history against a *scratch replica* of the app.  The replica is
loaded with a fresh copy of the checkpoint's state
(:meth:`~repro.core.crashpad.checkpoint.CheckpointStore.state`) for
every probe run, so the search never touches the live app, the network
(probe runs suppress output by constructing the replica without an
API) or another probe's state.  :func:`ddmin` itself lives here, once;
:mod:`repro.debug.minimize` runs the same function over whole captured
runs.

The result tells Crash-Pad two things:

- the **minimal event subset** that reproduces the crash (for the
  problem ticket -- this is STS's contribution to triage); and
- the **safe rollback point**: the latest checkpoint whose replay
  (with the culprit events excluded) no longer crashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.controller.api import AppAPI, TopoView


class _NullAPI(AppAPI):
    """Swallows everything a probe replica tries to do.

    Probe replays must not emit, log, or read live controller state --
    they are thought experiments over checkpointed app state.
    """

    def now(self):
        return 0.0

    def emit(self, dpid, msg):
        pass

    def topology(self):
        return TopoView()

    def host_location(self, mac):
        return None

    def hosts(self):
        return {}

    def switches(self):
        return ()

    def log(self, text):
        pass

    def counter_inc(self, name, delta=1):
        pass


@dataclass
class CausalSequenceResult:
    """Outcome of a minimal-causal-sequence search."""

    #: (seq, event) pairs forming the minimal crash-inducing history,
    #: in delivery order.  Always ends with the final (offending) event.
    minimal_events: List[Tuple[int, object]]
    #: Number of replica replays the search spent.
    probe_runs: int
    #: True when the final event alone reproduces the crash (the common
    #: deterministic case Crash-Pad already handles).
    single_event: bool = False

    @property
    def culprit_seqs(self) -> List[int]:
        return [seq for seq, _ in self.minimal_events]


class _Replica:
    """A scratch copy of the app, rebuilt from a checkpoint's state."""

    def __init__(self, app_factory: Callable, load: Callable[[], dict]):
        self.app_factory = app_factory
        self.load = load

    def crashes_on(self, events: Sequence[object]) -> bool:
        """Replay ``events`` on a fresh replica; True if any crashes it."""
        app = self.app_factory()
        app.startup(_NullAPI())
        app.set_state(self.load())
        for event in events:
            try:
                app.handle(event)
            except Exception:  # noqa: BLE001 - the probe IS the experiment
                return True
        return False


def ddmin(items: Sequence, test: Callable[[list], bool]) -> list:
    """Zeller's ddmin: a 1-minimal sublist of ``items`` passing ``test``.

    ``test`` must hold for ``items`` itself.  Subsets preserve the
    original relative order (event sequences are order-sensitive).
    The algorithm is fully deterministic: chunk boundaries depend only
    on lengths, never on randomness.
    """
    items = list(items)
    if not test(items):
        raise ValueError("test must hold for the full input")
    granularity = 2
    while len(items) >= 2:
        size = len(items) / granularity
        chunks = [items[round(i * size):round((i + 1) * size)]
                  for i in range(granularity)]
        reduced = False
        for chunk in chunks:
            if len(chunk) < len(items) and chunk and test(chunk):
                items = chunk
                granularity = 2
                reduced = True
                break
        if not reduced:
            for i in range(granularity):
                complement = [x for chunk in chunks[:i] for x in chunk] + \
                             [x for chunk in chunks[i + 1:] for x in chunk]
                if complement and len(complement) < len(items) \
                        and test(complement):
                    items = complement
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items


def find_minimal_causal_sequence(
    app_factory: Callable,
    load: Callable[[], dict],
    history: Sequence[Tuple[int, object]],
    offending: Tuple[int, object],
    max_probes: int = 256,
) -> CausalSequenceResult:
    """Delta-debug the event history down to a minimal crashing subset.

    ``load`` returns a fresh copy of the base checkpoint's state on
    every call (``partial(store.state, checkpoint)``); ``history`` is
    the (seq, event) list delivered after that checkpoint was taken, in
    order, *excluding* the offending event, which is passed separately
    (it is always retained -- the crash happened while handling it).

    ``app_factory`` must build an app object whose ``set_state`` can
    load the checkpoint (for wrapped apps, pass the same wrapping used
    at launch).  ``max_probes`` bounds the replays spent, the two
    initial checks included: once it is reached every probe not seen
    before answers "does not reproduce" without running, so
    :func:`ddmin` stops reducing and returns what it has.
    """
    replica = _Replica(app_factory, load)
    verdicts: Dict[tuple, bool] = {}    # one replay per distinct subset

    def crashes(prefix: Sequence[Tuple[int, object]]) -> bool:
        key = tuple(seq for seq, _ in prefix)
        if key not in verdicts:
            if len(verdicts) >= max_probes:
                return False
            verdicts[key] = replica.crashes_on(
                [event for _, event in prefix] + [offending[1]])
        return verdicts[key]

    # Fast path: the offending event alone reproduces the crash.
    if crashes([]):
        return CausalSequenceResult(
            minimal_events=[offending], probe_runs=1, single_event=True)
    # Sanity: the full history must reproduce it, else the bug is
    # non-deterministic (or environment-dependent) and minimisation is
    # meaningless -- report the whole history.
    minimal = list(history)
    if crashes(minimal):
        minimal = ddmin(minimal, crashes)
    return CausalSequenceResult(
        minimal_events=minimal + [offending], probe_runs=len(verdicts))


def pick_rollback_checkpoint(
    app_factory: Callable,
    checkpoints: Sequence[Tuple[int, Callable[[], dict]]],
    journal_events: Sequence[Tuple[int, object]],
    offending: Tuple[int, object],
    culprit_seqs: Sequence[int],
) -> Optional[int]:
    """Which checkpoint can the app safely roll back to?

    ``checkpoints`` are (before_seq, state loader) pairs, oldest first;
    ``offending`` is the (seq, event) the app last crashed on.  A
    checkpoint is *safe* when replaying the journalled events after it
    -- minus the culprits -- and then the offending event as a canary
    does not crash the replica.  The canary matters: a checkpoint whose
    *state* is already poisoned replays clean (the poison is latent)
    but still dies on the next triggering event, so replay-cleanliness
    alone would keep picking it.  Returns the ``before_seq`` of the
    newest safe checkpoint, or None when even the oldest is poisoned
    (operator escalation).
    """
    offending_seq, offending_event = offending
    excluded = set(culprit_seqs) | {offending_seq}
    for before_seq, load in sorted(checkpoints, key=lambda c: -c[0]):
        replay = [event for seq, event in journal_events
                  if before_seq <= seq < offending_seq
                  and seq not in excluded]
        if not _Replica(app_factory, load).crashes_on(
                replay + [offending_event]):
            return before_seq
    return None
