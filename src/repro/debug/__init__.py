"""The automated debugging loop (ROADMAP item: explainability).

LegoSDN's problem tickets (§3.3) tell a developer *that* an app
failed; this package tells them *why*, mechanically:

- :mod:`repro.debug.capture` taps the controller's ingestion point and
  records the exact event sequence a run acted on, each event stamped
  with the trace id dispatch used -- the bridge between the causal
  trace trees (:mod:`repro.telemetry.causal`) and the event journal.
- :mod:`repro.debug.replay` records scenario steps and re-executes any
  *subsequence* of a captured run, as ``ingest`` steps, against a
  fresh controller/AppVisor/NetLog stack -- both through
  :func:`repro.scenario.play`, with every nondeterminism source
  (seeds, chaos profile, checkpoint policy) pinned by one
  :class:`~repro.stack.StackSpec` -- and reports whether the original
  failure signature reproduces.
- :mod:`repro.debug.minimize` shrinks a failing run to its minimal
  causal sequence: STS-style ddmin (§5) seeded by the failing event's
  causal trace, emitting a :class:`MinimizedRepro` that is attached to
  the problem ticket and rendered in ``ticket.render()``.
- :mod:`repro.debug.corpus` drives the E1 bug corpus through seeded
  :class:`~repro.faults.netfaults.ChaosProfile` grids and aggregates
  Crash-Pad policy outcomes per (bug, adversity) cell into a committed
  reproducible document (``CORPUS_PR10.json``).
"""

from repro.debug.capture import CapturedEvent, EventCapture
from repro.debug.corpus import (
    CORPUS_PRESETS,
    check_corpus,
    corpus_json,
    run_corpus,
)
from repro.debug.minimize import MinimizedRepro, ddmin, minimize_failure
from repro.debug.planted import planted_armed_recording
from repro.debug.replay import Recording, ReplayHarness, ReplayResult
from repro.debug.signature import FailureSignature

__all__ = [
    "CORPUS_PRESETS",
    "CapturedEvent",
    "EventCapture",
    "FailureSignature",
    "MinimizedRepro",
    "Recording",
    "ReplayHarness",
    "ReplayResult",
    "check_corpus",
    "corpus_json",
    "ddmin",
    "minimize_failure",
    "planted_armed_recording",
    "run_corpus",
]
