"""Software and data diversity (§3.4) and hot-standby clones (§5).

Two recovery-through-redundancy patterns the paper says LegoSDN
enables:

- :class:`NVersionApp` -- "have multiple teams develop identical
  versions of the same application ... the correct output for any
  given input can be chosen using a majority vote on the outputs from
  the different versions."
- :class:`HotStandbyApp` -- "LegoSDN can spawn a clone of an SDN-App,
  and let it run in parallel ... only process the responses from the
  SDN-App and ignore those from its clone.  This allows for an easy
  switch-over operation to the clone, when the primary fails."

Both hold *several* inner apps, nest each one's state under a key of
their own and do no dirty tracking, so Crash-Pad checkpoints them
whole-key: every take encodes every inner state in full,
synchronously.  (The single-inner wrappers in
:mod:`repro.faults.injector` forward the inner app's tracking and
checkpoint flat; nothing here is on a benchmark or CLI hot path, so
these stay as they are.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.apps.base import SDNApp
from repro.controller.api import AppAPI
from repro.openflow.serialization import encode_value


class _CapturingAPI(AppAPI):
    """An AppAPI that records emissions instead of sending them.

    Reads delegate to the real API so every version sees the same
    controller state; only the write path is intercepted.
    """

    def __init__(self, real_api: AppAPI):
        self.real = real_api
        self.captured: List[Tuple[int, object]] = []

    def reset(self) -> List[Tuple[int, object]]:
        captured, self.captured = self.captured, []
        return captured

    def now(self):
        return self.real.now()

    def emit(self, dpid, msg):
        self.captured.append((dpid, msg))

    def topology(self):
        return self.real.topology()

    def host_location(self, mac):
        return self.real.host_location(mac)

    def hosts(self):
        return self.real.hosts()

    def switches(self):
        return self.real.switches()

    def log(self, text):
        self.real.log(text)

    def counter_inc(self, name, delta=1):
        self.real.counter_inc(name, delta)


def _canonical_outputs(outputs: List[Tuple[int, object]]) -> bytes:
    """Order-preserving byte fingerprint of an output list.

    Two versions "agree" iff they emit the same messages to the same
    switches in the same order; xids are excluded (each version
    allocates its own)."""
    parts = []
    for dpid, msg in outputs:
        clone = type(msg)(**{
            f: getattr(msg, f)
            for f in msg.__dataclass_fields__
            if f != "xid"
        })
        clone.xid = 0
        parts.append((dpid, encode_value(clone)))
    return encode_value(parts)


class NVersionApp(SDNApp):
    """Run N implementations of the same app; emit the majority output.

    A buggy minority version is outvoted: its wrong output (or its
    crash) is masked, and the disagreement is recorded for operators.
    """

    def __init__(self, versions: List[SDNApp], name: Optional[str] = None,
                 quorum: Optional[int] = None):
        if len(versions) < 2:
            raise ValueError("n-version execution needs >= 2 versions")
        super().__init__(name or f"nversion-{versions[0].name}")
        self.subscriptions = tuple(sorted({
            sub for v in versions for sub in v.subscriptions
        }))
        self.versions = versions
        self.quorum = quorum or (len(versions) // 2 + 1)
        self.votes_taken = 0
        self.disagreements = 0
        self.version_crashes: Dict[str, int] = {}
        self._capture_apis: List[_CapturingAPI] = []

    def startup(self, api) -> None:
        self.api = api
        self._capture_apis = []
        for i, version in enumerate(self.versions):
            capture = _CapturingAPI(api)
            self._capture_apis.append(capture)
            version.name = f"{self.name}.v{i}"
            version.startup(capture)

    def handle(self, event):
        self.events_handled += 1
        ballots: Dict[bytes, List[int]] = {}
        outputs_by_version: List[Optional[List]] = []
        for i, (version, capture) in enumerate(
                zip(self.versions, self._capture_apis)):
            if event.type_name not in version.subscriptions:
                outputs_by_version.append(None)
                continue
            capture.reset()
            try:
                version.handle(event)
            except Exception:  # noqa: BLE001 - a crashed version is outvoted
                self.version_crashes[version.name] = (
                    self.version_crashes.get(version.name, 0) + 1
                )
                outputs_by_version.append(None)
                continue
            outputs = capture.reset()
            outputs_by_version.append(outputs)
            ballots.setdefault(_canonical_outputs(outputs), []).append(i)
        if not ballots:
            return None
        self.votes_taken += 1
        winner_key, winner_voters = max(
            ballots.items(), key=lambda item: (len(item[1]), -item[1][0])
        )
        if len(ballots) > 1:
            self.disagreements += 1
        if len(winner_voters) < self.quorum:
            # No quorum: emit nothing rather than something unvetted.
            self.api.log(f"{self.name}: no quorum on {event.type_name}")
            return None
        for dpid, msg in outputs_by_version[winner_voters[0]]:
            self.api.emit(dpid, msg)
        return None

    def get_state(self) -> dict:
        return {
            "events_handled": self.events_handled,
            "votes_taken": self.votes_taken,
            "disagreements": self.disagreements,
            "version_crashes": dict(self.version_crashes),
            "version_states": [v.get_state() for v in self.versions],
        }

    def set_state(self, state: dict) -> None:
        self.events_handled = state["events_handled"]
        self.votes_taken = state["votes_taken"]
        self.disagreements = state["disagreements"]
        self.version_crashes = dict(state["version_crashes"])
        for version, vstate in zip(self.versions, state["version_states"]):
            version.set_state(vstate)


class HotStandbyApp(SDNApp):
    """Primary + shadow clone; instant switch-over on primary failure.

    Both instances see every event; only the primary's output reaches
    the network.  When the primary crashes (on a presumably
    non-deterministic bug), the clone -- which survived the same event
    -- is promoted in place, with no checkpoint restore needed.
    """

    def __init__(self, primary: SDNApp, clone: SDNApp,
                 name: Optional[str] = None):
        super().__init__(name or f"standby-{primary.name}")
        self.subscriptions = tuple(sorted(
            set(primary.subscriptions) | set(clone.subscriptions)
        ))
        self.primary = primary
        self.clone = clone
        self.switch_overs = 0
        self.primary_dead = False
        self._primary_capture: Optional[_CapturingAPI] = None
        self._clone_capture: Optional[_CapturingAPI] = None

    def startup(self, api) -> None:
        self.api = api
        self._primary_capture = _CapturingAPI(api)
        self._clone_capture = _CapturingAPI(api)
        self.primary.startup(self._primary_capture)
        self.clone.startup(self._clone_capture)

    def handle(self, event):
        self.events_handled += 1
        # Feed the clone first (its output is discarded either way).
        clone_outputs: List = []
        clone_alive = True
        if event.type_name in self.clone.subscriptions:
            self._clone_capture.reset()
            try:
                self.clone.handle(event)
                clone_outputs = self._clone_capture.reset()
            except Exception:  # noqa: BLE001
                clone_alive = False
        if not self.primary_dead and event.type_name in self.primary.subscriptions:
            self._primary_capture.reset()
            try:
                self.primary.handle(event)
            except Exception:  # noqa: BLE001 - switch over to the clone
                self.primary_dead = True
                self.switch_overs += 1
                if clone_alive:
                    self.primary, self.clone = self.clone, self.primary
                    self._primary_capture, self._clone_capture = (
                        self._clone_capture, self._primary_capture)
                    self.primary_dead = False
                    for dpid, msg in clone_outputs:
                        self.api.emit(dpid, msg)
                return None
            for dpid, msg in self._primary_capture.reset():
                self.api.emit(dpid, msg)
            return None
        if self.primary_dead and clone_alive:
            # Primary already gone and no clone promotion possible --
            # deliver the clone's output as best effort.
            for dpid, msg in clone_outputs:
                self.api.emit(dpid, msg)
        return None

    def get_state(self) -> dict:
        return {
            "events_handled": self.events_handled,
            "switch_overs": self.switch_overs,
            "primary_dead": self.primary_dead,
            "primary_state": self.primary.get_state(),
            "clone_state": self.clone.get_state(),
        }

    def set_state(self, state: dict) -> None:
        self.events_handled = state["events_handled"]
        self.switch_overs = state["switch_overs"]
        self.primary_dead = state["primary_dead"]
        self.primary.set_state(state["primary_state"])
        self.clone.set_state(state["clone_state"])
