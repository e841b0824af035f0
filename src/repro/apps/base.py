"""SDN application base class.

Apps are event-driven: the runtime calls :meth:`SDNApp.handle` with
each event the app subscribed to; ``handle`` routes to per-type hooks
(``on_packet_in``, ``on_switch_leave``, ...).  Apps emit OpenFlow
messages through the :class:`~repro.controller.api.AppAPI` they receive
at startup -- never by touching the controller directly -- which is
what lets LegoSDN host them unmodified inside a stub.

The checkpoint contract: :meth:`get_state` returns everything mutable
as a dict of wire-encodable values (see :meth:`SDNApp.get_state`) and
:meth:`set_state` restores it.  The default
implementation snapshots ``__dict__`` (minus the API handle), which is
the Python analogue of CRIU checkpointing a whole process image.

Apps may additionally opt into **dirty tracking**
(:meth:`enable_dirty_tracking` + :meth:`mark_dirty`): a per-state-key
version counter the checkpoint store consults to skip re-encoding keys
whose version has not moved since the previous snapshot -- the CRIU
``--track-mem`` soft-dirty analogue, in app space.  The contract is
strict: once tracking is on, *every* mutation of a state value must be
announced:

- ``mark_dirty(key, entry)`` when one entry of a dict-valued state key
  was set or deleted -- the store then checkpoints that entry, not the
  dict it lives in;
- ``mark_dirty(key)`` for anything else: a scalar, a list, a key just
  created, and above all a dict-valued key that was **deleted or
  replaced** -- its old entries are gone without having been named, so
  the whole value is what changed, and that verdict sticks (later
  entry marks do not narrow it) until the store next asks.

Apps that do not opt in keep the conservative fallback: every key is
treated as dirty on every take.  Tracked or not, :meth:`get_state` may
return its live containers: the store copies what it does not encode
at once.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.controller.api import Command

_CAMEL_RE = re.compile(r"(?<!^)(?=[A-Z])")


def _snake(name: str) -> str:
    return _CAMEL_RE.sub("_", name).lower()


class SDNApp:
    """Base class for every SDN application."""

    #: Default app name; instances may override via the constructor.
    name = "app"
    #: Event type names this app wants (e.g. ``("PacketIn", "PortStatus")``).
    subscriptions = ()

    #: Attributes excluded from checkpoints (runtime wiring, not state).
    #: ``_state_versions`` and ``_moved_entries`` are bookkeeping
    #: *about* the state, not state: they survive restores untouched,
    #: exactly like the API handle.
    _NON_STATE = frozenset({"api", "_state_versions", "_moved_entries"})

    #: Entries :meth:`mark_dirty` remembers per key before it gives up
    #: and calls the whole key dirty, so an app nobody checkpoints
    #: holds O(keys) bookkeeping however long it runs.
    MAX_MOVED_ENTRIES = 32

    def __init__(self, name: Optional[str] = None):
        if name is not None:
            self.name = name
        self.api = None
        self.events_handled = 0
        #: key -> version counter; ``None`` means tracking is off and
        #: the checkpoint store must assume every key dirty.
        self._state_versions = None
        #: key -> the entries of that (dict-valued) key that moved
        #: since :meth:`dirty_entries` was last called (a dict used as
        #: an ordered set, so a patch's bytes do not depend on hash
        #: seeds), or ``None`` for "all of it".
        self._moved_entries = {}

    # -- lifecycle ------------------------------------------------------

    def startup(self, api) -> None:
        """Called once by the runtime before any event is delivered."""
        self.api = api
        self.on_start()

    def on_start(self) -> None:
        """Hook for subclasses (proactive rule installation etc.)."""

    # -- event dispatch -----------------------------------------------------

    def handle(self, event) -> Optional[Command]:
        """Route ``event`` to its ``on_<type>`` hook.

        Returns the hook's :class:`Command` (``None`` means CONTINUE).
        Exceptions are deliberately NOT caught here: whether an app bug
        crashes the controller is the runtime's decision, and the whole
        point of the paper.
        """
        self.events_handled += 1
        if self._state_versions is not None:
            self.mark_dirty("events_handled")
        handler = getattr(self, "on_" + _snake(event.type_name), None)
        if handler is None:
            return None
        return handler(event)

    # -- dirty-key tracking ----------------------------------------------------

    def enable_dirty_tracking(self) -> None:
        """Opt into versioned state: from here on, every state mutation
        must be announced via :meth:`mark_dirty`."""
        if self._state_versions is None:
            self._state_versions = {}

    def mark_dirty(self, key, entry=None) -> None:
        """Bump ``key``'s version: its value changed (or was created),
        and only at ``entry`` if one is given (``None``: all of it).

        No-op while tracking is off, so shared helpers can mark
        unconditionally.  ``key`` must be the *state-dict* key the
        mutation lands under (e.g. ``("macs", dpid)`` for a
        :class:`LearningSwitch` table entry, not ``"mac_tables"``).
        """
        versions = self._state_versions
        if versions is None:
            return
        versions[key] = versions.get(key, 0) + 1
        moved = self._moved_entries
        if entry is None:
            moved[key] = None
        elif key not in moved:
            moved[key] = {entry: None}
        elif (entries := moved[key]) is not None:
            if len(entries) < self.MAX_MOVED_ENTRIES:
                entries[entry] = None
            else:
                moved[key] = None

    def dirty_entries(self) -> dict:
        """Hand over, and forget, which entries moved since the last
        call: key -> its entries that moved, or ``None`` for the whole
        value.  A key whose version moved but is missing here is
        whole-key."""
        moved = dict(self._moved_entries)
        self._moved_entries.clear()
        return moved

    def state_versions(self) -> Optional[dict]:
        """The live per-key version map (``None`` = no tracking).

        The checkpoint store snapshots this at take time; a key whose
        version matches the previous snapshot is guaranteed unchanged
        and is never re-encoded.
        """
        return self._state_versions

    # -- checkpoint contract ---------------------------------------------------

    def get_state(self) -> dict:
        """Everything needed to reconstruct this app's progress.

        The contract: a ``dict`` whose values are built from ``None``,
        ``bool``, ``int``, ``float``, ``str``, ``bytes``, ``list``,
        ``tuple``, ``dict``, ``set``, ``frozenset``, dataclasses
        registered with :func:`~repro.openflow.serialization.
        register_dataclass` and enums registered with
        :func:`~repro.openflow.serialization.register_enum` -- what the
        wire codec can carry, since that is the one encoding a
        checkpoint uses.  Anything else (a non-dict, an arbitrary
        object, or this method raising) is a fault of the app: its
        process is killed and Crash-Pad files a ticket naming the app
        and the offending key.
        """
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in self._NON_STATE
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`.

        The version map is *kept*, not rolled back: the store re-pairs
        the restored buffers with the live versions immediately after
        this call, so any version bumped by the half-run handler that
        crashed is absorbed into the new baseline.
        """
        wiring = {name: self.__dict__[name] for name in self._NON_STATE}
        self.__dict__.clear()
        self.__dict__.update(state)
        self.__dict__.update(wiring)

    @staticmethod
    def packet_out_for(event, actions) -> "PacketOut":
        """Build the PacketOut that answers a PacketIn.

        Prefers the switch-side buffer (``event.buffer_id``) so the
        packet body never rides the control channel again; falls back
        to inlining the packet when the switch did not buffer it.
        """
        from repro.openflow.messages import PacketOut

        buffer_id = getattr(event, "buffer_id", None)
        return PacketOut(
            packet=None if buffer_id is not None else event.packet,
            in_port=event.in_port,
            actions=tuple(actions),
            buffer_id=buffer_id,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, events={self.events_handled})"
