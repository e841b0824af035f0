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
(:meth:`enable_dirty_tracking` + :meth:`mark_dirty`): marks on the
state keys (and dict entries) that moved, which the one checkpoint
store per app consumes at each snapshot (:meth:`dirty_entries`) to
skip re-encoding unmarked keys -- the CRIU ``--track-mem`` soft-dirty
bit, cleared at each dump, in app space.  The contract is strict: once
tracking is on, *every* mutation of a state value must be announced:

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
from repro.openflow.messages import PacketOut

_CAMEL_RE = re.compile(r"(?<!^)(?=[A-Z])")


def _snake(name: str) -> str:
    return _CAMEL_RE.sub("_", name).lower()


class _Hooks(dict):
    """Event type name -> its ``on_<snake_case>`` hook, named once."""

    def __missing__(self, type_name: str) -> str:
        self[type_name] = hook = "on_" + _snake(type_name)
        return hook


_HOOKS = _Hooks()


class SDNApp:
    """Base class for every SDN application."""

    #: Default app name; instances may override via the constructor.
    name = "app"
    #: Event type names this app wants (e.g. ``("PacketIn", "PortStatus")``).
    subscriptions = ()

    #: Attributes excluded from checkpoints (runtime wiring, not state).
    #: ``_moved_entries`` is bookkeeping *about* the state, not state:
    #: it survives restores untouched, exactly like the API handle.
    _NON_STATE = frozenset({"api", "_moved_entries"})

    #: Entries :meth:`mark_dirty` remembers per key before it gives up
    #: and calls the whole key dirty, so an app nobody checkpoints
    #: holds O(keys) bookkeeping however long it runs.
    MAX_MOVED_ENTRIES = 32

    def __init__(self, name: Optional[str] = None):
        if name is not None:
            self.name = name
        self.api = None
        self.events_handled = 0
        #: key -> the entries of that (dict-valued) key that moved
        #: since :meth:`dirty_entries` was last called (a dict used as
        #: an ordered set, so a patch's bytes do not depend on hash
        #: seeds), or ``None`` for "all of it".  The map itself is
        #: ``None`` while tracking is off: the checkpoint store must
        #: then assume every key dirty.
        self._moved_entries = None

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
        if self._moved_entries is not None:
            self.mark_dirty("events_handled")
        handler = getattr(self, _HOOKS[event.type_name], None)
        if handler is None:
            return None
        return handler(event)

    # -- dirty-key tracking ----------------------------------------------------

    def enable_dirty_tracking(self) -> None:
        """Opt into tracked state: from here on, every state mutation
        must be announced via :meth:`mark_dirty`."""
        if self._moved_entries is None:
            self._moved_entries = {}

    def mark_dirty(self, key, entry=None) -> None:
        """Mark ``key`` moved: its value changed (or was created), and
        only at ``entry`` if one is given (``None``: all of it).

        No-op while tracking is off, so shared helpers can mark
        unconditionally.  ``key`` must be the *state-dict* key the
        mutation lands under (e.g. ``("macs", dpid)`` for a
        :class:`LearningSwitch` table entry, not ``"mac_tables"``).
        """
        moved = self._moved_entries
        if moved is None:
            return
        if entry is None:
            moved[key] = None
        elif key not in moved:
            moved[key] = {entry: None}
        elif (entries := moved[key]) is not None:
            if entry in entries or len(entries) < self.MAX_MOVED_ENTRIES:
                entries[entry] = None
            else:
                moved[key] = None

    def dirty_entries(self) -> Optional[dict]:
        """Hand over, and forget, which keys moved since the last call:
        key -> its entries that moved, or ``None`` for the whole value;
        a key missing here has not moved.  ``None`` while tracking is
        off.  The map is cleared in place, never replaced: a wrapper
        app shares it with the app it wraps."""
        moved = self._moved_entries
        if moved is None:
            return None
        handed = dict(moved)
        moved.clear()
        return handed

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

        The marks are *kept*, not rolled back: the store drains them
        right after this call, so whatever the half-run handler that
        crashed marked is dropped with the state it described.
        """
        wiring = {name: self.__dict__[name] for name in self._NON_STATE}
        self.__dict__.clear()
        self.__dict__.update(state)
        self.__dict__.update(wiring)

    @staticmethod
    def packet_out_for(event, actions) -> PacketOut:
        """Build the PacketOut that answers a PacketIn.

        Prefers the switch-side buffer (``event.buffer_id``) so the
        packet body never rides the control channel again; falls back
        to inlining the packet when the switch did not buffer it.
        """
        buffer_id = getattr(event, "buffer_id", None)
        return PacketOut(
            packet=None if buffer_id is not None else event.packet,
            in_port=event.in_port,
            actions=tuple(actions),
            buffer_id=buffer_id,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, events={self.events_handled})"
