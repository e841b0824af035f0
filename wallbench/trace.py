"""Spans recorded from outside the program.

Nothing under ``src/`` knows it is being traced.  ``install()`` wraps,
before any stack is built:

(a) ``Simulator.schedule`` / ``schedule_at`` / ``every`` and
    ``run_until``, so every simulated callback is a span attributed to
    the layer that owns the callback's module, under a ``run_until``
    root whose own self-time is the event loop (layer ``network``);
(b) each layer's public entry points (``ENTRY_POINTS``) as child
    spans: class methods are patched on the class, module-level
    functions are rebound in every ``repro.*`` module that imported
    them by name;
(c) the three places callbacks are *registered* -- frame handlers
    (``ChannelEndpoint.on_frame``), NetLog replication hooks
    (``TransactionManager.on_apply`` / ``on_resolve``) and app
    ``handle`` methods -- so work done on another layer's behalf is
    billed to the layer that does it.

A span is (name, layer, start, end, parent) from ``perf_counter_ns``,
appended to flat arrays while recording is on and folded once at the
end: a name's self-time is its spans' durations minus their child
spans'.  A target that no longer exists is skipped with a warning and
listed in ``Trace.untraced``: the layer loses detail, the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import warnings
from array import array
from time import perf_counter_ns
from typing import Dict, List, Tuple

#: Layer names are module names; order is the report's row order.
LAYERS = ("network", "flowtable", "controller", "apps", "codec",
          "appvisor.proxy", "appvisor.stub", "appvisor.channel",
          "netlog", "crashpad.checkpoint", "crashpad.recovery",
          "replication", "replication.byzantine", "shard", "loadgen",
          "other")

#: Longest prefix wins.
_MODULE_LAYERS = (
    ("repro.network", "network"),
    ("repro.openflow.serialization", "codec"),
    ("repro.openflow", "flowtable"),
    ("repro.controller", "controller"),
    ("repro.apps", "apps"),
    ("repro.faults", "apps"),
    ("repro.core.appvisor.proxy", "appvisor.proxy"),
    ("repro.core.appvisor.channel", "appvisor.channel"),
    ("repro.core.appvisor.rpc", "appvisor.channel"),
    ("repro.core.appvisor", "appvisor.stub"),
    ("repro.core.netlog", "netlog"),
    ("repro.core.crashpad.checkpoint", "crashpad.checkpoint"),
    ("repro.core.crashpad.interval", "crashpad.checkpoint"),
    ("repro.core.crashpad", "crashpad.recovery"),
    ("repro.replication.byzantine", "replication.byzantine"),
    ("repro.replication", "replication"),
    ("repro.shard", "shard"),
    ("repro.bench", "loadgen"),
    ("wallbench", "loadgen"),
)

#: (layer, module, class or None, names).
ENTRY_POINTS = (
    ("codec", "repro.openflow.serialization", None,
     ("encode_value", "decode_value", "encode_message", "decode_message",
      "encoded_size", "encode_state_value", "decode_state_value")),
    ("appvisor.proxy", "repro.core.appvisor.proxy", "AppVisorProxy",
     ("controller_event", "on_frame")),
    ("netlog", "repro.core.netlog.transaction", "TransactionManager",
     ("begin", "apply", "commit", "abort", "note_flow_stats",
      "note_flow_removed")),
    ("crashpad.checkpoint", "repro.core.crashpad.checkpoint",
     "CheckpointStore", ("take", "drain", "flush", "restore")),
    ("crashpad.recovery", "repro.core.crashpad.recovery", "CrashPad",
     ("decide",)),
    ("replication", "repro.replication.replicaset", "ReplicaSet",
     ("crash_primary",)),
    ("replication.byzantine", "repro.replication.byzantine",
     "ReplicaKeyring", ("stamp", "verify")),
    ("replication.byzantine", "repro.replication.byzantine", None,
     ("resolve_leaf", "chain_digest")),
    ("shard", "repro.shard.router", "ShardRouter", ("shard_of",)),
    ("shard", "repro.shard.coordinator", "ShardCoordinator",
     ("owner_controller",)),
    ("controller", "repro.controller.core", "Controller",
     ("handle_switch_message", "dispatch", "send_to_switch")),
    ("flowtable", "repro.openflow.flowtable", "FlowTable",
     ("lookup", "apply_flow_mod", "expire")),
)

#: Frames whose handling *is* crash recovery, whichever module's
#: handler receives them.
RECOVERY_FRAMES = frozenset({"CrashReport", "RestoreCommand", "RestoreAck",
                             "DeepRestoreCommand"})


def layer_of_module(module: str) -> str:
    best = ("", "other")
    for prefix, layer in _MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best[0]):
            best = (prefix, layer)
    return best[1]


class Trace:
    """The span store plus the wrappers that fill it."""

    def __init__(self):
        #: Recording switch: off during set-up, warm-up and drain.
        self.on = False
        self.names: List[Tuple[str, str]] = []      # id -> (layer, name)
        self._ids: Dict[Tuple[str, str], int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._current = [-1]
        self.untraced: List[str] = []

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    # -- span wrappers ---------------------------------------------------

    def _span(self, fn, nid_of):
        """Wrap ``fn`` in a span whose name id is ``nid_of(*args)``."""
        name_ids, parents = self.name_ids, self.parents
        starts, ends, current = self.starts, self.ends, self._current
        now = perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = len(starts)
            parent = current[0]
            current[0] = index
            name_ids.append(nid_of(*args))
            parents.append(parent)
            ends.append(0)
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = now()
                current[0] = parent
        return traced

    def wrap(self, fn, layer: str, name: str):
        nid = self.name_id(layer, name)
        return self._span(fn, lambda *args: nid)

    def name_id_of(self, fn, suffix: str = "", layer: str = "") -> int:
        """The name id of a callback, named by its qualified name and
        (unless ``layer`` overrides) attributed by its own module."""
        module = getattr(fn, "__module__", None) or ""
        name = getattr(fn, "__qualname__", None) or type(fn).__name__
        return self.name_id(layer or layer_of_module(module),
                            name + suffix)

    def wrap_callable(self, fn):
        nid = self.name_id_of(fn)
        return self._span(fn, lambda *args: nid)

    def _missing(self, what: str) -> None:
        self.untraced.append(what)
        warnings.warn(f"wallbench.trace: {what} not found; "
                      "layer not traced there", stacklevel=3)

    # -- (b) entry points ------------------------------------------------

    def _patch_entry_points(self) -> None:
        for layer, module_name, class_name, names in ENTRY_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self._missing(module_name)
                continue
            owner = module
            if class_name is not None:
                owner = getattr(module, class_name, None)
                if owner is None:
                    self._missing(f"{module_name}.{class_name}")
                    continue
            for name in names:
                label = f"{class_name}.{name}" if class_name else name
                original = getattr(owner, name, None)
                if original is None:
                    self._missing(f"{module_name}.{label}")
                    continue
                traced = self.wrap(original, layer, label)
                if class_name is not None:
                    setattr(owner, name, traced)
                else:
                    _rebind_everywhere(original, traced)

    def _patch_app_handlers(self) -> None:
        try:
            from repro.apps.base import SDNApp
        except ImportError:
            self._missing("repro.apps.base.SDNApp")
            return
        pending = [SDNApp]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            handle = cls.__dict__.get("handle")
            if handle is not None:
                cls.handle = self.wrap(handle, "apps",
                                       f"{cls.__name__}.handle")

    # -- (c) callback registration points --------------------------------

    def _patch_frame_handlers(self) -> None:
        try:
            from repro.core.appvisor.channel import ChannelEndpoint
            original_on_frame = ChannelEndpoint.on_frame
            original_send = ChannelEndpoint.send
        except (ImportError, AttributeError):
            self._missing("ChannelEndpoint.on_frame/send")
            return

        def on_frame(endpoint, handler):
            ids: Dict[type, int] = {}

            def nid_of(frame):
                cls = type(frame)
                nid = ids.get(cls)
                if nid is None:
                    kind = cls.__name__
                    nid = ids[cls] = self.name_id_of(
                        handler, ":" + kind,
                        "crashpad.recovery" if kind in RECOVERY_FRAMES
                        else "")
                return nid
            return original_on_frame(endpoint, self._span(handler, nid_of))

        app_send = self.name_id("appvisor.channel", "ChannelEndpoint.send")
        repl_send = self.name_id("replication", "ChannelEndpoint.send")

        def nid_of_send(endpoint, frame=None):
            # Replication channels are UdpChannels too; the frames put
            # on them are the replication layer's work.
            span_name = getattr(endpoint.channel, "span_name", "")
            return repl_send if span_name.startswith("replication") \
                else app_send

        ChannelEndpoint.on_frame = on_frame
        ChannelEndpoint.send = self._span(original_send, nid_of_send)

    def _patch_netlog_hooks(self) -> None:
        try:
            from repro.core.netlog.transaction import TransactionManager
        except ImportError:
            self._missing("TransactionManager")
            return
        trace = self

        class TracedHooks(list):
            def append(self, fn):
                super().append(trace.wrap_callable(fn))

        original_init = TransactionManager.__init__

        @functools.wraps(original_init)
        def init(manager, *args, **kwargs):
            original_init(manager, *args, **kwargs)
            for attr in ("on_apply", "on_resolve"):
                hooks = getattr(manager, attr, None)
                if isinstance(hooks, list):
                    traced = TracedHooks()
                    for fn in hooks:
                        traced.append(fn)
                    setattr(manager, attr, traced)
                elif f"TransactionManager.{attr}" not in self.untraced:
                    self._missing(f"TransactionManager.{attr}")
        TransactionManager.__init__ = init

    # -- (a) the simulator -----------------------------------------------

    def _patch_simulator(self) -> None:
        try:
            from repro.network.simulator import Simulator
        except ImportError:
            self._missing("repro.network.simulator.Simulator")
            return
        ids: Dict[object, int] = {}
        # Every product of ``_span`` shares one code object.
        traced_code = self._span(len, len).__code__

        def nid_of_callback(fn, *args):
            try:
                key = fn.__code__
            except AttributeError:      # partial, callable object
                key = type(fn)
            nid = ids.get(key)
            if nid is None:
                nid = ids[key] = self.name_id_of(fn)
            return nid

        run_callback = self._span(lambda fn, *args: fn(*args),
                                  nid_of_callback)

        def routed(original):
            def scheduler(sim, when, fn, *args):
                # An entry point scheduled directly records its own
                # span (and ``schedule_at`` hands ``schedule`` a
                # callback that is already routed).
                if getattr(fn, "__code__", None) is traced_code:
                    return original(sim, when, fn, *args)
                return original(sim, when, run_callback, fn, *args)
            return scheduler

        # ``every`` runs ``fn`` inside a tick closure of its own, which
        # belongs to the simulator module: bill ``fn`` separately.
        for name in ("schedule", "schedule_at", "every"):
            original = getattr(Simulator, name, None)
            if original is None:
                self._missing(f"Simulator.{name}")
            else:
                setattr(Simulator, name, routed(original))
        if hasattr(Simulator, "run_until"):
            Simulator.run_until = self.wrap(
                Simulator.run_until, "network", "Simulator.run_until")
        else:
            self._missing("Simulator.run_until")

    def install(self) -> None:
        """Patch everything; call once, before building a stack, after
        importing every module the stack uses."""
        self._patch_entry_points()
        self._patch_app_handlers()
        self._patch_frame_handlers()
        self._patch_netlog_hooks()
        self._patch_simulator()

    # -- folding ---------------------------------------------------------

    def fold(self) -> "Folded":
        count = len(self.names)
        calls = [0] * count
        inclusive = [0] * count
        self_time = [0] * count
        longest = [0] * count
        edges: Dict[Tuple[int, int], List[int]] = {}
        name_ids, parents = self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        for i in range(len(starts)):
            nid = name_ids[i]
            duration = ends[i] - starts[i]
            calls[nid] += 1
            inclusive[nid] += duration
            self_time[nid] += duration
            if duration > longest[nid]:
                longest[nid] = duration
            parent = parents[i]
            parent_nid = -1
            if parent >= 0:
                parent_nid = name_ids[parent]
                self_time[parent_nid] -= duration
            edge = edges.get((parent_nid, nid))
            if edge is None:
                edges[(parent_nid, nid)] = [1, duration]
            else:
                edge[0] += 1
                edge[1] += duration
        return Folded(self.names, calls, inclusive, self_time, longest,
                      edges, len(starts))


class Folded:
    """Per-name totals (nanoseconds) and the parent->child edge table."""

    def __init__(self, names, calls, inclusive, self_time, longest,
                 edges, spans):
        self.names = names
        self.calls = calls
        self.inclusive = inclusive
        self.self_time = self_time
        self.longest = longest
        self.edges = edges
        self.spans = spans

    def _select(self, layer: str, names=()) -> List[int]:
        """Name ids of ``layer`` (all of them when ``names`` is empty).
        A frame handler's span is named ``handler:FrameKind`` and also
        answers to its frame kind alone."""
        return [nid for nid, (lyr, name) in enumerate(self.names)
                if lyr == layer and (not names or name in names
                                     or name.split(":")[-1] in names)]

    def total_self_ns(self) -> int:
        return sum(self.self_time)

    def calls_of(self, layer: str, *names: str) -> int:
        return sum(self.calls[n] for n in self._select(layer, names))

    def inclusive_ns(self, layer: str, *names: str) -> int:
        return sum(self.inclusive[n] for n in self._select(layer, names))

    def self_ns(self, layer: str, *names: str) -> int:
        return sum(self.self_time[n] for n in self._select(layer, names))

    def longest_ns(self, layer: str) -> int:
        """The longest single span of ``layer``."""
        return max((self.longest[n] for n in self._select(layer)),
                   default=0)

    def edge_calls(self, child_names, not_under=()) -> int:
        """Calls of ``child_names`` whose parent span is not one of
        ``not_under``."""
        total = 0
        for (parent, nid), (calls, _) in self.edges.items():
            if self.names[nid][1] in child_names and (
                    parent < 0
                    or self.names[parent][1] not in not_under):
                total += calls
        return total

    def inclusive_under_ns(self, child_layer: str,
                           parent_layer: str) -> int:
        """Inclusive time of ``child_layer`` spans called directly from
        ``parent_layer`` spans."""
        return sum(incl for (parent, nid), (_, incl) in self.edges.items()
                   if parent >= 0
                   and self.names[nid][0] == child_layer
                   and self.names[parent][0] == parent_layer)

    def table(self) -> List[dict]:
        """One row per span name, largest self-time first."""
        rows = [{"layer": layer, "name": name, "calls": self.calls[nid],
                 "self_ns": self.self_time[nid],
                 "inclusive_ns": self.inclusive[nid],
                 "longest_ns": self.longest[nid]}
                for nid, (layer, name) in enumerate(self.names)
                if self.calls[nid]]
        rows.sort(key=lambda row: -row["self_ns"])
        return rows


def _rebind_everywhere(original, replacement) -> None:
    """Module-level functions are imported by name throughout ``src/``:
    rebind every ``repro.*`` module attribute that *is* the original."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
