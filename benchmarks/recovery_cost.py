#!/usr/bin/env python3
"""What a Crash-Pad restore and an STS probe cost the host, in decodes.

A ``crash_on(LearningSwitch())`` learns ``MACS`` MACs on each of four
switches, one PacketIn per event, with a checkpoint before every event,
so every table is folded many times over.  Then, from the newest
checkpoint, it runs

* ``restore``, ``REPEATS`` times, and
* one STS fast-path probe: ``find_minimal_causal_sequence`` with an
  empty history and a crashing event, loading its replica the way the
  stub does (``partial(store.state, checkpoint)``),

with ``decode_state_value`` counted in every ``repro`` module that
holds it by name.  It asserts counts only -- no value decode per
restore or per probe, and both load the state that ``decode_state``
builds from the checkpoint's buffers -- and prints host microseconds
per state load by copying the kept captures and by decoding the
buffers, their ratio, and per whole ``restore``.

The fallback case does the same learning on ``PortSets``, whose tables
map each MAC to a set of ports: a set cannot be copied exactly (the
codec writes its members sorted), so ``state`` must decode every buffer
of those tables, exactly once.  It prints a state load by ``state``
against ``decode_state`` of the same buffers (what every restore did
before captures were kept).  It asserts no time: compare two commits
with alternated runs,

    PYTHONPATH=src python3 benchmarks/recovery_cost.py
"""

from __future__ import annotations

import copy
import json
import statistics
import sys
from functools import partial
from time import perf_counter

from repro.apps import LearningSwitch, SDNApp
from repro.core.crashpad.checkpoint import CheckpointStore, decode_state
from repro.core.crashpad.sts import find_minimal_causal_sequence
from repro.faults import crash_on
from repro.network.packet import tcp_packet
from repro.openflow import serialization
from repro.openflow.messages import PacketIn

SWITCHES = (1, 2, 3, 4)
MACS = 800
REPEATS = 21
MARKER = "RECOVERY-COST-CRASH"


class NullAPI:
    def emit(self, dpid, msg):
        pass

    def log(self, text):
        pass


class PortSets(SDNApp):
    """Per switch, the set of ports each MAC was seen on.  Each sighting
    replaces the MAC's set, never mutates it (the state contract)."""

    name = "port_sets"

    def __init__(self):
        super().__init__()
        self.tables = {}
        self.enable_dirty_tracking()

    def see(self, dpid: int, mac: str, port: int) -> None:
        table = self.tables.setdefault(("ports", dpid), {})
        table[mac] = table.get(mac, set()) | {port}
        self.mark_dirty(("ports", dpid), mac)

    def get_state(self):
        return dict(self.tables)

    def set_state(self, state):
        self.tables = {key: dict(table) for key, table in state.items()}


def make_app():
    app = crash_on(LearningSwitch(), payload_marker=MARKER)
    app.startup(NullAPI())
    return app


def mac_of(dpid: int, index: int) -> str:
    return f"02:00:{dpid:02x}:00:{index >> 8:02x}:{index & 0xFF:02x}"


def packet_in(dpid: int, index: int, payload: str = "") -> PacketIn:
    return PacketIn(dpid=dpid, in_port=1 + index % 4,
                    packet=tcp_packet(mac_of(dpid, index),
                                      "ff:ff:ff:ff:ff:ff", "10.0.0.1",
                                      "10.0.0.2", payload=payload))


class DecodeCounter:
    """Counts ``decode_state_value`` calls while installed."""

    def __init__(self):
        self.calls = 0
        self._original = serialization.decode_state_value
        # One bound method, so that __exit__ finds what __enter__ put.
        self._installed = self._counting

    def _counting(self, buf):
        self.calls += 1
        return self._original(buf)

    @staticmethod
    def _rebind(old, new) -> None:
        for name, module in list(sys.modules.items()):
            if (name.startswith("repro")
                    and getattr(module, "decode_state_value", None) is old):
                module.decode_state_value = new

    def __enter__(self):
        self._rebind(self._original, self._installed)
        return self

    def __exit__(self, *exc):
        self._rebind(self._installed, self._original)


def learn(app, learn_one):
    """``app``'s store after ``MACS`` learns per switch, and the folds
    its takes made."""
    store = CheckpointStore()
    folds, patched = 0, {}
    for seq, index in enumerate(range(len(SWITCHES) * MACS), start=1):
        entry = store.take(app, before_seq=seq, now=float(seq))
        for key, buffers in entry.buffers.items():
            if len(buffers) == 1 and patched.get(key):
                folds += 1
            patched[key] = len(buffers) > 1
        learn_one(SWITCHES[index % len(SWITCHES)], index // len(SWITCHES))
    store.take(app, before_seq=seq + 1, now=float(seq + 1))
    assert folds >= 2 * len(SWITCHES), folds
    return store, folds


def per_call_us(*fns) -> list:
    """Median host microseconds per call of each of ``fns``, their
    calls interleaved so that a slow spell on the box hits them alike."""
    times = [[] for _ in fns]
    for _ in range(REPEATS):
        for fn, kept in zip(fns, times):
            start = perf_counter()
            fn()
            kept.append(perf_counter() - start)
    return [statistics.median(kept) * 1e6 for kept in times]


def copy_case() -> dict:
    """Tables of atoms: restores and probes copy, and decode nothing."""
    app = make_app()
    store, folds = learn(app, lambda dpid, index: app.handle(
        packet_in(dpid, index)))
    target = store.latest()
    reference = decode_state(store.buffers(target))
    assert all(len(reference["macs", dpid]) == MACS for dpid in SWITCHES)

    with DecodeCounter() as decodes:
        store.restore(app, target)
        restore_decodes = decodes.calls
        loaded = []

        def replica():
            fresh = make_app()
            load = fresh.set_state

            def recording_load(state):
                loaded.append(copy.deepcopy(state))
                load(state)
            fresh.set_state = recording_load
            return fresh

        result = find_minimal_causal_sequence(
            replica, partial(store.state, target), history=[],
            offending=(target.before_seq,
                       packet_in(SWITCHES[0], 0, payload=MARKER)))
        probe_decodes = decodes.calls - restore_decodes
    assert restore_decodes == probe_decodes == 0, \
        (restore_decodes, probe_decodes)
    assert result.single_event and result.probe_runs == 1
    assert app.get_state() == reference and loaded == [reference]

    copy_us, decode_us, restore_us = per_call_us(
        lambda: app.set_state(store.state(target)),
        lambda: app.set_state(decode_state(store.buffers(target))),
        lambda: store.restore(app, target))
    return {
        "state_bytes": target.state_size, "folds": folds,
        "decodes_per_restore": restore_decodes,
        "decodes_per_probe": probe_decodes,
        "load_us_by_copy": round(copy_us, 1),
        "load_us_by_decode": round(decode_us, 1),
        # Dimensionless, so a slow minute on the box cancels out.
        "decode_over_copy": round(decode_us / copy_us, 2),
        "restore_us": round(restore_us, 1),
    }


def fallback_case() -> dict:
    """Tables of sets: ``state`` decodes each of their buffers once."""
    app = PortSets()
    store, folds = learn(app, lambda dpid, index: app.see(
        dpid, mac_of(dpid, index), 1 + index % 4))
    target = store.latest()
    buffers = store.buffers(target)
    with DecodeCounter() as decodes:
        loaded = store.state(target)
    assert decodes.calls == sum(map(len, buffers.values())), decodes.calls
    assert serialization.decode_state_value is decodes._original
    assert loaded == decode_state(buffers)
    assert all(len(loaded["ports", dpid]) == MACS for dpid in SWITCHES)

    state_us, decode_us = per_call_us(
        lambda: app.set_state(store.state(target)),
        lambda: app.set_state(decode_state(store.buffers(target))))
    return {
        "state_bytes": target.state_size, "folds": folds,
        "decodes_per_load": decodes.calls,
        "load_us_by_state": round(state_us, 1),
        "load_us_by_decode": round(decode_us, 1),
        "state_over_decode": round(state_us / decode_us, 3),
    }


def main() -> int:
    print(json.dumps({
        "macs_per_table": MACS, "tables": len(SWITCHES),
        **copy_case(),
        "fallback": fallback_case(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
