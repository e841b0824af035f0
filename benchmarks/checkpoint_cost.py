#!/usr/bin/env python3
"""What a Crash-Pad take and a fold cost the host, in whole encodes.

A ``crash_on(LearningSwitch())`` learns ``size`` MACs on each of five
switches, one PacketIn per event and a synchronous checkpoint before
every event, so every table is folded many times over and each key's
mirror is warm.  Then it moves ``MOVES`` MACs to another port, one per
event, still taking a checkpoint before each, with
``encode_state_value`` counted in the store and the wrapper's
``rng.getstate`` counted, and asserts

* 0 whole-dict encodes per warm fold (each fold is spliced from the
  kept entry encodings, and writes what a whole encode writes);
* 0 ``Random.getstate`` calls per take (a deterministic bug never
  draws, so the snapshot is kept);
* every entry's ``state_size`` equal to the sum of its buffers.

It prints host microseconds per take (median), per take that folded
and per whole encode of one table (what a fold cost before it was
spliced), at ``SIZES`` MACs per switch.  It asserts no time: compare
two commits with alternated runs,

    PYTHONPATH=src python3 benchmarks/checkpoint_cost.py
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

from repro.apps import LearningSwitch
from repro.core.crashpad import checkpoint
from repro.core.crashpad.checkpoint import CheckpointStore
from repro.faults import crash_on
from repro.network.packet import tcp_packet
from repro.openflow.messages import PacketIn
from repro.openflow.serialization import encode_state_value

SWITCHES = (1, 2, 3, 4, 5)
SIZES = (250, 5_000)
#: Events in the measured pass, and timed whole encodes per table.
MOVES = 2_000
REPEATS = 21


class NullAPI:
    def emit(self, dpid, msg):
        pass

    def log(self, text):
        pass


def mac_of(dpid: int, index: int) -> str:
    return f"02:00:{dpid:02x}:00:{index >> 8:02x}:{index & 0xFF:02x}"


def packet_in(dpid: int, index: int, port: int) -> PacketIn:
    return PacketIn(dpid=dpid, in_port=port,
                    packet=tcp_packet(mac_of(dpid, index),
                                      "ff:ff:ff:ff:ff:ff", "10.0.0.1",
                                      "10.0.0.2"))


class Counted:
    """Counts calls of ``owner.name`` while installed, keeping the
    arguments of each."""

    def __init__(self, owner, name):
        self.owner, self.name = owner, name
        self.args = []
        self._original = getattr(owner, name)

    def __enter__(self):
        def counted(*args):
            self.args.append(args)
            return self._original(*args)
        setattr(self.owner, self.name, counted)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.name, self._original)


def folded(entry, before) -> bool:
    """Did ``entry`` write a fresh base for some MAC table?"""
    return any(key[0] == "macs" and len(buffers) == 1
               and before.buffers.get(key) is not buffers
               for key, buffers in entry.buffers.items())


def run(size: int) -> dict:
    app = crash_on(LearningSwitch(), payload_marker="CHECKPOINT-COST")
    app.startup(NullAPI())
    store = CheckpointStore()
    seq = 0
    for index in range(size):
        for dpid in SWITCHES:
            seq += 1
            store.take(app, before_seq=seq, now=float(seq))
            app.handle(packet_in(dpid, index, 1 + index % 4))

    take_us, fold_us = [], []
    with Counted(checkpoint, "encode_state_value") as encodes, \
            Counted(app.rng, "getstate") as getstates:
        for move in range(MOVES):
            seq += 1
            before = store.latest()
            start = perf_counter()
            entry = store.take(app, before_seq=seq, now=float(seq))
            took = perf_counter() - start
            (fold_us if folded(entry, before) else take_us).append(took)
            index = (move * 7919) % size
            dpid = SWITCHES[move % len(SWITCHES)]
            app.handle(packet_in(dpid, index, 1 + (index + 1 + move) % 4))
    whole = [args for args in encodes.args if type(args[0]) is dict]
    assert fold_us, "no fold in the measured pass"
    assert not whole, f"{len(whole)} whole-dict encodes in {len(fold_us)} folds"
    assert not getstates.args, f"{len(getstates.args)} getstate calls"
    for entry in store.history():
        assert entry.state_size == sum(len(buf) for buffers in
                                       entry.buffers.values()
                                       for buf in buffers)

    table = app.inner.mac_tables[SWITCHES[0]]
    encode_s = []
    for _ in range(REPEATS):
        start = perf_counter()
        encode_state_value(table)
        encode_s.append(perf_counter() - start)
    return {f"takes@{size}": MOVES,
            f"folds@{size}": len(fold_us),
            f"whole_dict_encodes_per_fold@{size}": len(whole) / len(fold_us),
            f"getstate_per_take@{size}": len(getstates.args) / MOVES,
            f"us_per_take@{size}": round(
                statistics.median(take_us + fold_us) * 1e6, 1),
            f"us_per_folding_take@{size}": round(
                statistics.median(fold_us) * 1e6, 1),
            f"us_per_whole_table_encode@{size}": round(
                statistics.median(encode_s) * 1e6, 1)}


def main() -> int:
    report = {}
    for size in SIZES:
        report.update(run(size))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
