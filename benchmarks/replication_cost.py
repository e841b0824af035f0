#!/usr/bin/env python3
"""What a transaction costs the replication path, in counts.

A bare ``ReplicaSet`` in ``crash`` mode (two switches, no app): a phase
of PacketOut-only transactions, then a phase of one-FlowMod
transactions, each spread over one simulated second and bracketed by
an idle second.  Heartbeats, stats polls and lease checks are periodic,
so whatever a phase's window holds beyond an idle window's is the
transactions'.  The same three windows run once more on a controller
with no replica set at all; what the replicated run adds over that
twin is replication's.  Per transaction it prints

* primary -> backup frames handed to the replication channels,
* MAC stamps (``keyring.stamps``; the backups' verifies mirror them),
* ``resolve_leaf`` calls (primary and backups together), and
* simulator callbacks attributable to replication.

Replication ships the NetLog's writes, so it asserts 0 of each per
empty transaction and exactly ``2 x backups`` frames per write
transaction (its record and its resolve, per backup) -- counts only,
never a time.  ``transport_cost.py`` is the sibling that times a
datagram.

    PYTHONPATH=src python3 benchmarks/replication_cost.py
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.runtime import LegoSDNRuntime
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.openflow.actions import Output
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, PacketOut
from repro.replication import ReplicaSet, byzantine

WINDOW = 1.0        # sim-s; a multiple of every periodic timer


class Probe:
    def __init__(self, backups: int):
        self.net = Network(linear_topology(2, 1), seed=0)
        self.runtime = LegoSDNRuntime(self.net.controller)
        self.replicas = (ReplicaSet(self.net, self.runtime, backups=backups)
                         if backups else None)
        self.leaves = 0
        self._resolve_leaf = byzantine.resolve_leaf
        self.net.start()
        # Stop between timer ticks, so every window holds whole periods.
        self.net.run_for(WINDOW + 0.0125)

    def count_leaf(self, *args):
        self.leaves += 1
        return self._resolve_leaf(*args)

    @staticmethod
    def _rebind_leaf(old, new) -> None:
        """Point every ``repro`` module that holds ``resolve_leaf`` by
        name (the primary's shipping, the backups' voting) at ``new``."""
        for name, module in list(sys.modules.items()):
            if (name.startswith("repro")
                    and getattr(module, "resolve_leaf", None) is old):
                module.resolve_leaf = new

    def counters(self) -> dict:
        replicas = self.replicas
        return {
            "frames": sum(r.channel.proxy_end.frames_sent
                          for r in replicas.replicas[1:]) if replicas else 0,
            "macs": replicas.keyring.stamps if replicas else 0,
            "leaves": self.leaves,
            "callbacks": self.net.sim.events_processed,
        }

    def window(self, messages=()) -> dict:
        """One WINDOW of sim time with one single-message transaction
        per entry of ``messages``, evenly spaced; the counter deltas."""
        manager = self.runtime.proxy.manager

        def transact(message):
            txn = manager.begin("probe")
            manager.apply(txn, 1, message)
            manager.commit(txn)

        for i, message in enumerate(messages):
            self.net.sim.schedule(i * WINDOW / len(messages),
                                  transact, message)
        before = self.counters()
        self.net.run_for(WINDOW)
        after = self.counters()
        return {key: after[key] - before[key] for key in before}

    def run(self, empties: int, writes: int) -> dict:
        """Per-transaction counts over an idle window's, per phase."""
        counting = self.count_leaf
        self._rebind_leaf(self._resolve_leaf, counting)
        try:
            idle = self.window()
            empty = self.window([
                PacketOut(packet=None, in_port=1, actions=(Output(2),))
                for _ in range(empties)])
            self.window()           # drain: the empties' last deliveries
            write = self.window([
                FlowMod(match=Match(tp_dst=9000 + i), priority=300,
                        actions=(Output(1),)) for i in range(writes)])
        finally:
            self._rebind_leaf(counting, self._resolve_leaf)
        return {
            "empty": {key: (empty[key] - idle[key]) / empties
                      for key in idle},
            "write": {key: (write[key] - idle[key]) / writes
                      for key in idle},
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backups", type=int, default=2)
    parser.add_argument("--empties", type=int, default=200)
    parser.add_argument("--writes", type=int, default=50)
    args = parser.parse_args()
    replicated = Probe(args.backups).run(args.empties, args.writes)
    twin = Probe(0).run(args.empties, args.writes)
    report = {"backups": args.backups, "empties": args.empties,
              "writes": args.writes}
    for phase in ("empty", "write"):
        # The twin sends the same messages to the same switches: what
        # it does not explain is the replica set's.
        replicated[phase]["callbacks"] -= twin[phase]["callbacks"]
        report[f"per_{phase}_txn"] = replicated[phase]
    print(json.dumps(report))
    assert report["per_empty_txn"] == {
        "frames": 0, "macs": 0, "leaves": 0, "callbacks": 0}, \
        "a transaction that wrote nothing reached the replication path"
    per_write = report["per_write_txn"]
    assert per_write["frames"] == per_write["macs"] == 2 * args.backups, \
        per_write
    # The primary's leaf and each backup's recomputation of it.
    assert per_write["leaves"] == 1 + args.backups, per_write
    return 0


if __name__ == "__main__":
    sys.exit(main())
