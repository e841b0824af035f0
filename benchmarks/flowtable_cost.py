#!/usr/bin/env python3
"""What a flow-table lookup, ADD and sweep cost the host, in scans.

Builds tables of ``LearningSwitch``-shaped rules (``in_port``,
``eth_src``, ``eth_dst`` at priority 100, 5 s idle timeout, one
``Output``) -- the rules every wallbench workload installs -- in the
indexed ``repro.openflow.flowtable.FlowTable`` and in the linear class
it replaced (``tests/flowtable_oracle.py``).  On ``BIG`` rules it counts
``Match.matches``, ``FlowEntry.same_rule`` and ``FlowEntry.is_expired``
calls and asserts

* 0 ``matches`` and 0 ``same_rule`` per lookup and per ADD (one that
  displaces a rule and one that does not);
* 0 ``is_expired`` for a sweep with nothing due;
* and that each answer equals the linear table's.

Then it prints host microseconds per lookup, per displacing ADD and
per sweep with nothing due, for both tables at ``SMALL`` and ``BIG``
rules.  It asserts no time: compare two commits with alternated runs,

    PYTHONPATH=src python3 benchmarks/flowtable_cost.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import flowtable_oracle  # noqa: E402
from repro.network.packet import tcp_packet  # noqa: E402
from repro.openflow.actions import Output  # noqa: E402
from repro.openflow.flowtable import FlowEntry, FlowTable  # noqa: E402
from repro.openflow.match import Match  # noqa: E402
from repro.openflow.messages import FlowMod  # noqa: E402

SMALL, BIG = 50, 2_000
#: Operations per timed pass, and passes (the median is printed).
OPS = 500
REPEATS = 5
IDLE_TIMEOUT = 5.0
COUNTED = ((Match, "matches"), (FlowEntry, "same_rule"),
           (FlowEntry, "is_expired"))


def mac(index: int) -> str:
    return f"02:00:00:00:{index >> 8:02x}:{index & 0xFF:02x}"


def rule(index: int) -> FlowMod:
    return FlowMod(match=Match(in_port=1 + index % 4, eth_src=mac(index),
                               eth_dst=mac(index + 1)),
                   priority=100, actions=(Output(1 + (index + 1) % 4),),
                   idle_timeout=IDLE_TIMEOUT)


def packet(index: int):
    return tcp_packet(mac(index), mac(index + 1), "10.0.0.1", "10.0.0.2")


def table(cls, size: int):
    built = cls()
    for index in range(size):
        built.apply_flow_mod(rule(index), 0.0)
    return built


class Counter:
    """Counts calls of the ``COUNTED`` methods while installed."""

    def __init__(self):
        self.calls = dict.fromkeys((name for _, name in COUNTED), 0)
        self._originals = [(owner, name, getattr(owner, name))
                           for owner, name in COUNTED]

    def __enter__(self):
        for owner, name, original in self._originals:
            setattr(owner, name, self._counting(name, original))
        return self

    def _counting(self, name, original):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return original(*args, **kwargs)
        return counted

    def __exit__(self, *exc):
        for owner, name, original in self._originals:
            setattr(owner, name, original)


def check_counts() -> dict:
    """Scans per operation on ``BIG`` rules, the linear table's beside."""
    counts = {}
    for cls in (flowtable_oracle.FlowTable, FlowTable):
        tables = table(cls, BIG), table(cls, BIG)
        answers = []
        with Counter() as counter:
            answers.append(tables[0].lookup(packet(BIG - 1), 1 + (BIG - 1) % 4))
            answers.append(tables[0].apply_flow_mod(rule(BIG - 1), 1.0))
            answers.append(tables[0].apply_flow_mod(rule(BIG), 1.0))
        # A sweep at a second table: counts apart from the writes.
        with Counter() as sweep:
            answers.append(tables[1].expire(IDLE_TIMEOUT / 2))
        counts[cls] = (counter.calls, sweep.calls, answers,
                       [e.match for e in tables[0]])
    (old_calls, old_sweep, old_answers, old_order), \
        (calls, sweep, answers, order) = counts.values()
    assert answers[1:] == old_answers[1:] and order == old_order
    assert answers[0] is not None and answers[0].match == old_answers[0].match
    assert calls["matches"] == calls["same_rule"] == 0, calls
    assert sweep["is_expired"] == 0, sweep
    return {"linear_matches_per_lookup": old_calls["matches"],
            "linear_same_rule_per_add": old_calls["same_rule"] / 2,
            "linear_is_expired_per_idle_sweep": old_sweep["is_expired"],
            "matches_per_lookup": calls["matches"],
            "same_rule_per_add": calls["same_rule"] / 2,
            "is_expired_per_idle_sweep": sweep["is_expired"]}


def time_ops(cls, size: int) -> dict:
    """Median µs per lookup, displacing ADD and idle sweep."""
    built = table(cls, size)
    picks = [(i * 7919) % size for i in range(OPS)]
    probes = [(packet(i), 1 + i % 4) for i in picks]
    mods = [rule(i) for i in picks]
    runs = {"lookup": [], "add": [], "sweep": []}
    for _ in range(REPEATS):
        start = perf_counter()
        for pkt, port in probes:
            built.lookup(pkt, port)
        runs["lookup"].append(perf_counter() - start)
        start = perf_counter()
        for mod in mods:
            built.apply_flow_mod(mod, 1.0)
        runs["add"].append(perf_counter() - start)
        start = perf_counter()
        for _ in range(OPS):
            built.expire(2.0)
        runs["sweep"].append(perf_counter() - start)
    assert len(built) == size
    return {op: round(statistics.median(times) / OPS * 1e6, 3)
            for op, times in runs.items()}


def main() -> int:
    report = {"counts_at": BIG, **check_counts()}
    for size in (SMALL, BIG):
        for label, cls in (("linear", flowtable_oracle.FlowTable),
                           ("indexed", FlowTable)):
            for op, us in time_ops(cls, size).items():
                report[f"{label}_us_per_{op}@{size}"] = us
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
