"""The indexed ``FlowTable`` against the linear one it replaced.

Hypothesis drives both tables (``flowtable_oracle.FlowTable`` is the
old class, verbatim) through one random sequence of operations: every
FlowMod command, plain and ``_STRICT``, with and without ``out_port``;
several match shapes at one priority; packet hits; sweeps at instants
exactly on ``installed_at + hard_timeout`` and ``last_hit_at +
idle_timeout``; stats replies that re-adopt and prune; FlowRemoved
notes; and tables rebuilt with two entries of one rule.  After every
step the two must hold the same entries in the same order -- paired
object for object, so an equal entry in the wrong place fails too --
and every call must have returned the same thing.
"""

import dataclasses
import math
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

import flowtable_oracle as oracle
from repro.core.netlog.counter_cache import CounterCache
from repro.core.netlog.transaction import TransactionManager
from repro.network.packet import Packet
from repro.openflow.actions import Drop, Output
from repro.openflow.flowtable import FlowTable
from repro.openflow.match import Match
from repro.openflow.messages import (
    FlowMod,
    FlowModCommand,
    FlowStatsEntry,
    FlowStatsReply,
)

IN_PORTS = st.sampled_from([None, 1, 2])
DSTS = st.sampled_from([None, "a", "b"])
IPS = st.sampled_from([None, "10.0.0.1"])
TP = st.sampled_from([None, 80])
#: Few priorities, so several shapes share one.
PRIORITIES = st.sampled_from([1, 5, 9])
#: Sums of these do not round trip through subtraction exactly.
TIMEOUTS = st.sampled_from([0.0, 0.3, 0.7, 1.0, 2.5, 5.0])
STEPS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.1])

matches = st.builds(Match, in_port=IN_PORTS, eth_dst=DSTS, ip_dst=IPS,
                    tp_dst=TP)
flow_mods = st.builds(
    FlowMod, match=matches, command=st.sampled_from(list(FlowModCommand)),
    priority=PRIORITIES,
    actions=st.sampled_from([(), (Output(1),), (Output(2),),
                             (Output(1), Output(2)), (Drop(),)]),
    idle_timeout=TIMEOUTS, hard_timeout=TIMEOUTS,
    cookie=st.integers(0, 2), send_flow_removed=st.booleans(),
    out_port=st.sampled_from([None, 1, 2]))
packets = st.builds(Packet, eth_dst=DSTS.map(lambda d: d or "c"),
                    ip_dst=IPS, tp_dst=TP, size=st.integers(60, 1500))
#: What the invariant graph probes with: no ``Packet``, and any header
#: it does not carry reads as None.
probes = st.dictionaries(st.sampled_from(["eth_dst", "ip_dst", "tp_dst"]),
                         st.sampled_from(["a", "b", "10.0.0.1", 80]),
                         ).map(lambda attrs: SimpleNamespace(**attrs))
PICK = st.integers(0, 40)

MODS = st.tuples(st.just("mod"), flow_mods)
HITS = st.tuples(st.just("hit"), packets, IN_PORTS)
#: A packet (or a probe object) carrying the headers some entry matches.
AIMED = st.tuples(st.just("aim"), PICK, packets, st.booleans())
operations = st.one_of(
    MODS, MODS, MODS, HITS, AIMED, AIMED,
    st.tuples(st.just("tick"), STEPS),
    # An instant on a deadline, or one float step either side of it.
    st.tuples(st.just("deadline"), PICK, st.sampled_from(["hard", "idle"]),
              st.sampled_from([-math.inf, 0.0, math.inf])),
    st.tuples(st.just("probe"), probes, IN_PORTS),
    st.tuples(st.just("stats"), st.lists(PICK, max_size=6), st.booleans(),
              st.lists(st.tuples(matches, PRIORITIES), max_size=2)),
    st.tuples(st.just("removed"), PICK),
    st.tuples(st.just("twin"), PICK),
)


def _unstamped(messages):
    return [dataclasses.replace(m, xid=0) for m in messages]


class Pair:
    """The oracle and the indexed table, stepped together."""

    def __init__(self):
        self.old, self.new = oracle.FlowTable(), FlowTable()
        self.now = 0.0
        #: id(old entry) -> (old entry, the new entry it must be).
        self.pairs = {}

    def manager(self):
        """What ``TransactionManager``'s shadow steps read of ``self``."""
        return SimpleNamespace(sim=SimpleNamespace(now=self.now),
                               shadow={1: self.new},
                               counter_cache=CounterCache(),
                               STATS_GRACE=TransactionManager.STATS_GRACE)

    def check(self):
        assert len(self.old.entries) == len(self.new.entries)
        for old, new in zip(self.old.entries, self.new.entries):
            known = self.pairs.get(id(old))
            if known is not None and known[0] is old:
                assert known[1] is new, "entries out of order"
            else:
                self.pairs[id(old)] = (old, new)
            assert old == new

    def expire(self, at):
        assert _unstamped(self.new.expire(at, dpid=1)) == \
            _unstamped(self.old.expire(at, dpid=1))
        self.now = max(self.now, at)

    def lookup(self, packet, in_port):
        old = self.old.lookup(packet, in_port)
        new = self.new.lookup(packet, in_port)
        assert (new is None) if old is None else \
            new is self.pairs[id(old)][1]
        return old, new

    def touch(self, packet, in_port, hit):
        """Look ``packet`` up in both; on a hit, account it in both."""
        old, new = self.lookup(packet, in_port)
        if old is not None and hit:
            old.hit(packet, self.now)
            new.hit(packet, self.now)

    def step(self, op):
        kind, *args = op
        entries = self.old.entries
        at = picked = None
        if entries and kind in ("deadline", "removed", "twin", "aim"):
            at = args[0] % len(entries)
            picked = entries[at]
        if kind == "mod":
            assert self.new.apply_flow_mod(args[0], self.now) == \
                self.old.apply_flow_mod(args[0], self.now)
        elif kind == "tick":
            self.expire(self.now + args[0])
        elif kind == "deadline" and picked is not None:
            hard = args[1] == "hard" and picked.hard_timeout > 0
            due = (picked.installed_at + picked.hard_timeout if hard
                   else picked.last_hit_at + picked.idle_timeout)
            self.expire(math.nextafter(due, args[2]) if args[2] else due)
        elif kind in ("hit", "probe"):
            self.touch(*args, hit=kind == "hit")
        elif kind == "aim" and picked is not None:
            base, as_probe = args[1:]
            headers = {f: v for f, v in picked.match.to_dict().items()
                       if f != "in_port"}
            packet = SimpleNamespace(**headers) if as_probe else \
                dataclasses.replace(base, **headers)
            self.touch(packet, picked.match.in_port, hit=not as_probe)
        elif kind == "stats":
            picks, advance, ghosts = args
            rows = [FlowStatsEntry(
                match=e.match, priority=e.priority, actions=e.actions,
                packet_count=e.packet_count + advance,
                byte_count=e.byte_count + 100 * advance,
                duration=self.now - e.installed_at,
                idle_timeout=e.idle_timeout, hard_timeout=e.hard_timeout,
                cookie=e.cookie) for e in (entries[i % len(entries)]
                                           for i in picks if entries)]
            rows += [FlowStatsEntry(match=m, priority=p, actions=(Output(1),),
                                    packet_count=2, byte_count=200,
                                    duration=0.4, idle_timeout=1.0,
                                    hard_timeout=0.0) for m, p in ghosts]
            reply = FlowStatsReply(dpid=1, entries=rows)
            oracle.reconcile_stats(self.old, reply, self.now,
                                   TransactionManager.STATS_GRACE)
            TransactionManager.note_flow_stats(self.manager(), reply)
        elif kind == "removed" and picked is not None:
            oracle.forget_rule(self.old, picked.match, picked.priority)
            TransactionManager.note_flow_removed(
                self.manager(), 1, picked.match, picked.priority)
        elif kind == "twin" and picked is not None:
            # Two entries of one rule exist only where a table is built
            # from a list; a strict select must find the first.
            old = [e.clone() for e in entries]
            old.insert(at + 1, picked.clone())
            new = [e.clone() for e in old]
            self.old, self.new = oracle.FlowTable(entries=old), \
                FlowTable(entries=new)
            self.pairs = {id(o): (o, n) for o, n in zip(old, new)}
        self.check()


@given(st.lists(operations, min_size=5, max_size=60))
@settings(max_examples=400, deadline=None)
def test_indexed_table_steps_with_the_linear_one(ops):
    pair = Pair()
    for op in ops:
        pair.step(op)


def test_same_priority_tie_goes_to_the_earlier_entry():
    """Two shapes hit at one priority: the first installed wins, not
    the shape that sorts first."""
    for first, second in ((Match(eth_dst="a"), Match(tp_dst=80)),
                          (Match(tp_dst=80), Match(eth_dst="a"))):
        pair = Pair()
        for match in (first, second):
            pair.step(("mod", FlowMod(match=match, priority=5,
                                      actions=(Output(1),))))
        old, new = pair.lookup(Packet(eth_dst="a", tp_dst=80), 1)
        assert old.match == first


def test_hit_moves_the_deadline_and_the_sweep_keeps_the_entry():
    pair = Pair()
    pair.step(("mod", FlowMod(match=Match(eth_dst="a"), priority=5,
                              idle_timeout=1.0, send_flow_removed=True)))
    pair.step(("tick", 0.7))
    pair.step(("hit", Packet(eth_dst="a"), 1))
    pair.step(("tick", 0.7))               # past the first deadline
    assert len(pair.new) == 1
    pair.step(("tick", 0.3))               # on the moved one
    assert len(pair.new) == 0


def test_flow_removed_comes_out_in_table_order():
    """Due in one sweep, the lower-priority entry's deadline first: the
    messages still follow the table."""
    pair = Pair()
    for priority, idle in ((1, 0.3), (9, 0.7)):
        pair.step(("mod", FlowMod(match=Match(eth_dst="a"), priority=priority,
                                  idle_timeout=idle, send_flow_removed=True)))
    removed = pair.new.expire(1.0, dpid=1)
    assert [m.priority for m in removed] == [9, 1]


def test_pruned_twin_leaves_the_first_one_found():
    """Twins still equal in value when the second is pruned: the index
    must drop that object, not the first equal one."""
    pair = Pair()
    pair.step(("mod", FlowMod(match=Match(eth_dst="a"), priority=5,
                              actions=(Output(1),))))
    pair.step(("twin", 0))
    pair.step(("tick", 0.1))
    pair.step(("stats", [0], False, []))
    pair.step(("probe", SimpleNamespace(eth_dst="a"), 1))


def test_expiry_rounds_the_way_is_expired_does():
    """Installed at 0.2 + 0.7 == 0.8999999999999999 for 5 s: one float
    step before 0.8999999999999999 + 5.0 == 5.9, ``is_expired`` already
    holds, so the heap must not have filed the entry at 5.9."""
    pair = Pair()
    pair.step(("tick", 0.2))
    pair.step(("tick", 0.7))
    pair.step(("mod", FlowMod(match=Match(eth_dst="a"), hard_timeout=5.0,
                              send_flow_removed=True)))
    pair.step(("deadline", 0, "hard", -math.inf))
    assert len(pair.new) == 0
