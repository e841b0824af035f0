"""Tests for NetLog: transactions, rollback, counter-cache, delay buffer."""

import pytest

from repro.controller.core import Controller
from repro.core.netlog import (
    CounterCache,
    DelayBuffer,
    NetLogRecord,
    RollbackExecutor,
    TransactionManager,
    TxnState,
    WriteAheadLog,
)
from repro.core.netlog.rollback import fingerprint_tables, tables_equal
from repro.network.net import Network
from repro.network.topology import linear_topology
from repro.openflow.actions import Drop, Output
from repro.openflow.inversion import CounterRecord
from repro.openflow.match import Match
from repro.openflow.messages import (
    FlowMod,
    FlowModCommand,
    FlowStatsEntry,
    FlowStatsReply,
    PacketOut,
)


@pytest.fixture
def net():
    net = Network(linear_topology(3, 1), seed=0)
    net.start()
    net.run_for(0.2)
    return net


@pytest.fixture
def manager(net):
    return TransactionManager(net.controller)


def add_mod(dst="d", priority=100, actions=(Output(1),), **kw):
    return FlowMod(match=Match(eth_dst=dst), command=FlowModCommand.ADD,
                   priority=priority, actions=actions, **kw)


class TestTransactionLifecycle:
    def test_commit_makes_rules_permanent(self, net, manager):
        txn = manager.begin("app", "test")
        manager.apply(txn, 1, add_mod("a"))
        manager.apply(txn, 2, add_mod("a"))
        manager.commit(txn)
        net.run_for(0.1)
        assert txn.state is TxnState.COMMITTED
        assert len(net.switch(1).flow_table) == 1
        assert len(net.switch(2).flow_table) == 1
        assert manager.committed == 1

    def test_abort_rolls_back_real_switches(self, net, manager):
        fp_before = fingerprint_tables(
            {d: s.flow_table for d, s in net.switches.items()})
        txn = manager.begin("app", "test")
        manager.apply(txn, 1, add_mod("a"))
        manager.apply(txn, 2, add_mod("b"))
        net.run_for(0.1)
        assert net.total_flow_entries() == 2  # eager apply
        manager.abort(txn)
        net.run_for(0.1)
        fp_after = fingerprint_tables(
            {d: s.flow_table for d, s in net.switches.items()})
        assert fp_before == fp_after
        assert manager.aborted == 1

    def test_abort_restores_displaced_rule(self, net, manager):
        setup = manager.begin("app", "setup")
        manager.apply(setup, 1, add_mod("a", actions=(Output(1),)))
        manager.commit(setup)
        net.run_for(0.1)
        txn = manager.begin("app", "overwrite")
        manager.apply(txn, 1, add_mod("a", actions=(Drop(),)))
        net.run_for(0.1)
        assert net.switch(1).flow_table.entries[0].actions == (Drop(),)
        manager.abort(txn)
        net.run_for(0.1)
        assert net.switch(1).flow_table.entries[0].actions == (Output(1),)

    def test_abort_restores_deleted_rules_with_counters_cached(self, net, manager):
        setup = manager.begin("app", "setup")
        manager.apply(setup, 1, add_mod("a"))
        manager.commit(setup)
        net.run_for(0.1)
        # account traffic on the shadow entry
        manager.shadow_table(1).entries[0].packet_count = 9
        manager.shadow_table(1).entries[0].byte_count = 900
        txn = manager.begin("app", "delete")
        manager.apply(txn, 1, FlowMod(match=Match(eth_dst="a"),
                                      command=FlowModCommand.DELETE))
        manager.abort(txn)
        net.run_for(0.1)
        assert len(net.switch(1).flow_table) == 1
        cached = manager.counter_cache.lookup(1, Match(eth_dst="a"), 100)
        assert cached is not None and cached.packet_count == 9

    def test_committed_delete_forgets_counters(self, net, manager):
        setup = manager.begin("app", "setup")
        manager.apply(setup, 1, add_mod("a"))
        manager.commit(setup)
        # cache something for the rule first
        manager.counter_cache.store(CounterRecord(
            dpid=1, match=Match(eth_dst="a"), priority=100,
            packet_count=5, byte_count=500,
            original_installed_at=0.0, idle_timeout=0, hard_timeout=0))
        txn = manager.begin("app", "delete")
        manager.apply(txn, 1, FlowMod(match=Match(eth_dst="a"),
                                      command=FlowModCommand.DELETE))
        manager.commit(txn)
        assert manager.counter_cache.lookup(1, Match(eth_dst="a"), 100) is None

    def test_apply_to_closed_txn_rejected(self, manager):
        txn = manager.begin("app", "t")
        manager.commit(txn)
        with pytest.raises(ValueError):
            manager.apply(txn, 1, add_mod())

    def test_abort_is_idempotent(self, manager):
        txn = manager.begin("app", "t")
        manager.apply(txn, 1, add_mod())
        assert manager.abort(txn) > 0
        assert manager.abort(txn) == 0
        assert manager.aborted == 1

    def test_packet_out_is_passthrough(self, net, manager):
        txn = manager.begin("app", "t")
        manager.apply(txn, 1, PacketOut())
        assert txn.passthrough_count == 1
        assert txn.records == []
        assert manager.abort(txn) == 0  # nothing to undo


class TestShadowTables:
    def test_shadow_mirrors_applied_mods(self, manager):
        txn = manager.begin("app", "t")
        manager.apply(txn, 1, add_mod("a"))
        assert len(manager.shadow_table(1)) == 1

    def test_note_flow_removed_syncs_shadow_and_cache(self, manager):
        txn = manager.begin("app", "t")
        manager.apply(txn, 1, add_mod("a"))
        manager.commit(txn)
        manager.counter_cache.store(CounterRecord(
            dpid=1, match=Match(eth_dst="a"), priority=100,
            packet_count=1, byte_count=1,
            original_installed_at=0, idle_timeout=0, hard_timeout=0))
        manager.note_flow_removed(1, Match(eth_dst="a"), 100)
        assert len(manager.shadow_table(1)) == 0
        assert manager.counter_cache.lookup(1, Match(eth_dst="a"), 100) is None

    def test_note_switch_reset_clears_shadow(self, manager):
        txn = manager.begin("app", "t")
        manager.apply(txn, 1, add_mod("a"))
        manager.commit(txn)
        manager.note_switch_reset(1)
        assert len(manager.shadow_table(1)) == 0

    def test_preview_does_not_touch_shadow(self, manager):
        preview = manager.preview_tables([(1, add_mod("x"))])
        assert len(preview[1]) == 1
        assert len(manager.shadow_table(1)) == 0

    def test_shadow_expires_timeouts_lazily(self, net, manager):
        txn = manager.begin("app", "t")
        manager.apply(txn, 1, add_mod("a", hard_timeout=0.5))
        manager.commit(txn)
        net.run_for(1.0)
        assert len(manager.shadow_table(1)) == 0


def stats_entry(dst="a", priority=100, packet_count=0, duration=0.0,
                idle_timeout=0.0, actions=(Output(1),)):
    return FlowStatsEntry(match=Match(eth_dst=dst), priority=priority,
                          actions=actions, packet_count=packet_count,
                          byte_count=packet_count * 100, duration=duration,
                          idle_timeout=idle_timeout, hard_timeout=0.0)


class TestStatsReconcile:
    """note_flow_stats: the stats-polling view of switch truth."""

    def test_counter_advance_refreshes_idle_clock(self, net, manager):
        txn = manager.begin("app", "t")
        manager.apply(txn, 1, add_mod("a", idle_timeout=1.0))
        manager.commit(txn)
        net.run_for(0.9)  # almost idle-expired in the shadow's view
        manager.note_flow_stats(FlowStatsReply(dpid=1, entries=[
            stats_entry("a", packet_count=5, idle_timeout=1.0)]))
        [entry] = manager.shadow[1].entries
        assert entry.last_hit_at == net.now
        assert entry.packet_count == 5
        net.run_for(0.5)  # would have expired without the refresh
        assert len(manager.shadow_table(1)) == 1

    def test_quiet_counters_do_not_refresh(self, net, manager):
        txn = manager.begin("app", "t")
        manager.apply(txn, 1, add_mod("a", idle_timeout=1.0))
        manager.commit(txn)
        [entry] = manager.shadow[1].entries
        hit_before = entry.last_hit_at
        manager.note_flow_stats(FlowStatsReply(dpid=1, entries=[
            stats_entry("a", packet_count=0, idle_timeout=1.0)]))
        assert entry.last_hit_at == hit_before

    def test_unreported_stale_entry_pruned(self, net, manager):
        txn = manager.begin("app", "t")
        manager.apply(txn, 1, add_mod("a"))
        manager.commit(txn)
        net.run_for(1.0)  # well past STATS_GRACE
        manager.note_flow_stats(FlowStatsReply(dpid=1, entries=[]))
        assert len(manager.shadow_table(1)) == 0

    def test_fresh_entry_survives_empty_report(self, net, manager):
        """A FlowMod may still be in flight to the switch: its shadow
        entry is within the grace window and must not be pruned."""
        txn = manager.begin("app", "t")
        manager.apply(txn, 1, add_mod("a"))
        manager.note_flow_stats(FlowStatsReply(dpid=1, entries=[]))
        assert len(manager.shadow_table(1)) == 1

    def test_reported_unknown_rule_readopted(self, net, manager):
        manager.note_flow_stats(FlowStatsReply(dpid=1, entries=[
            stats_entry("ghost", packet_count=3, duration=2.0,
                        idle_timeout=5.0)]))
        [entry] = manager.shadow[1].entries
        assert entry.match == Match(eth_dst="ghost")
        assert entry.installed_at == pytest.approx(net.sim.now - 2.0)
        assert entry.packet_count == 3

    def test_first_of_two_same_rule_entries_takes_the_stats(self, net,
                                                            manager):
        """Two shadow entries with one (match, priority): the stats go
        to the first in table order, as a strict lookup would find it;
        the second is unreported and, past the grace window, pruned."""
        txn = manager.begin("app", "t")
        manager.apply(txn, 1, add_mod("a"))
        manager.commit(txn)
        table = manager.shadow[1]
        [first] = table.entries
        twin = first.clone()
        table.entries.append(twin)
        net.run_for(1.0)
        manager.note_flow_stats(FlowStatsReply(dpid=1, entries=[
            stats_entry("a", packet_count=4)]))
        assert table.entries == [first] and table.entries[0] is first
        assert first.packet_count == 4 and twin.packet_count == 0

    def test_rule_reported_twice_in_one_reply_is_readopted_once(
            self, net, manager):
        manager.note_flow_stats(FlowStatsReply(dpid=1, entries=[
            stats_entry("ghost", packet_count=3),
            stats_entry("other", priority=50, packet_count=1),
            stats_entry("ghost", packet_count=9)]))
        entries = manager.shadow[1].entries
        assert [(e.match.eth_dst, e.packet_count) for e in entries] == [
            ("ghost", 9), ("other", 1)]


class TestRollbackExecutor:
    def test_rollback_all_reverse_order(self, net, manager):
        executor = RollbackExecutor(manager)
        fp = fingerprint_tables({d: s.flow_table for d, s in net.switches.items()})
        txns = []
        for i in range(3):
            txn = manager.begin("app", f"t{i}")
            manager.apply(txn, 1, add_mod(f"dst{i}", priority=10 + i))
            txns.append(txn)
        report = executor.rollback_all(txns)
        net.run_for(0.1)
        assert report.transactions_rolled_back == 3
        assert report.inverse_messages_sent == 3
        assert fingerprint_tables(
            {d: s.flow_table for d, s in net.switches.items()}) == fp

    def test_interleaved_rollback_restores_exactly(self, net, manager):
        """Overlapping rules across transactions still restore cleanly."""
        executor = RollbackExecutor(manager)
        base = manager.begin("app", "base")
        manager.apply(base, 1, add_mod("a", actions=(Output(1),)))
        manager.commit(base)
        net.run_for(0.1)
        fp = fingerprint_tables({1: net.switch(1).flow_table})
        t1 = manager.begin("app", "t1")
        manager.apply(t1, 1, add_mod("a", actions=(Output(2),)))  # displace
        t2 = manager.begin("app", "t2")
        manager.apply(t2, 1, FlowMod(match=Match(eth_dst="a"),
                                     command=FlowModCommand.DELETE))
        executor.rollback_all([t1, t2])
        net.run_for(0.1)
        assert fingerprint_tables({1: net.switch(1).flow_table}) == fp

    def test_tables_equal_helper(self):
        from repro.openflow.flowtable import FlowTable

        a, b = FlowTable(), FlowTable()
        assert tables_equal({1: a}, {1: b})
        a.apply_flow_mod(add_mod("x"), 0.0)
        assert not tables_equal({1: a}, {1: b})


class TestCounterCache:
    def test_store_lookup_forget(self):
        cache = CounterCache()
        record = CounterRecord(dpid=1, match=Match(eth_dst="a"), priority=5,
                               packet_count=3, byte_count=300,
                               original_installed_at=0.0,
                               idle_timeout=0, hard_timeout=0)
        cache.store(record)
        assert cache.lookup(1, Match(eth_dst="a"), 5) == record
        cache.forget(1, Match(eth_dst="a"), 5)
        assert cache.lookup(1, Match(eth_dst="a"), 5) is None

    def test_repeated_restores_accumulate(self):
        cache = CounterCache()
        for count in (3, 4):
            cache.store(CounterRecord(
                dpid=1, match=Match(eth_dst="a"), priority=5,
                packet_count=count, byte_count=count * 10,
                original_installed_at=0.0, idle_timeout=0, hard_timeout=0))
        cached = cache.lookup(1, Match(eth_dst="a"), 5)
        assert cached.packet_count == 7
        assert cached.byte_count == 70

    def test_patch_flow_stats(self):
        cache = CounterCache()
        cache.store(CounterRecord(
            dpid=1, match=Match(eth_dst="a"), priority=5,
            packet_count=100, byte_count=1000,
            original_installed_at=0.0, idle_timeout=0, hard_timeout=0))
        reply = FlowStatsReply(dpid=1, entries=[
            FlowStatsEntry(match=Match(eth_dst="a"), priority=5,
                           actions=(Output(1),), packet_count=2,
                           byte_count=20, duration=1.0,
                           idle_timeout=0, hard_timeout=0),
            FlowStatsEntry(match=Match(eth_dst="other"), priority=5,
                           actions=(Output(1),), packet_count=9,
                           byte_count=90, duration=1.0,
                           idle_timeout=0, hard_timeout=0),
        ])
        patched = cache.patch_flow_stats(reply)
        assert patched.entries[0].packet_count == 102
        assert patched.entries[0].byte_count == 1020
        assert patched.entries[1].packet_count == 9  # untouched
        assert reply.entries[0].packet_count == 2    # original intact

    def test_patch_noop_without_cache_hits(self):
        cache = CounterCache()
        reply = FlowStatsReply(dpid=1, entries=[])
        assert cache.patch_flow_stats(reply) is reply

    def test_patch_counts_helper(self):
        cache = CounterCache()
        assert cache.patch_counts(1, Match(), 1, 5, 50) == (5, 50)
        cache.store(CounterRecord(
            dpid=1, match=Match(), priority=1, packet_count=10,
            byte_count=100, original_installed_at=0,
            idle_timeout=0, hard_timeout=0))
        assert cache.patch_counts(1, Match(), 1, 5, 50) == (15, 150)


class TestWAL:
    def test_per_transaction_query(self):
        wal = WriteAheadLog()
        for txn_id in (1, 1, 2):
            wal.append(NetLogRecord(txn_id=txn_id, dpid=1, message=add_mod(),
                                    inverse_messages=[], counter_records=[],
                                    applied_at=0.0))
        assert len(wal.for_transaction(1)) == 2
        assert len(wal) == 3
        assert wal.drop_transaction(1) == 2
        assert len(wal) == 1

    def test_bounded_retention(self):
        wal = WriteAheadLog(max_records=5)
        for i in range(10):
            wal.append(NetLogRecord(txn_id=i, dpid=1, message=add_mod(),
                                    inverse_messages=[], counter_records=[],
                                    applied_at=0.0))
        assert len(wal) == 5
        assert wal.records[0].txn_id == 5


class TestDelayBuffer:
    def test_hold_then_flush_applies_batch(self, net, manager):
        buffer = DelayBuffer(manager)
        buffer.hold("app", 1, 1, add_mod("a"))
        buffer.hold("app", 1, 2, add_mod("a"))
        assert net.total_flow_entries() == 0
        net.run_for(0.1)
        assert net.total_flow_entries() == 0  # still held
        txn = buffer.flush("app", 1)
        net.run_for(0.1)
        assert net.total_flow_entries() == 2
        assert txn.state is TxnState.COMMITTED

    def test_discard_never_touches_network(self, net, manager):
        buffer = DelayBuffer(manager)
        buffer.hold("app", 1, 1, add_mod("a"))
        assert buffer.discard("app", 1) == 1
        net.run_for(0.2)
        assert net.total_flow_entries() == 0
        assert buffer.outstanding() == 0

    def test_flush_without_commit_leaves_txn_open(self, net, manager):
        buffer = DelayBuffer(manager)
        buffer.hold("app", 1, 1, add_mod("a"))
        txn = buffer.flush("app", 1, commit=False)
        assert txn.state is TxnState.OPEN
        manager.abort(txn)
        net.run_for(0.1)
        assert net.total_flow_entries() == 0

    def test_separate_buffers_per_event(self, manager):
        buffer = DelayBuffer(manager)
        buffer.hold("app", 1, 1, add_mod("a"))
        buffer.hold("app", 2, 1, add_mod("b"))
        assert len(buffer.pending("app", 1)) == 1
        assert len(buffer.pending("app", 2)) == 1
