"""Property-based tests (hypothesis) on core data structures and invariants.

Each property encodes something the rest of the system silently relies
on: match algebra laws, flow-table ordering, the inversion round-trip,
serialisation totality, checkpoint fidelity, and policy-language
round-trips.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.apps import LearningSwitch
from repro.core.crashpad.checkpoint import CheckpointStore
from repro.core.crashpad.policies import CompromisePolicy
from repro.core.crashpad.policy_lang import PolicyRule, PolicyTable
from repro.network.packet import Packet
from repro.openflow.actions import Drop, Flood, Output
from repro.openflow.flowtable import FlowTable
from repro.openflow.inversion import invert
from repro.openflow.match import MATCH_FIELDS, Match
from repro.openflow.messages import FlowMod, FlowModCommand, PacketIn
from repro.openflow.serialization import decode_message, encode_message

# -- strategies -------------------------------------------------------

macs = st.sampled_from(
    [f"00:00:00:00:00:{i:02x}" for i in range(1, 6)] + [None])
ips = st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.3", None])
ports = st.sampled_from([1, 2, 3, None])
small_ints = st.integers(min_value=0, max_value=3)


@st.composite
def matches(draw):
    return Match(
        in_port=draw(ports),
        eth_src=draw(macs),
        eth_dst=draw(macs),
        ip_src=draw(ips),
        ip_dst=draw(ips),
        tp_dst=draw(st.sampled_from([80, 443, None])),
    )


@st.composite
def packets(draw):
    return Packet(
        eth_src=draw(macs) or "00:00:00:00:00:01",
        eth_dst=draw(macs) or "00:00:00:00:00:02",
        ip_src=draw(ips),
        ip_dst=draw(ips),
        tp_dst=draw(st.sampled_from([80, 443, 8080])),
        size=draw(st.integers(min_value=60, max_value=1500)),
        payload=draw(st.text(alphabet=string.ascii_letters, max_size=20)),
    )


actions_strategy = st.lists(
    st.sampled_from([Output(1), Output(2), Flood(), Drop()]),
    min_size=0, max_size=3).map(tuple)


@st.composite
def flow_mods(draw):
    return FlowMod(
        match=draw(matches()),
        command=draw(st.sampled_from(list(FlowModCommand))),
        priority=draw(st.integers(min_value=1, max_value=500)),
        actions=draw(actions_strategy),
        idle_timeout=draw(st.sampled_from([0.0, 5.0])),
        hard_timeout=draw(st.sampled_from([0.0, 30.0])),
    )


# -- match algebra ------------------------------------------------------


@given(matches())
def test_match_is_subset_of_itself(m):
    assert m.is_subset_of(m)


@given(matches())
def test_everything_subset_of_wildcard(m):
    assert m.is_subset_of(Match())


@given(matches(), packets(), st.sampled_from([1, 2, 3]))
def test_subset_semantics_agree_with_matching(a, pkt, in_port):
    """If a ⊆ wildcard-b and a matches a packet, b must match it too."""
    b = Match(eth_dst=a.eth_dst)  # b constrains at most one field of a
    if a.is_subset_of(b) and a.matches(pkt, in_port):
        assert b.matches(pkt, in_port)


@given(packets(), st.sampled_from([1, 2, 3]))
def test_from_packet_always_matches_its_packet(pkt, in_port):
    assert Match.from_packet(pkt, in_port).matches(pkt, in_port)


@given(matches())
def test_specificity_plus_wildcards_is_field_count(m):
    wildcards = sum(getattr(m, f) is None for f in MATCH_FIELDS)
    assert len(m.to_dict()) + wildcards == len(MATCH_FIELDS)


# -- flow table invariants -----------------------------------------------


@given(st.lists(flow_mods(), min_size=1, max_size=12))
@settings(max_examples=60)
def test_table_always_sorted_by_priority(mods):
    table = FlowTable()
    for mod in mods:
        table.apply_flow_mod(mod, 0.0)
    priorities = [e.priority for e in table]
    assert priorities == sorted(priorities, reverse=True)


@given(st.lists(flow_mods(), min_size=1, max_size=12))
@settings(max_examples=60)
def test_no_duplicate_strict_rules(mods):
    """At most one entry per (match, priority) -- ADD displaces."""
    table = FlowTable()
    for mod in mods:
        table.apply_flow_mod(mod, 0.0)
    keys = [(e.match, e.priority) for e in table]
    assert len(keys) == len(set(keys))


@given(st.lists(flow_mods(), min_size=1, max_size=10), packets(),
       st.sampled_from([1, 2, 3]))
@settings(max_examples=60)
def test_lookup_returns_highest_priority_match(mods, pkt, in_port):
    table = FlowTable()
    for mod in mods:
        table.apply_flow_mod(mod, 0.0)
    entry = table.lookup(pkt, in_port)
    matching = [e for e in table if e.match.matches(pkt, in_port)]
    if entry is None:
        assert matching == []
    else:
        assert entry.priority == max(e.priority for e in matching)


# -- inversion round-trip ---------------------------------------------------


@given(st.lists(flow_mods(), min_size=0, max_size=6), flow_mods())
@settings(max_examples=80)
def test_inversion_round_trip(setup_mods, mod):
    """apply(mod); apply(inverse(mod)) == identity, from any start state."""
    table = FlowTable()
    for setup in setup_mods:
        table.apply_flow_mod(setup, 0.0)
    fp_before = table.fingerprint()
    pre = table.apply_flow_mod(mod, 0.0)
    inversion = invert(mod, pre, dpid=1, now=0.0)
    for inverse in inversion.messages:
        table.apply_flow_mod(inverse, 0.0)
    assert table.fingerprint() == fp_before


@given(st.lists(flow_mods(), min_size=1, max_size=8))
@settings(max_examples=60)
def test_transaction_inversion_in_reverse_order(mods):
    """A whole transaction undone in reverse restores the start state."""
    table = FlowTable()
    table.apply_flow_mod(FlowMod(match=Match(eth_dst="00:00:00:00:00:01"),
                                 priority=250, actions=(Output(1),)), 0.0)
    fp_before = table.fingerprint()
    log = []
    for mod in mods:
        pre = table.apply_flow_mod(mod, 0.0)
        log.append(invert(mod, pre, 1, 0.0))
    for inversion in reversed(log):
        for inverse in inversion.messages:
            table.apply_flow_mod(inverse, 0.0)
    assert table.fingerprint() == fp_before


# -- serialisation totality ---------------------------------------------------


@given(flow_mods())
@settings(max_examples=80)
def test_flow_mod_wire_round_trip(mod):
    assert decode_message(encode_message(mod)) == mod


@given(packets(), st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_packet_in_wire_round_trip(pkt, dpid, in_port):
    msg = PacketIn(dpid=dpid, in_port=in_port, packet=pkt)
    decoded = decode_message(encode_message(msg))
    assert decoded == msg
    assert decoded.packet.payload == pkt.payload


# -- checkpoint fidelity --------------------------------------------------------


@given(st.dictionaries(
    st.integers(min_value=1, max_value=5),
    st.dictionaries(macs.filter(lambda m: m is not None),
                    st.integers(min_value=1, max_value=4), max_size=4),
    max_size=4))
@settings(max_examples=60)
def test_checkpoint_restore_is_exact(mac_tables):
    app = LearningSwitch()
    app.mac_tables = dict(mac_tables)
    app.flows_installed = sum(len(t) for t in mac_tables.values())
    store = CheckpointStore()
    checkpoint = store.take(app, 1, 0.0)
    app.mac_tables = {99: {"zz": 9}}
    app.flows_installed = -1
    store.restore(app, checkpoint)
    assert app.mac_tables == mac_tables
    assert app.flows_installed == sum(len(t) for t in mac_tables.values())


# -- policy language round-trip ---------------------------------------------------


app_patterns = st.sampled_from(["*", "firewall", "fw-*", "routing"])
event_patterns = st.sampled_from(["*", "PacketIn", "Switch*", "LinkRemoved"])
policies = st.sampled_from(list(CompromisePolicy))


@given(st.lists(st.tuples(app_patterns, event_patterns, policies),
                min_size=0, max_size=6))
def test_policy_table_render_parse_round_trip(rules):
    table = PolicyTable([PolicyRule(*rule) for rule in rules])
    reparsed = PolicyTable.parse(table.render())
    assert [(r.app_pattern, r.event_pattern, r.policy)
            for r in reparsed.rules] == \
        [(r.app_pattern, r.event_pattern, r.policy) for r in table.rules]


@given(st.lists(st.tuples(app_patterns, event_patterns, policies),
                min_size=0, max_size=6),
       st.sampled_from(["firewall", "routing", "fw-edge", "monitor"]),
       st.sampled_from(["PacketIn", "SwitchLeave", "LinkRemoved"]))
def test_policy_lookup_total(rules, app_name, event_type):
    """Lookup never fails and always returns a CompromisePolicy."""
    table = PolicyTable([PolicyRule(*rule) for rule in rules])
    assert isinstance(table.lookup(app_name, event_type), CompromisePolicy)
