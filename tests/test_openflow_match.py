"""Unit tests for the flow match structure."""

from repro.network.packet import Packet, tcp_packet
from repro.openflow.match import MATCH_ALL, MATCH_FIELDS, Match


def make_packet(**kwargs):
    defaults = dict(eth_src="00:00:00:00:00:01", eth_dst="00:00:00:00:00:02",
                    ip_src="10.0.0.1", ip_dst="10.0.0.2", ip_proto=6,
                    tp_src=1234, tp_dst=80)
    defaults.update(kwargs)
    return Packet(**defaults)


class TestMatching:
    def test_wildcard_matches_everything(self):
        assert MATCH_ALL.matches(make_packet(), in_port=1)
        assert MATCH_ALL.matches(make_packet(eth_src="aa:bb:cc:dd:ee:ff"), in_port=99)

    def test_exact_field_match(self):
        m = Match(eth_dst="00:00:00:00:00:02")
        assert m.matches(make_packet(), in_port=1)
        assert not m.matches(make_packet(eth_dst="00:00:00:00:00:03"), in_port=1)

    def test_in_port_constraint(self):
        m = Match(in_port=3)
        assert m.matches(make_packet(), in_port=3)
        assert not m.matches(make_packet(), in_port=4)

    def test_multiple_constraints_all_required(self):
        m = Match(ip_dst="10.0.0.2", tp_dst=80)
        assert m.matches(make_packet(), in_port=1)
        assert not m.matches(make_packet(tp_dst=443), in_port=1)
        assert not m.matches(make_packet(ip_dst="10.0.0.9"), in_port=1)

    def test_missing_packet_field_fails_constraint(self):
        m = Match(ip_proto=6)
        arp_like = Packet(eth_type=0x0806, ip_proto=None)
        assert not m.matches(arp_like, in_port=1)


class TestSubset:
    def test_everything_is_subset_of_wildcard(self):
        assert Match(eth_dst="x").is_subset_of(MATCH_ALL)
        assert MATCH_ALL.is_subset_of(MATCH_ALL)

    def test_wildcard_not_subset_of_constrained(self):
        assert not MATCH_ALL.is_subset_of(Match(eth_dst="x"))

    def test_equal_matches_are_mutual_subsets(self):
        a = Match(eth_dst="x", tp_dst=80)
        b = Match(eth_dst="x", tp_dst=80)
        assert a.is_subset_of(b) and b.is_subset_of(a)

    def test_tighter_is_subset_of_looser(self):
        tight = Match(eth_dst="x", tp_dst=80)
        loose = Match(eth_dst="x")
        assert tight.is_subset_of(loose)
        assert not loose.is_subset_of(tight)

    def test_disjoint_values_not_subset(self):
        assert not Match(eth_dst="x").is_subset_of(Match(eth_dst="y"))


class TestIntrospection:
    def test_wildcard_count_full(self):
        assert all(getattr(MATCH_ALL, f) is None for f in MATCH_FIELDS)
        assert MATCH_ALL.to_dict() == {}

    def test_specificity_counts_constrained_fields(self):
        assert Match(eth_dst="x", tp_dst=80).to_dict() == {
            "eth_dst": "x", "tp_dst": 80}

    def test_from_packet_is_exact(self):
        pkt = tcp_packet("a", "b", "1.1.1.1", "2.2.2.2")
        m = Match.from_packet(pkt, in_port=7)
        # vlan is None on the packet, so not exact, but matches the packet
        assert m.matches(pkt, in_port=7)
        assert m.in_port == 7
        assert m.eth_dst == "b"

    def test_to_dict_only_constrained(self):
        assert Match(tp_dst=80).to_dict() == {"tp_dst": 80}
        assert MATCH_ALL.to_dict() == {}

    def test_str_forms(self):
        assert str(MATCH_ALL) == "Match(*)"
        assert "tp_dst=80" in str(Match(tp_dst=80))

    def test_hashable_and_equal(self):
        assert Match(tp_dst=80) == Match(tp_dst=80)
        assert hash(Match(tp_dst=80)) == hash(Match(tp_dst=80))
        assert len({Match(tp_dst=80), Match(tp_dst=80), Match()}) == 2
