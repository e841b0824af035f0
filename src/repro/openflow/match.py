"""Flow match structure (OpenFlow 1.0 12-tuple subset).

A :class:`Match` selects packets by exact values on a subset of header
fields; unset fields (``None``) are wildcards.  The class supports the
two relations the rest of the system needs:

- ``matches(packet, in_port)`` -- does a concrete packet hit this match?
- ``is_subset_of(other)`` -- strict-match comparison used by
  ``DELETE_STRICT`` / non-strict ``DELETE`` flow-mod semantics.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Optional

from repro.record import record

#: Header fields a match may constrain, in canonical order.  The order
#: is part of the wire format (see :mod:`repro.openflow.serialization`).
MATCH_FIELDS = (
    "in_port",
    "eth_src",
    "eth_dst",
    "eth_type",
    "vlan_id",
    "ip_src",
    "ip_dst",
    "ip_proto",
    "tp_src",
    "tp_dst",
)


@record
class Match:
    """An immutable OpenFlow-style flow match.

    Every field is either ``None`` (wildcard) or an exact value.
    Addresses are plain strings ("00:00:00:00:00:01", "10.0.0.1") and
    numeric fields are ints, mirroring how the simulator's packet model
    represents headers.
    """

    in_port: Optional[int] = None
    eth_src: Optional[str] = None
    eth_dst: Optional[str] = None
    eth_type: Optional[int] = None
    vlan_id: Optional[int] = None
    ip_src: Optional[str] = None
    ip_dst: Optional[str] = None
    ip_proto: Optional[int] = None
    tp_src: Optional[int] = None
    tp_dst: Optional[int] = None

    # -- relations ---------------------------------------------------

    def matches(self, packet, in_port: Optional[int] = None) -> bool:
        """Return True if ``packet`` (arriving on ``in_port``) hits this match."""
        if self.in_port is not None and self.in_port != in_port:
            return False
        for field in MATCH_FIELDS[1:]:
            want = getattr(self, field)
            if want is not None and want != getattr(packet, field, None):
                return False
        return True

    def is_subset_of(self, other: "Match") -> bool:
        """True if every packet matching ``self`` also matches ``other``.

        ``other``'s wildcards are free; where ``other`` constrains a
        field, ``self`` must constrain it to the same value.
        """
        for field in MATCH_FIELDS:
            theirs = getattr(other, field)
            if theirs is None:
                continue
            if getattr(self, field) != theirs:
                return False
        return True

    # -- introspection -----------------------------------------------

    @classmethod
    def from_packet(cls, packet, in_port: Optional[int] = None) -> "Match":
        """Build the exact match that selects ``packet`` on ``in_port``.

        This is the classic reactive-flow-setup idiom: a LearningSwitch
        installs ``Match.from_packet(pkt, in_port)`` rules.
        """
        values = {"in_port": in_port}
        for field in MATCH_FIELDS[1:]:
            values[field] = getattr(packet, field, None)
        return cls(**values)

    def to_dict(self) -> dict:
        """Constrained fields only, as a plain dict (for tickets/logs)."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }

    def __str__(self) -> str:  # compact, log-friendly
        parts = [f"{k}={v}" for k, v in self.to_dict().items()]
        return "Match(" + ", ".join(parts) + ")" if parts else "Match(*)"


#: The match-all wildcard, used by table-clearing flow deletes.
MATCH_ALL = Match()
