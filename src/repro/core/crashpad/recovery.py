"""The CrashPad decision engine.

Given a detected failure (fail-stop, hang, or byzantine), CrashPad
answers the paper's three design questions:

1. *When to compromise correctness?* -- when the detector or the
   invariant checker says the app failed on an event.
2. *How much to compromise?* -- per the operator's policy table
   (No / Absolute / Equivalence compromise).
3. *How to stay safe while compromising?* -- transactions are rolled
   back by NetLog before recovery, and "No-Compromise invariants" can
   shut the network down rather than let a critical violation stand.

Execution of the decision (restoring checkpoints, re-delivering
transformed events) belongs to the AppVisor proxy, which owns the
queues and channels; CrashPad stays a pure decision component plus the
byzantine checker front-end, which keeps it unit-testable.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.controller.api import TopoView
from repro.core.crashpad.policies import CompromisePolicy, RecoveryDecision
from repro.core.crashpad.policy_lang import PolicyTable, default_policy_table
from repro.core.crashpad.ticket import TicketStore
from repro.core.crashpad.transformer import EventTransformer
from repro.invariants import (
    InvariantChecker,
    NetSnapshot,
    Violation,
    build_host_probes,
)
from repro.telemetry.tracer import NULL_TRACER


class CrashPad:
    """Failure-handling policy engine."""

    def __init__(self, policy_table: Optional[PolicyTable] = None,
                 tickets: Optional[TicketStore] = None):
        self.policy_table = policy_table or default_policy_table()
        self.transformer = EventTransformer()
        self.tickets = tickets or TicketStore()
        self.decisions: List[RecoveryDecision] = []
        #: Optional Telemetry; decisions and byzantine checks become
        #: trace events/spans.  The AppVisor proxy binds this to the
        #: deployment's telemetry at composition.
        self.telemetry = None

    # -- design question 2: how much to compromise -----------------------

    def decide(self, app_name: str, event, topo: TopoView) -> RecoveryDecision:
        """Pick the recovery action for ``app_name`` failing on ``event``.

        ``event`` may be None (the app died outside event handling,
        e.g. heartbeat loss while idle); recovery is then a plain
        restore with nothing to skip.
        """
        if event is None:
            decision = RecoveryDecision(
                policy=CompromisePolicy.ABSOLUTE,
                replacement_events=[],
                note="no offending event; restore only",
            )
            self.decisions.append(decision)
            return decision
        policy = self.policy_table.lookup(app_name, event.type_name)
        if policy is CompromisePolicy.NO_COMPROMISE:
            decision = RecoveryDecision(
                policy=policy,
                note="operator forbids compromise; app stays down",
            )
        elif policy is CompromisePolicy.ABSOLUTE:
            decision = RecoveryDecision(
                policy=policy,
                replacement_events=[],
                note="offending event ignored",
            )
        else:  # EQUIVALENCE
            replacements = self.transformer.transform(event, topo)
            if replacements is None:
                decision = RecoveryDecision(
                    policy=CompromisePolicy.ABSOLUTE,
                    replacement_events=[],
                    note=(f"no equivalence for {event.type_name}; "
                          "fell back to absolute compromise"),
                )
            else:
                decision = RecoveryDecision(
                    policy=policy,
                    replacement_events=list(replacements),
                    note=(f"{event.type_name} transformed into "
                          f"{len(replacements)} event(s)"),
                )
        self.decisions.append(decision)
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.tracer.event(
                "crashpad.decision", app=app_name,
                policy=decision.policy.value, note=decision.note,
            )
        return decision

    # -- byzantine detection ------------------------------------------------

    def check_byzantine(self, tables: Dict, topo: TopoView,
                        host_entries: Dict) -> List[Violation]:
        """Vet forwarding state against the network invariants.

        ``tables`` is a dpid -> FlowTable mapping (NetLog's shadow or a
        preview); topology and hosts come from the controller's view.
        Returns the violations found (empty = output looks sane).
        """
        snapshot = NetSnapshot.from_tables(tables, topo, host_entries)
        if not snapshot.hosts:
            return []  # nothing learned yet; nothing to check against
        tracer = (self.telemetry.tracer if self.telemetry is not None
                  else NULL_TRACER)
        with tracer.span("crashpad.byzantine_check") as span:
            checker = InvariantChecker(snapshot)
            probes = build_host_probes(snapshot)
            violations = []
            violations.extend(checker.check_loops(probes))
            violations.extend(checker.check_blackholes(probes))
            span.set_tag("violations", len(violations))
        return violations

    def has_critical(self, violations: List[Violation]) -> bool:
        """Did any violation touch a "No-Compromise" invariant (§5)?"""
        return any(v.critical for v in violations)
