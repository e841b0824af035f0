"""Failure signatures: what "the same failure" means across runs.

A signature normalises the three failure artefacts the stack produces
-- Crash-Pad problem tickets (app failures: crash, hang, byzantine),
controller :class:`~repro.controller.core.CrashRecord` entries, and
the no-failure case -- into one comparable value.  Absolute sim times
are deliberately excluded: a replay schedules events on its own clock,
so two runs reproduce *the same failure* when the failing app, the
failure class, and the exception text agree, not when their timestamps
do.  That exclusion is what makes the replay-determinism contract
("byte-identical signature across runs") checkable with a plain
equality.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

#: The failure detector's kinds (heartbeat loss, event timeout): no
#: exception was raised.
SILENT_KINDS = ("hang", "fail-stop-silent")


@dataclass(frozen=True)
class FailureSignature:
    """One run's failure outcome, time-free and comparable."""

    #: "app-failure" (a problem ticket was filed),
    #: "controller-crash" (fate-sharing reached the process), or
    #: "none" (the run finished clean).
    kind: str
    #: The failing app (tickets) or crash culprit (crash records).
    app: str = ""
    #: The ticket's failure class: "fail-stop" | "fail-stop-silent" |
    #: "hang" | "byzantine".
    failure_kind: str = ""
    #: Exception text ("" for the silent failures, ``SILENT_KINDS``).
    exception: str = ""

    @property
    def failed(self) -> bool:
        return self.kind != "none"

    def matches(self, other: "FailureSignature") -> bool:
        return self == other

    def to_dict(self) -> dict:
        return asdict(self)

    def describe(self) -> str:
        if not self.failed:
            return "no failure"
        detail = f": {self.exception}" if self.exception else ""
        return f"{self.kind} [{self.failure_kind}] in {self.app}{detail}"

    # -- constructors -----------------------------------------------------

    @classmethod
    def none(cls) -> "FailureSignature":
        return cls(kind="none")

    @classmethod
    def from_ticket(cls, ticket) -> "FailureSignature":
        # A silent failure's ticket text is the detector's reason (which
        # its failure kind already names) and how long the app was
        # silent: a duration on the run's own clock.
        silent = ticket.failure_kind in SILENT_KINDS
        return cls(kind="app-failure", app=ticket.app_name,
                   failure_kind=ticket.failure_kind,
                   exception="" if silent else ticket.exception)

    @classmethod
    def from_crash_record(cls, record) -> "FailureSignature":
        return cls(kind="controller-crash", app=record.culprit,
                   failure_kind="fail-stop", exception=record.exception)

    @classmethod
    def from_run(cls, runtime) -> "FailureSignature":
        """The signature of a finished run: first ticket wins, then the
        first controller crash, then clean."""
        tickets = runtime.tickets.all()
        if tickets:
            return cls.from_ticket(tickets[0])
        records = runtime.controller.crash_records
        if records:
            return cls.from_crash_record(records[0])
        return cls.none()
