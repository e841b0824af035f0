"""Sandboxed app processes: the fault boundary.

"AppVisor's objective is to separate the address space of the
SDN-Apps from each other, and more importantly, from that of the
controller, by running them in different processes.  The address space
separation enables containment of SDN-App crashes to the processes (or
containers) in which they are running in." (§3.1)

:class:`SandboxProcess` is the fault domain: an exception thrown by the
hosted app kills *this process only* -- it is converted into a
:class:`DeliveryOutcome` instead of propagating, exactly what a real
process boundary does.  The sandbox also enforces the paper's §3.4
"Per Application Resource Limits" use case via :class:`ResourceLimits`.
"""

from __future__ import annotations

import enum
import inspect
import os
import traceback
from dataclasses import dataclass
from typing import Optional

import repro
from repro.faults.bugs import AppHang
from repro.record import record

#: Directory the ``repro`` package sits in: file names in a crash
#: report are written relative to it.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(
    os.path.abspath(repro.__file__))) + os.sep


class ResourceLimitExceeded(RuntimeError):
    """An app blew through an operator-configured resource limit."""


class ProcessState(enum.Enum):
    RUNNING = "running"
    CRASHED = "crashed"
    HUNG = "hung"


@record
class ResourceLimits:
    """Operator-set caps for one app (§3.4).

    ``max_events`` models a CPU budget (events processed per process
    lifetime); ``max_state_bytes`` a memory cap on the app's
    checkpointable image.  ``None`` disables a limit.
    """

    max_events: Optional[int] = None
    max_state_bytes: Optional[int] = None


@dataclass
class DeliveryOutcome:
    """What happened when an event was delivered into the sandbox."""

    status: str  # "ok" | "crashed" | "hung" | "dead"
    error: str = ""
    traceback_text: str = ""
    command: object = None  # the app handler's return value (Command)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class SandboxProcess:
    """One isolated app process."""

    def __init__(self, app, limits: Optional[ResourceLimits] = None):
        self.app = app
        self.limits = limits or ResourceLimits()
        self.state = ProcessState.RUNNING
        self.events_delivered = 0
        self.crash_count = 0
        self.last_error: str = ""

    @property
    def alive(self) -> bool:
        return self.state is ProcessState.RUNNING

    def deliver(self, event) -> DeliveryOutcome:
        """Run the app's handler inside the fault boundary."""
        if not self.alive:
            return DeliveryOutcome(status="dead",
                                   error=f"process is {self.state.value}")
        if (self.limits.max_events is not None
                and self.events_delivered >= self.limits.max_events):
            self.kill("resource limit: max_events exceeded")
            return DeliveryOutcome(status="crashed", error=self.last_error)
        try:
            command = self.app.handle(event)
        except AppHang as exc:
            # The process wedged: alive to the OS, silent to everyone.
            self.state = ProcessState.HUNG
            self.last_error = f"hang: {exc}"
            return DeliveryOutcome(status="hung", error=self.last_error)
        except Exception as exc:  # noqa: BLE001 - this IS the fault boundary
            self.kill(f"{type(exc).__name__}: {exc}")
            return DeliveryOutcome(
                status="crashed",
                error=self.last_error,
                traceback_text=self._app_traceback(exc),
            )
        self.events_delivered += 1
        return DeliveryOutcome(status="ok", command=command)

    def _app_traceback(self, exc: BaseException) -> str:
        """The crash's traceback as the *app* produced it: the frames at
        and below ``app.handle`` (not this sandbox's, nor any wrapper a
        tool patched around the handler), file names relative to the
        package root.  The text ships in a CrashReport, and what the
        simulation does must not depend on where the checkout lives.
        App-frame line numbers and source text are part of the
        simulated bytes: an edit in ``apps/``, ``faults/`` or
        ``core/diversity.py`` that changes a crashing frame's line
        number by a digit, or its source line, moves ``sim_digest``."""
        handle = getattr(inspect.unwrap(self.app.handle), "__code__", None)
        above, tb = 0, exc.__traceback__
        while tb is not None and tb.tb_frame.f_code is not handle:
            above, tb = above + 1, tb.tb_next
        report = traceback.TracebackException.from_exception(exc)
        # A handler that cannot be found keeps everything below deliver().
        del report.stack[:above if tb is not None else 1]
        chained = report
        while chained is not None:
            for frame in chained.stack:
                if frame.filename.startswith(_PACKAGE_ROOT):
                    frame.filename = frame.filename[len(_PACKAGE_ROOT):]
                else:
                    frame.filename = os.path.basename(frame.filename)
            chained = chained.__cause__ or chained.__context__
        return "".join(report.format())

    def check_state_size(self, nbytes: int) -> None:
        """Enforce the memory cap against a fresh checkpoint size."""
        if (self.limits.max_state_bytes is not None
                and nbytes > self.limits.max_state_bytes):
            self.kill(f"resource limit: state {nbytes}B > "
                      f"{self.limits.max_state_bytes}B cap")
            raise ResourceLimitExceeded(self.last_error)

    def kill(self, error: str) -> None:
        """The process dies of ``error`` -- raised by a handler, a
        breached limit, or (the stub's call) a state that could not be
        checkpointed."""
        self.state = ProcessState.CRASHED
        self.crash_count += 1
        self.last_error = error

    def revive(self) -> None:
        """Bring the process back after a checkpoint restore."""
        self.state = ProcessState.RUNNING
