"""The paper's contribution: AppVisor, NetLog, Crash-Pad, LegoSDN.

- :mod:`repro.core.appvisor` -- the isolation layer: each SDN-App runs
  in its own sandboxed process behind a serialised RPC channel.
- :mod:`repro.core.netlog` -- network-wide transactions with atomic
  all-or-nothing semantics and exact rollback (counters included).
- :mod:`repro.core.crashpad` -- failure detection and recovery:
  checkpoints, compromise policies, event transformations, tickets.
- :mod:`repro.core.runtime` -- the LegoSDN runtime composing the three.
- :mod:`repro.core.diversity`, :mod:`repro.core.upgrade` -- the §3.4
  use cases: N-version execution and controller upgrade survival.
"""

from repro.core.runtime import LegoSDNRuntime, RuntimeConfig

__all__ = ["LegoSDNRuntime", "RuntimeConfig"]
