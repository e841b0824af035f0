"""LegoSDN reproduction.

A production-quality Python reproduction of *Tolerating SDN Application
Failures with LegoSDN* (Chandrasekaran & Benson, HotNets-XIII, 2014).

The package is organised bottom-up:

- :mod:`repro.openflow` -- OpenFlow-1.0-style protocol substrate
  (matches, actions, messages, flow tables, the inversion algebra used
  by NetLog, and byte-level serialisation).
- :mod:`repro.network` -- a deterministic discrete-event network
  simulator standing in for Mininet/Open vSwitch.
- :mod:`repro.controller` -- a FloodLight-style controller core and the
  monolithic (fate-shared) baseline runtime.
- :mod:`repro.apps` -- the SDN applications surveyed in the paper's
  Table 2 and ported in its prototype.
- :mod:`repro.faults` -- fault-injection framework and the synthetic
  bug corpus modelled on the FlowScale bug-tracker study.
- :mod:`repro.invariants` -- a VeriFlow-style network invariant
  checker (black-holes, loops, reachability).
- :mod:`repro.core` -- the paper's contribution: AppVisor, NetLog,
  Crash-Pad, and the LegoSDN runtime that composes them.
- :mod:`repro.metrics`, :mod:`repro.workloads` -- measurement and
  workload-generation support used by the benchmark harness.
- :mod:`repro.stack` -- one way to assemble a deployment: a
  ``StackSpec`` value and ``build_stack``; :mod:`repro.scenario` --
  one way to drive it: a ``Scenario`` of timed steps and ``play``.

See ``examples/quickstart.py`` for a complete walk-through.
"""

from repro.version import __version__

__all__ = ["__version__"]
