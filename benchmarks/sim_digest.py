#!/usr/bin/env python3
"""What "simulation unchanged" means, pinned.

``wallbench/run.py`` prints a ``DETAIL`` line whose ``sim_digest`` is
every seed-determined count of the run (events offered and completed,
frames, bytes, datagrams, simulator callbacks, checkpoint takes, ...).
It is a function of the simulated behaviour alone -- not of the host's
speed, the checkout path or whether the run was traced -- so two
commits that simulate the same thing print the same digest.

Modelled latency is pinned the same way.  For every workload that runs
AppVisor, a ``--pass telemetry`` run adds its ``sim_event_ms`` (the
nearest-rank sim-clock latency of ``appvisor.event``) as
``event_ms_count`` / ``_p50`` / ``_p99`` / ``_max``.  That pass's own
``sim_digest`` is not used: trace ids ride the frames and move its
byte counts.  ``monolithic`` has no AppVisor, hence no such keys.

``SIM_DIGEST.json`` (repo root) holds the digest (``failed`` is one of
its keys) of the four workloads at ``--seed 0 --seconds 3``.  A
host-side optimisation must leave ``check`` green; a PR that *means* to
move simulated behaviour -- a modelled delay or cost included -- runs
``record`` and says which keys moved.

One caveat: a ``CrashReport`` frame carries the app's traceback text,
so ``crash-recover``'s ``app_bytes`` follows the interpreter's traceback
format.  The file was recorded under CPython 3.11; 3.12 prints the same
digest, 3.13 does not (240 bytes more) -- check with one of the former.

Usage (stdlib only, no ``PYTHONPATH`` needed)::

    python3 benchmarks/sim_digest.py check
    python3 benchmarks/sim_digest.py record
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGEST_PATH = ROOT / "SIM_DIGEST.json"
WORKLOADS = ("steady", "monolithic", "crash-recover", "sharded-failover")
#: The workloads that run AppVisor, so have an ``appvisor.event`` latency.
LATENCY_WORKLOADS = ("steady", "crash-recover", "sharded-failover")
SEED, SECONDS = 0, 3


def _run(workload: str, *flags: str) -> str:
    done = subprocess.run(
        [sys.executable, str(ROOT / "wallbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), *flags],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: wallbench/run.py exited "
                         f"{done.returncode}\n{done.stderr}")
    return done.stdout


def digest_of(workload: str) -> dict:
    """One untraced run's ``sim_digest``, plus the modelled
    ``appvisor.event`` latency of a telemetry pass where there is one."""
    for line in _run(workload, "--trace", "0").splitlines():
        if line.startswith("DETAIL "):
            digest = json.loads(line[len("DETAIL "):])["sim_digest"]
            break
    else:
        raise SystemExit(f"{workload}: no DETAIL line in the output")
    if workload in LATENCY_WORKLOADS:
        latency = json.loads(_run(workload, "--pass", "telemetry"))
        for key, value in latency["sim_event_ms"].items():
            digest[f"event_ms_{key}"] = round(value, 9)
    return digest


def moved(want: dict, got: dict) -> list:
    """One line per workload key whose value differs between two
    ``{workload: digest}`` maps; a key or a workload on one side only
    counts as moved."""
    lines = []
    for workload in sorted(set(want) | set(got)):
        if workload not in want or workload not in got:
            side = "this run" if workload in got else DIGEST_PATH.name
            lines.append(f"{workload}: only in {side}")
            continue
        old, new = want[workload], got[workload]
        for key in sorted(set(old) | set(new)):
            before, after = old.get(key, "absent"), new.get(key, "absent")
            if before != after:
                lines.append(f"{workload}: {key} moved {before} -> {after}")
    return lines


def record() -> int:
    digests = {workload: digest_of(workload) for workload in WORKLOADS}
    DIGEST_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {DIGEST_PATH}")
    return 0


def check() -> int:
    got = {workload: digest_of(workload) for workload in WORKLOADS}
    lines = moved(json.loads(DIGEST_PATH.read_text()), got)
    for line in lines:
        print(line)
    for workload in WORKLOADS:
        if not any(line.startswith(f"{workload}:") for line in lines):
            print(f"{workload}: sim_digest identical "
                  f"({len(got[workload])} keys)")
    return 1 if lines else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("record", "check"))
    args = parser.parse_args()
    return record() if args.command == "record" else check()


if __name__ == "__main__":
    sys.exit(main())
