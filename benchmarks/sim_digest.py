#!/usr/bin/env python3
"""What "simulation unchanged" means, pinned.

``wallbench/run.py`` prints a ``DETAIL`` line whose ``sim_digest`` is
every seed-determined count of the run (events offered and completed,
frames, bytes, datagrams, simulator callbacks, checkpoint takes, ...).
It is a function of the simulated behaviour alone -- not of the host's
speed, the checkout path or whether the run was traced -- so two
commits that simulate the same thing print the same digest.

``SIM_DIGEST.json`` (repo root) holds the digest (``failed`` is one of
its keys) of the four workloads at ``--seed 0 --seconds 3``.  A
host-side optimisation must leave ``check`` green; a PR that *means* to
move simulated behaviour runs ``record`` and says so.

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
SEED, SECONDS = 0, 3


def digest_of(workload: str) -> dict:
    """One untraced run's ``sim_digest``."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "wallbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: wallbench/run.py exited "
                         f"{done.returncode}\n{done.stderr}")
    for line in done.stdout.splitlines():
        if line.startswith("DETAIL "):
            return json.loads(line[len("DETAIL "):])["sim_digest"]
    raise SystemExit(f"{workload}: no DETAIL line in the output")


def record() -> int:
    digests = {workload: digest_of(workload) for workload in WORKLOADS}
    DIGEST_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {DIGEST_PATH}")
    return 0


def check() -> int:
    committed = json.loads(DIGEST_PATH.read_text())
    status = 0
    for workload in WORKLOADS:
        want, got = committed[workload], digest_of(workload)
        moved = sorted(key for key in set(want) | set(got)
                       if want.get(key) != got.get(key))
        if not moved:
            print(f"{workload}: sim_digest identical ({len(want)} keys)")
            continue
        status = 1
        for key in moved:
            print(f"{workload}: {key} moved "
                  f"{want.get(key)} -> {got.get(key)}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("record", "check"))
    args = parser.parse_args()
    return record() if args.command == "record" else check()


if __name__ == "__main__":
    sys.exit(main())
