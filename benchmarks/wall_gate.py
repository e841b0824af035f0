#!/usr/bin/env python3
"""The wall-clock gate: this checkout against its merge base, alternated.

Every other gate in CI pins counts; this one pins speed, coarsely.  It
checks the merge base out as a ``git worktree`` in a temporary
directory, then runs ``wallbench/run.py --seed 0 --seconds 6 --trace 0``
for ``steady`` and ``crash-recover`` in both trees, base and head
alternated (base first in odd pairs), five pairs each.  Each tree runs
its own ``wallbench``.  It prints every pair's ``events_per_wall_s``
and exits 1 when a workload's median ratio (head / base) is below 0.85:
a hosted runner's speed swings too much for a tighter bound, a 25 %
slowdown does not hide inside it.

The base is the merge base of ``HEAD`` and ``REF`` (default
``origin/main``); when that is ``HEAD`` itself -- a push to ``main`` --
and no ``REF`` was given, it is ``HEAD~1``.  The head is the working
tree, uncommitted edits included.  Needs the history (``fetch-depth:
0``).  Stdlib only, about four minutes on two cores::

    python3 benchmarks/wall_gate.py [REF]
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("steady", "crash-recover")
PAIRS, SECONDS, FLOOR = 5, 6, 0.85


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def base_commit(ref: str = "") -> str:
    """The merge base of ``HEAD`` and ``ref`` (see above)."""
    base = _git("merge-base", "HEAD", ref or "origin/main")
    if not ref and base == _git("rev-parse", "HEAD"):
        base = _git("rev-parse", "HEAD~1")
    return base


def events_per_wall_s(tree: pathlib.Path, workload: str) -> float:
    out = subprocess.run(
        [sys.executable, "wallbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        if line.startswith("DETAIL "):
            return json.loads(line[len("DETAIL "):])["end_to_end"][
                "events_per_wall_s"]
    raise SystemExit(f"{tree}: {workload} printed no DETAIL line")


def gate(base: pathlib.Path, head: pathlib.Path) -> bool:
    """Print every pair and each workload's median; True if all pass."""
    ok = True
    for workload in WORKLOADS:
        ratios = []
        for i in range(PAIRS):
            trees = [("base", base), ("head", head)]
            if i % 2:
                trees.reverse()
            rate = {name: events_per_wall_s(tree, workload)
                    for name, tree in trees}
            ratios.append(rate["head"] / rate["base"])
            print(f"{workload} pair {i + 1}: base {rate['base']:.0f} "
                  f"head {rate['head']:.0f} /s, ratio {ratios[-1]:.3f}",
                  flush=True)
        median = statistics.median(ratios)
        ok &= median >= FLOOR
        print(f"{workload}: median ratio {median:.3f} "
              f"({'ok' if median >= FLOOR else 'FAIL'}, floor {FLOOR})",
              flush=True)
    return ok


def main(argv) -> int:
    base = base_commit(argv[1] if len(argv) > 1 else "")
    print(f"base {base[:12]} vs the working tree at {ROOT}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(tree), base)
        try:
            return 0 if gate(tree, ROOT) else 1
        finally:
            _git("worktree", "remove", "--force", str(tree))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
