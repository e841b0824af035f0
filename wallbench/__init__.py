"""wallbench: the repo's wall-clock benchmark.

Four workloads drive the LegoSDN stack (and its monolithic baseline)
with open-loop load on the simulated clock and report what a stopwatch
saw: events per real second, CPU per event, memory, set-up time, and
-- from a separate traced run -- a per-layer budget that sums to the
end-to-end figure.  See ``wallbench/README.md``.

- ``python3 wallbench/run.py --workload W --seed N --seconds S
  --trace 0|1`` is one run (the ``BENCHMARK.json`` command);
- ``python3 -m wallbench`` runs every workload, repeats, checks that
  seed-determined counts repeat exactly, and prints the full report.
"""
