"""``python3 -m wallbench [--seed N] [--workload W] [--quick]``: the
whole benchmark in one command.

Runs every workload as fresh child interpreters, one at a time
(``wallbench/run.py``: ``REPEATS`` untraced runs, then one traced
run), prints every metric by name with its unit, the per-layer budget,
the model-vs-measured table and the seed-determined ``sim_digest``,
checks outputs, and exits non-zero on any violation -- including a
count that differs between repeats of one (workload, seed).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from wallbench.run import MANIFEST, ROOT
from wallbench.trace import LAYERS
from wallbench.workloads import RUN_SECONDS, WORKLOADS

#: (modelled metric, measured metric, what one operation is).
MODEL_VS_MEASURED = (
    ("crashpad.checkpoint.sim_cost_us_per_take",
     "crashpad.checkpoint.wall_us_per_take", "one checkpoint take"),
    ("appvisor.channel.sim_delay_ms_per_datagram",
     "appvisor.channel.wall_us_per_datagram", "one datagram, one way"),
    ("controller.service_sim_us_per_ingest",
     "controller.wall_us_per_ingest", "one message ingested"),
    ("replication.failover_sim_ms",
     "replication.failover_wall_ms", "one failover"),
)

_TO_US = {"us": 1.0, "ms": 1e3}

#: Untraced runs per workload (their median and quartiles are printed).
REPEATS = 3
#: ``--quick``: run length in nominal seconds, and repeats.  Short of
#: ``RUN_SECONDS``, so ``run.py`` also sets up once instead of 3 times.
QUICK_SECONDS, QUICK_REPEATS = 1.0, 2


def run_child(workload: str, seed: int, seconds: float, trace: int):
    """One ``run.py`` invocation -> (exit code, detail, result)."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "wallbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith("DETAIL "):
        sys.exit(f"wallbench: {workload} run printed no result "
                 f"(exit {done.returncode})")
    return (done.returncode, json.loads(lines[-2][len("DETAIL "):]),
            json.loads(lines[-1]))


def spread(values):
    """(median, q1, q3) -- quartiles as ``statistics.quantiles`` gives
    them; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def report_workload(name: str, seed: int, seconds: float, repeats: int,
                    problems: list) -> dict:
    print(f"\n=== {name}  (seed {seed}, {seconds:g} s nominal, "
          f"{repeats} untraced + 1 traced) ===")
    print(f"why: {WORKLOADS[name].why}")
    runs = []
    for _ in range(repeats):
        code, detail, result = run_child(name, seed, seconds, 0)
        if code != 0 or not result["correct"]:
            problems.append(f"{name}: untraced run failed its checks: "
                            f"{detail['violations']}")
        runs.append((detail, result))
    code, traced, traced_result = run_child(name, seed, seconds, 1)
    if code != 0 or not traced_result["correct"]:
        problems.append(f"{name}: traced run failed its checks: "
                        f"{traced['violations']}")

    digest = runs[0][0]["sim_digest"]
    others = [detail["sim_digest"] for detail, _ in runs[1:]]
    for other in others + [traced["plain_pass"]["sim_digest"]]:
        if other != digest:
            diff = sorted(k for k in digest if other[k] != digest[k])
            problems.append(f"{name}: counts differ between repeats of "
                            f"one seed: {diff}")
    first = runs[0][0]
    env = first["environment"]
    print(f"host: nproc={env['nproc']} python={env['python']}  "
          f"window: {first['sim_seconds']:.2f} sim-s in "
          f"{first['raw']['wall_s']:.2f} wall-s  "
          f"(speed factor {first['raw']['speed_factor']:.3f}: "
          f"kernel {first['raw']['kernel_ms']:.3f} ms)")
    print(f"operations_attempted={first['attempted']} "
          f"operations_failed={first['failed']} "
          f"(lost to the scheduled outage: {first['outage_lost']})")

    print("end-to-end (host time at reference speed; median [q1, q3] "
          f"over {repeats} runs):")
    end_to_end = {}
    for spec in MANIFEST["end_to_end"]:
        values = [result["metrics"][spec["name"]]["value"]
                  for _, result in runs]
        median, q1, q3 = spread(values)
        end_to_end[spec["name"]] = {"median": median, "q1": q1, "q3": q3,
                                    "values": values}
        print(f"  {spec['name']:<22} {median:>12.4f} {spec['unit']:<6}"
              f" [{q1:.4f}, {q3:.4f}]  ({spec['better']} is better)")
    raw = [detail["raw"]["events_per_wall_s"] for detail, _ in runs]
    growth = [detail["last20_over_first20"] for detail, _ in runs]
    print(f"  raw events_per_wall_s (unscaled stopwatch): "
          f"{statistics.median(raw):.1f}   last-20/first-20 slice cost: "
          f"{statistics.median(growth):.2f}x")
    print("sim_digest (seed-determined; must not move in a perf-only "
          "change):")
    print("  " + " ".join(f"{k}={v}" for k, v in digest.items()))

    layers = {n: m["value"] for n, m in traced_result["metrics"].items()}
    units = {spec["name"]: spec["unit"] for spec in MANIFEST["per_layer"]}
    total = sum(layers[f"{layer}.self_us_per_event"] for layer in LAYERS)
    print(f"per-layer budget (traced run; self-times sum to "
          f"{layers['trace.coverage']:.4f} of the window, tracing cost "
          f"{layers['trace.overhead_ratio']:.3f}x):")
    print(f"  {'layer':<24}{'self us/event':>14}{'share':>8}"
          f"{'calls/event':>13}")
    for layer in LAYERS:
        self_us = layers[f"{layer}.self_us_per_event"]
        calls = layers.get(f"{layer}.calls_per_event")
        print(f"  {layer:<24}{self_us:>14.2f}{self_us / total:>8.1%}"
              + (f"{calls:>13.2f}" if calls is not None else ""))
    if traced.get("untraced"):
        print(f"  NOT TRACED (target missing): {traced['untraced']}")
    print("layer detail:")
    for name_, value in layers.items():
        if not name_.endswith((".self_us_per_event", ".calls_per_event")):
            print(f"  {name_:<48} {value:>14.4f} {units[name_]}")
    print("model vs measured (the sim cost model is UNVALIDATED: no "
          "reference measurements exist in this repo):")
    for model, measured, what in MODEL_VS_MEASURED:
        model_us = layers[model] * _TO_US[units[model]]
        measured_us = layers[measured] * _TO_US[units[measured]]
        ratio = (f"{model_us / measured_us:8.2f}x" if measured_us
                 else "     n/a")
        print(f"  {what:<24} modelled {model_us:>12.1f} us   measured "
              f"{measured_us:>12.1f} us   model/measured {ratio}")
    return {"end_to_end": end_to_end, "per_layer": layers,
            "sim_digest": digest, "environment": env,
            "attempted": first["attempted"], "failed": first["failed"],
            "outage_lost": first["outage_lost"],
            "raw_events_per_wall_s": raw,
            "last20_over_first20": growth,
            "untraced": traced.get("untraced", [])}


def cross_checks(report: dict) -> None:
    """The shape the baseline should have (printed, not enforced:
    these are properties of the code under test, not of the run)."""
    def e2e(workload, metric):
        return report[workload]["end_to_end"][metric]["median"]

    def layer(workload, metric):
        return report[workload]["per_layer"][metric]

    print("\n=== shape ===")
    if {"steady", "monolithic"} <= set(report):
        print(f"price of isolation: monolithic / steady events_per_wall_s"
              f" = {e2e('monolithic', 'events_per_wall_s') / e2e('steady', 'events_per_wall_s'):.1f}x")
    if "steady" in report:
        print(f"steady slow stretches: p95 / p50 wall_per_sim_s = "
              f"{e2e('steady', 'wall_per_sim_s_p95') / e2e('steady', 'wall_per_sim_s_p50'):.2f}x")
    if {"steady", "sharded-failover"} <= set(report):
        metric = "replication.frames_per_event"
        print(f"replication frames/event: sharded-failover / steady = "
              f"{layer('sharded-failover', metric) / layer('steady', metric):.2f}x")
    for workload in report:
        layers = report[workload]["per_layer"]
        top = max(LAYERS, key=lambda l: layers[f"{l}.self_us_per_event"])
        print(f"largest layer by self-time on {workload}: {top}")
    if "crash-recover" in report:
        layers = report["crash-recover"]["per_layer"]
        inclusive = (layers["crashpad.checkpoint.wall_us_per_take"]
                     * layers["crashpad.checkpoint.takes_per_event"])
        total = sum(layers[f"{l}.self_us_per_event"] for l in LAYERS)
        print(f"crashpad.checkpoint take/drain/flush *inclusive* of the "
              f"state encoding it calls, on crash-recover: "
              f"{inclusive / total:.0%} of the window")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m wallbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny windows, 2 repeats, 1 set-up per run: "
                             "a smoke test, not a measurement")
    args = parser.parse_args(argv)
    seconds, repeats = float(RUN_SECONDS), REPEATS
    if args.quick:
        seconds, repeats = QUICK_SECONDS, QUICK_REPEATS
    names = [args.workload] if args.workload else list(WORKLOADS)
    problems: list = []
    report = {name: report_workload(name, args.seed, seconds, repeats,
                                    problems)
              for name in names}
    cross_checks(report)
    out = ROOT / "wallbench" / "out"
    out.mkdir(exist_ok=True)
    (out / "report.json").write_text(json.dumps(
        {"seed": args.seed, "seconds": seconds, "repeats": repeats,
         "workloads": report, "problems": problems}, indent=1))
    print(f"\nreport written to {out / 'report.json'}")
    for problem in problems:
        print(f"wallbench: VIOLATION: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
