"""One benchmark run: ``python3 wallbench/run.py --workload W --seed N
--seconds S --trace 0|1`` (the ``BENCHMARK.json`` command).

``--trace 0`` measures one untraced pass in this interpreter and
prints the end-to-end metrics.  ``--trace 1`` runs fresh child
interpreters one at a time -- an untraced pass, a traced pass, and on
``steady`` a telemetry-on pass -- and prints the per-layer metrics.
The last line of stdout is the result object; the line before it
(``DETAIL {...}``) carries raw times, the seed-determined counts
(``sim_digest``) and the environment for ``python3 -m wallbench``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("wallbench: src/repro not found beside wallbench/ -- the "
             "benchmark measures the repo's own source tree")
# Run as a script, sys.path[0] is wallbench/ itself, where trace.py
# would shadow the standard library's module of that name.
sys.path[:] = [p for p in sys.path
               if Path(p or ".").resolve() != ROOT / "wallbench"]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from wallbench.calibrate import (  # noqa: E402
    Kernel, local_factors, speed_factor)
from wallbench.workloads import (  # noqa: E402
    RUN_SECONDS, SERVICE_TIME, SLICES, WORKLOADS, Stack, lookup)

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Set-ups per full-length run; ``setup_s`` is their median.  A run
#: shorter than ``RUN_SECONDS`` is a smoke test and sets up once.
SETUP_REPEATS = 3
#: Kernel samples taken on each side of one set-up.
SETUP_KERNELS = 6
#: Seed-determined window counts that must repeat exactly.
DIGEST_KEYS = ("completed", "ingested", "offered", "dropped", "due",
               "failed", "forwarded", "skipped", "crashes", "recoveries",
               "markers", "failovers",
               "app_frames", "app_bytes", "app_datagrams", "repl_frames",
               "repl_bytes", "repl_datagrams", "takes", "take_bytes",
               "value_encodes", "encodes_skipped", "take_sim_cost",
               "sim_callbacks")
#: With telemetry on, trace ids ride every frame and the tracer
#: schedules its own work: these counts move, no other may.
TELEMETRY_MOVES = ("app_bytes", "repl_bytes", "sim_callbacks")
#: A CrashReport frame carries the app's traceback text, which in a
#: traced pass includes the tracer's own wrapper frame: more frame
#: bytes and, through the per-byte channel delay, microseconds of sim
#: time (which change the encoded length of shipped timestamps and can
#: carry a periodic callback across the window's edge).  On a workload
#: that crashes these byte- and delay-derived counts move under
#: tracing; every other count must still match the untraced pass.
TRACE_MOVES_ON_CRASH = ("app_bytes", "repl_bytes", "sim_callbacks")


def nearest_rank(sorted_values, q: float) -> float:
    """The smallest value with at least ``q`` of the sample at or
    below it (exact: no interpolation, no bucketing)."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def set_up(workload, seed: int, mode: str, repeats: int, kernel):
    """Build and warm the stack ``repeats`` times, keep the last one.
    Returns (stack, seconds each set-up took at reference speed)."""
    scaled = []
    stack = None
    for _ in range(repeats):
        stack = None
        gc.collect()
        kernels = [kernel.timed()[0] for _ in range(SETUP_KERNELS)]
        started = perf_counter()
        stack = Stack(workload, seed, telemetry=(mode == "telemetry"))
        stack.warm_up()
        took = perf_counter() - started
        kernels += [kernel.timed()[0] for _ in range(SETUP_KERNELS)]
        scaled.append(took / speed_factor(kernels))
    return stack, scaled


def measure(workload, seed: int, seconds: float, mode: str) -> dict:
    """One pass: set up, run the measured window, drain, check."""
    tracer = None
    if mode == "traced":
        from wallbench.trace import Trace
        tracer = Trace()
        tracer.install()
    window = workload.sim_seconds * seconds / RUN_SECONDS
    kernel = Kernel()
    stack, setups = set_up(
        workload, seed, mode,
        SETUP_REPEATS if seconds >= RUN_SECONDS else 1, kernel)

    gc.collect()
    event_seconds = []
    if mode == "telemetry":
        stack.drain_event_spans()       # the warm-up's spans
    before = stack.counts()
    stack.arm_faults(window)
    step = window / SLICES
    walls, cpus, kernels = [], [], []
    if tracer is not None:
        tracer.on = True
    for _ in range(SLICES):
        kernels.append(kernel.timed())
        cpu0 = process_time()
        wall0 = perf_counter()
        stack.run_for(step)
        wall1 = perf_counter()
        cpus.append(process_time() - cpu0)
        walls.append(wall1 - wall0)
        stack.sample()
        if mode == "telemetry":
            event_seconds.extend(stack.drain_event_spans())
    if tracer is not None:
        tracer.on = False
    after = stack.counts()
    stack.drain()
    final = stack.counts()

    delta = {key: after[key] - before[key] for key in after}
    delta["take_sim_cost"] = round(delta["take_sim_cost"], 9)
    events = delta["completed"]
    if events <= 0:
        sys.exit("wallbench: VIOLATION: no event completed in the "
                 "measured window; "
                 + "; ".join(stack.violations(final)))
    # Each slice is scaled by the kernel samples around it: host time
    # by the kernel's host time, CPU time by the kernel's CPU time.
    # ``factor`` is the window's effective speed factor, for times that
    # were not taken slice by slice (the trace's spans).
    factors = local_factors([wall_s for wall_s, _ in kernels])
    cpu_factors = local_factors([cpu_s for _, cpu_s in kernels])
    scaled = [w / f for w, f in zip(walls, factors)]
    wall, scaled_wall = sum(walls), sum(scaled)
    factor = wall / scaled_wall
    per_sim_s = sorted(w / step for w in scaled)
    # Flows due in the window, and those of them that were not served:
    # dropped by the generator or in flight on a primary the workload
    # killed (the scheduled outage), stuck unfinished on a live proxy
    # after the drain, or crashed and never recovered.
    due = delta["due"] = delta["offered"] + delta["dropped"]
    outage = delta["dropped"] + final["outage_stuck"]
    unscheduled = final["stuck"] + final["crashes"] - final["recoveries"]
    if not workload.kill_at:        # no outage scheduled: none excused
        unscheduled, outage = unscheduled + outage, 0
    failed = delta["failed"] = outage + unscheduled
    violations = stack.violations(final)
    if unscheduled:
        violations.append(f"{unscheduled} operations failed outside any "
                          "scheduled outage")

    end_to_end = {
        "events_per_wall_s": events / scaled_wall,
        "cpu_ms_per_event": sum(
            c / f for c, f in zip(cpus, cpu_factors)) / events * 1e3,
        "wall_per_sim_s_p50": statistics.median(per_sim_s),
        "wall_per_sim_s_p95": nearest_rank(per_sim_s, 0.95),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0 - kernel.rss_mb,
        "served_share": 1.0 - failed / due,
        "setup_s": statistics.median(setups),
    }
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "mode": mode, "sim_seconds": window,
        "attempted": due, "failed": failed, "outage_lost": outage,
        "violations": violations,
        "end_to_end": end_to_end,
        "wall_s": scaled_wall,
        "last20_over_first20": sum(scaled[-20:]) / sum(scaled[:20]),
        "raw": {"wall_s": wall, "events_per_wall_s": events / wall,
                "speed_factor": factor,
                "kernel_ms": statistics.fmean(
                    wall_s for wall_s, _ in kernels) * 1e3,
                "kernel_rss_mb": kernel.rss_mb},
        "sim_digest": {key: delta[key] for key in DIGEST_KEYS},
        "environment": {"nproc": os.cpu_count(),
                        "python": platform.python_version()},
    }
    if mode == "telemetry":
        ordered = sorted(event_seconds)
        detail["sim_event_ms"] = {
            "count": len(ordered),
            "p50": nearest_rank(ordered, 0.50) * 1e3,
            "p99": nearest_rank(ordered, 0.99) * 1e3,
            "max": ordered[-1] * 1e3,
        }
    if tracer is not None:
        folded = tracer.fold()
        detail["layers"] = layer_metrics(folded, stack, delta, final,
                                         wall, factor)
        detail["untraced"] = tracer.untraced
        out = ROOT / "wallbench" / "out"
        out.mkdir(exist_ok=True)
        (out / f"trace-{workload.name}-seed{seed}.json").write_text(
            json.dumps({"workload": workload.name, "seed": seed,
                        "seconds": seconds, "spans": folded.spans,
                        "window_wall_ns": round(wall * 1e9),
                        "speed_factor": factor,
                        "rows": folded.table()}, indent=1))
    return detail


def layer_metrics(folded, stack, delta: dict, final: dict,
                  wall: float, factor: float) -> dict:
    """Every per-layer metric one traced pass can compute alone.
    Times are host time at reference speed; counts are exact."""
    from wallbench.trace import LAYERS, RECOVERY_FRAMES

    events = delta["completed"]

    def us(ns: float) -> float:
        return ns / 1e3 / factor

    def per(value: float, count: float) -> float:
        return value / count if count else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_us_per_event"] = us(
            folded.self_ns(layer)) / events
        if layer not in ("loadgen", "other"):
            m[f"{layer}.calls_per_event"] = \
                folded.calls_of(layer) / events

    frames = delta["app_frames"] + delta["repl_frames"]
    m["codec.encodes_per_frame"] = per(
        folded.edge_calls(("encode_value", "encode_message"),
                          not_under=("encode_state_value",
                                     "encoded_size")), frames)
    m["codec.frame_bytes_per_event"] = delta["app_bytes"] / events
    m["codec.state_bytes_per_event"] = delta["take_bytes"] / events
    m["codec.state_encode_us_per_event"] = us(folded.inclusive_ns(
        "codec", "encode_state_value")) / events
    m["codec.decode_us_per_event"] = us(folded.self_ns(
        "codec", "decode_value", "decode_message",
        "decode_state_value")) / events

    datagrams = delta["app_datagrams"] + delta["repl_datagrams"]
    m["appvisor.channel.frames_per_event"] = delta["app_frames"] / events
    m["appvisor.channel.datagrams_per_event"] = \
        delta["app_datagrams"] / events
    m["appvisor.channel.retransmits"] = final["retransmits"]
    m["appvisor.channel.sim_delay_ms_per_datagram"] = \
        stack.channel_model_delay(
            per(delta["app_bytes"], delta["app_datagrams"])) * 1e3 \
        if delta["app_datagrams"] else 0.0
    # Moving one datagram: the channel's own work plus the codec calls
    # it makes (encode at flush, decode at delivery), both channel kinds.
    m["appvisor.channel.wall_us_per_datagram"] = per(us(
        folded.self_ns("appvisor.channel")
        + folded.inclusive_under_ns("codec", "appvisor.channel")),
        datagrams)
    m["appvisor.proxy.events_skipped"] = delta["skipped"]

    begins = folded.calls_of("netlog", "TransactionManager.begin")
    m["netlog.txns_per_event"] = begins / events
    m["netlog.ops_per_txn"] = per(
        folded.calls_of("netlog", "TransactionManager.apply"), begins)
    m["netlog.rollbacks"] = folded.calls_of(
        "netlog", "TransactionManager.abort")

    takes = delta["takes"]
    tried = delta["value_encodes"] + delta["encodes_skipped"]
    m["crashpad.checkpoint.takes_per_event"] = takes / events
    m["crashpad.checkpoint.bytes_per_take"] = per(delta["take_bytes"],
                                                  takes)
    m["crashpad.checkpoint.encodes_skipped_ratio"] = per(
        delta["encodes_skipped"], tried)
    m["crashpad.checkpoint.wall_us_per_take"] = per(us(
        folded.inclusive_ns("crashpad.checkpoint", "CheckpointStore.take",
                            "CheckpointStore.drain",
                            "CheckpointStore.flush")), takes)
    m["crashpad.checkpoint.sim_cost_us_per_take"] = per(
        delta["take_sim_cost"] * 1e6, takes)
    crashes = delta["crashes"]
    m["crashpad.checkpoint.restore_us_per_crash"] = per(us(
        folded.inclusive_ns("crashpad.checkpoint",
                            "CheckpointStore.restore")), crashes)
    m["crashpad.recovery.crashes"] = crashes
    m["crashpad.recovery.recovered_ratio"] = per(
        final["recoveries"], final["crashes"]) if final["crashes"] else 1.0
    m["crashpad.recovery.wall_us_per_crash"] = per(us(
        folded.inclusive_ns("crashpad.recovery", *RECOVERY_FRAMES)),
        crashes)

    m["replication.frames_per_event"] = delta["repl_frames"] / events
    m["replication.bytes_per_event"] = delta["repl_bytes"] / events
    m["replication.backup_lag_max"] = stack.backup_lag_max
    m["replication.failovers"] = delta["failovers"]
    m["replication.failover_sim_ms"] = stack.failover_sim_seconds() * 1e3
    # The promotion runs inside one replication callback: the longest.
    m["replication.failover_wall_ms"] = us(
        folded.longest_ns("replication")) / 1e3 \
        if delta["failovers"] else 0.0
    m["replication.divergence"] = stack.divergence()
    m["replication.byzantine.macs_per_event"] = folded.calls_of(
        "replication.byzantine", "ReplicaKeyring.stamp",
        "ReplicaKeyring.verify") / events

    m["shard.forwarded_per_event"] = delta["forwarded"] / events
    m["shard.events_dropped_failover"] = delta["dropped"]

    mods = folded.calls_of("flowtable", "FlowTable.apply_flow_mod")
    m["controller.ingested_per_event"] = delta["ingested"] / events
    m["controller.service_sim_us_per_ingest"] = SERVICE_TIME * 1e6
    m["controller.wall_us_per_ingest"] = per(
        us(folded.self_ns("controller")), delta["ingested"])
    m["flowtable.mods_per_event"] = mods / events
    m["flowtable.us_per_mod"] = per(us(folded.inclusive_ns(
        "flowtable", "FlowTable.apply_flow_mod")), mods)
    m["flowtable.entries_max"] = stack.entries_max
    m["network.sim_callbacks_per_event"] = delta["sim_callbacks"] / events

    m["trace.coverage"] = folded.total_self_ns() / (wall * 1e9)
    return m


def child(args, mode: str) -> dict:
    """One pass in a fresh interpreter; returns its detail object."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--pass", mode],
        stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"wallbench: {mode} pass exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def traced_run(args) -> dict:
    """The three passes of ``--trace 1`` folded into one detail."""
    plain = child(args, "plain")
    detail = child(args, "traced")
    layers = detail["layers"]
    layers["trace.overhead_ratio"] = detail["wall_s"] / plain["wall_s"]
    violations = detail["violations"] + plain["violations"]
    excused = TRACE_MOVES_ON_CRASH if plain["sim_digest"]["crashes"] else ()
    moved = [key for key, value in plain["sim_digest"].items()
             if detail["sim_digest"][key] != value and key not in excused]
    if moved:
        violations.append(f"tracing changed simulated behaviour: {moved}")
    layers.update({"telemetry.wall_ratio": 0.0,
                   "appvisor.sim_event_ms_p50": 0.0,
                   "appvisor.sim_event_ms_p99": 0.0})
    if args.workload == "steady":
        telemetry = child(args, "telemetry")
        quantiles = telemetry["sim_event_ms"]
        layers["telemetry.wall_ratio"] = \
            telemetry["wall_s"] / plain["wall_s"]
        layers["appvisor.sim_event_ms_p50"] = quantiles["p50"]
        layers["appvisor.sim_event_ms_p99"] = quantiles["p99"]
        violations += telemetry["violations"]
        if not quantiles["p50"] <= quantiles["p99"] <= quantiles["max"]:
            violations.append(f"sim event quantiles out of order: "
                              f"{quantiles}")
        moved = [key for key, value in plain["sim_digest"].items()
                 if telemetry["sim_digest"][key] != value
                 and key not in TELEMETRY_MOVES]
        if moved:
            violations.append(f"telemetry changed simulated behaviour: "
                              f"{moved}")
        detail["telemetry_pass"] = {"wall_s": telemetry["wall_s"],
                                    "sim_event_ms": quantiles}
    detail["violations"] = violations
    detail["plain_pass"] = {"wall_s": plain["wall_s"],
                            "sim_digest": plain["sim_digest"]}
    return detail


def result_line(detail: dict, section: str, values: dict) -> str:
    """The contract's result object, units taken from BENCHMARK.json."""
    declared = {m["name"]: m["unit"] for m in MANIFEST[section]}
    if set(declared) != set(values):
        sys.exit(f"wallbench: metrics differ from BENCHMARK.json "
                 f"{section}: {sorted(set(declared) ^ set(values))}")
    return json.dumps({
        "correct": not detail["violations"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="mode", default=None,
                        choices=("plain", "traced", "telemetry"),
                        help="internal: one child pass of --trace 1")
    args = parser.parse_args(argv)
    try:
        workload = lookup(args.workload)
    except KeyError:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(one of {sorted(WORKLOADS)})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.mode is not None:
        print(json.dumps(measure(workload, args.seed, args.seconds,
                                 args.mode)))
        return 0
    if args.trace:
        detail = traced_run(args)
        section, values = "per_layer", detail["layers"]
    else:
        detail = measure(workload, args.seed, args.seconds, "plain")
        section, values = "end_to_end", detail["end_to_end"]
    for violation in detail["violations"]:
        print(f"wallbench: VIOLATION: {violation}", file=sys.stderr)
    print("DETAIL " + json.dumps(detail))
    print(result_line(detail, section, values))
    return 1 if detail["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
