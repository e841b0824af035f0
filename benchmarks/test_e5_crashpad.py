"""E5: Crash-Pad recovery under the three compromise policies (§3.3).

A deterministic crash-on-event bug hits the same app under each
operator policy.  Reported per policy: did the app survive, how much
correctness was compromised (events skipped/transformed), how long
detection + recovery took, and whether the controller was ever at
risk.  The detection-path ablation (explicit crash report vs heartbeat
timeout) is included, since §4.1 describes both.

Expected shape: No-Compromise sacrifices the app (availability) and
compromises nothing; Absolute keeps the app up at the cost of one
ignored event per crash; explicit crash reports detect failures an
order of magnitude faster than heartbeat timeouts.
"""

from repro.apps import LearningSwitch
from repro.core.appvisor.proxy import AppStatus
from repro.core.crashpad.policy_lang import PolicyTable
from repro.faults import BugKind, crash_on
from repro.network.topology import linear_topology
from repro.telemetry import Telemetry
from repro.workloads.traffic import inject_marker_packet

from benchmarks.harness import (
    build_legosdn,
    percentile,
    print_table,
    run_once,
    span_durations,
)

#: Sim-clock SLO on the paper's recovery window (detection ->
#: checkpoint restore -> replay -> back up), asserted as a p95 over
#: the ``crashpad.recovery`` spans the deployments emit.  Recovery
#: here is crash-report detected, so the window is dominated by the
#: restore round trip -- well under the 0.25 s heartbeat path.
RECOVERY_P95_BOUND = 0.25


def _run_policy(policy_text):
    telemetry = Telemetry(enabled=True)
    net, runtime = build_legosdn(
        linear_topology(2, 1),
        [crash_on(LearningSwitch(name="app"), payload_marker="BOOM")],
        policy_table=PolicyTable.parse(policy_text),
        telemetry=telemetry,
    )
    crash_time = net.now
    inject_marker_packet(net, "h1", "h2", "BOOM")
    net.run_for(3.0)
    record = runtime.record("app")
    stats = runtime.stats()["app"]
    # recovery latency: first ticket time -> app back to UP (read from
    # the detector-visible record); approximate via stub restore count.
    return {
        "survived": record.status is AppStatus.UP,
        "crashes": stats["crashes"],
        "recoveries": stats["recoveries"],
        "skipped": stats["skipped"],
        "reach_after": net.reachability(wait=1.0),
        "controller_up": runtime.is_up,
        "recovery_spans": span_durations(telemetry, "crashpad.recovery"),
    }


def _detection_latency(kind):
    """Sim-time between the offending event and the first ticket."""
    net, runtime = build_legosdn(
        linear_topology(2, 1),
        [crash_on(LearningSwitch(name="app"), payload_marker="X",
                  kind=kind)],
    )
    injected_at = net.now
    inject_marker_packet(net, "h1", "h2", "X")
    net.run_for(4.0)
    tickets = runtime.tickets.for_app("app")
    if not tickets:
        return None
    return tickets[0].time - injected_at


def test_e5_crashpad_policies(benchmark):
    def experiment():
        return {
            "no-compromise": _run_policy("app=* event=* policy=no-compromise"),
            "absolute": _run_policy("app=* event=* policy=absolute"),
            "equivalence": _run_policy("app=* event=* policy=equivalence"),
            "detect_crash_report": _detection_latency(BugKind.CRASH),
            "detect_heartbeat": _detection_latency(BugKind.HANG),
        }

    r = run_once(benchmark, experiment)
    rows = []
    for policy in ("no-compromise", "absolute", "equivalence"):
        row = r[policy]
        rows.append([
            policy,
            "yes" if row["survived"] else "NO (by design)",
            row["crashes"], row["skipped"],
            f"{row['reach_after']:.0%}",
            "yes" if row["controller_up"] else "NO",
        ])
    print_table(
        "E5: recovery from a deterministic PacketIn crash, per policy",
        ["policy", "app survives", "crashes", "events ignored",
         "reach after", "controller up"],
        rows,
    )
    print(f"detection latency: crash report "
          f"{r['detect_crash_report'] * 1000:.1f} ms vs heartbeat timeout "
          f"{r['detect_heartbeat'] * 1000:.1f} ms")
    recovery_spans = sorted(
        d for p in ("absolute", "equivalence") for d in r[p]["recovery_spans"])
    print(f"recovery spans: n={len(recovery_spans)} "
          f"p95={percentile(recovery_spans, 95) * 1000:.1f} ms")
    benchmark.extra_info["results"] = {
        k: v for k, v in r.items() if isinstance(v, dict)}
    benchmark.extra_info["recovery_p95"] = percentile(recovery_spans, 95)

    # No-Compromise: availability sacrificed, correctness intact.
    assert not r["no-compromise"]["survived"]
    assert r["no-compromise"]["skipped"] == 0
    # Absolute: app survives every crash by ignoring offending events.
    assert r["absolute"]["survived"]
    assert r["absolute"]["skipped"] == r["absolute"]["crashes"] >= 1
    assert r["absolute"]["reach_after"] == 1.0
    # Equivalence falls back to absolute for PacketIn (no equivalence
    # exists) -- same survival.
    assert r["equivalence"]["survived"]
    # The controller survives under every policy.
    assert all(r[p]["controller_up"]
               for p in ("no-compromise", "absolute", "equivalence"))
    # Fast path beats the heartbeat path comfortably.
    assert r["detect_crash_report"] * 5 < r["detect_heartbeat"]
    # Recovery SLO: every surviving policy recovered at least once, and
    # the p95 recovery window (sim clock) honours the bound.
    assert recovery_spans, "no crashpad.recovery spans recorded"
    assert percentile(recovery_spans, 95) <= RECOVERY_P95_BOUND
