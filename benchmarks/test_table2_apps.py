"""Table 2 reproduction: survey of SDN applications.

The paper's Table 2 lists popular FloodLight apps (RouteFlow,
FlowScale, BigTap, Stratos) and their developers, making the point
that the ecosystem is "a la carte": third-party code runs inside the
controller.  This bench runs our analogue of every surveyed app on
both runtimes, injects a deterministic crash into each one in turn,
and records whether the platform survives.

Before the crash each app handles ordinary traffic and an uplink
flap at s2 (the switch the load balancer balances): a ping from h2 to
h1, then the s2-s3 link down and up.  Nothing is sent towards h3, so
the marker packet still misses every installed rule and reaches the
apps as a PacketIn.

Expected shape: every app runs on both runtimes (unmodified -- the
LegoSDN column is not a port); under the monolithic runtime EVERY
app's crash kills the controller; under LegoSDN NONE does.
"""

from repro.apps import APP_REGISTRY, TABLE2_SURVEY, make_app
from repro.faults import crash_on
from repro.network.topology import linear_topology
from repro.workloads.traffic import inject_marker_packet

from benchmarks.harness import (
    build_legosdn,
    build_monolithic,
    print_table,
    run_once,
)


def _app_kwargs(name):
    # the load balancer needs its switch/uplinks configured for a line
    return {"dpid": 2, "uplinks": (1, 2)} if name == "load_balancer" else {}


def _crashy(name):
    return crash_on(make_app(name, **_app_kwargs(name)),
                    event_type="PacketIn", payload_marker="BOOM")


def _exercise(net):
    """Ordinary traffic and an uplink flap at s2, before the crash."""
    net.ping("h2", "h1")
    net.link_down(2, 3)
    net.run_for(0.2)
    net.link_up(2, 3)
    net.run_for(0.5)


def _survives_crash_monolithic(name):
    net, runtime = build_monolithic(
        linear_topology(3, 1), [lambda: _crashy(name)])
    _exercise(net)
    inject_marker_packet(net, "h1", "h3", "BOOM")
    net.run_for(2.0)
    return not net.controller.crashed


def _survives_crash_legosdn(name):
    net, runtime = build_legosdn(linear_topology(3, 1), [_crashy(name)])
    _exercise(net)
    inject_marker_packet(net, "h1", "h3", "BOOM")
    net.run_for(2.0)
    recovered = runtime.stats()[name]["recoveries"] >= \
        runtime.stats()[name]["crashes"] > 0 or \
        runtime.stats()[name]["crashes"] == 0
    return (not net.controller.crashed) and recovered


def test_table2_app_survey(benchmark):
    def experiment():
        results = {}
        for name, paper_app, developer, purpose in TABLE2_SURVEY:
            results[name] = {
                "paper_app": paper_app,
                "developer": developer,
                "purpose": purpose,
                "mono_survives": _survives_crash_monolithic(name),
                "lego_survives": _survives_crash_legosdn(name),
            }
        return results

    results = run_once(benchmark, experiment)
    rows = [
        [r["paper_app"], r["developer"], r["purpose"], name,
         "survives" if r["mono_survives"] else "CRASHES",
         "survives" if r["lego_survives"] else "CRASHES"]
        for name, r in results.items()
    ]
    print_table(
        "Table 2: surveyed apps -- controller fate on app crash",
        ["paper app", "developer", "purpose", "our analogue",
         "monolithic", "legosdn"],
        rows,
    )
    benchmark.extra_info["results"] = {
        name: {k: v for k, v in r.items()} for name, r in results.items()
    }
    assert set(r[0] for r in TABLE2_SURVEY) == \
        {"routing", "load_balancer", "firewall", "monitor", "hub",
         "flooder", "learning_switch"}
    for name, r in results.items():
        # PacketIn-driven apps crash the monolithic controller; apps
        # that never see the marker (no PacketIn subscription) are
        # immune on both -- either way LegoSDN must never lose the
        # controller.
        assert r["lego_survives"], name
        subscribed = "PacketIn" in APP_REGISTRY[name].subscriptions
        if subscribed:
            assert not r["mono_survives"], name
