"""E2: control-loop latency overhead of the isolation layer (§3.1).

"We note that serialization and de-serialization of messages, and the
communication protocol overhead introduce additional latency into the
control-loop ... The additional latency, however, is acceptable as
introducing the controller into the critical-path already slows down
the network by a factor of four [11]."

Measured series (simulated time, Hub app so every packet crosses the
control loop):

- **dataplane** -- one-way delivery with pre-installed rules (no
  controller on the path);
- **monolithic** -- reactive delivery through the in-process app;
- **legosdn** -- reactive delivery through proxy/stub RPC (adds
  serialisation + channel + checkpoint costs).

Expected shape: dataplane << monolithic < legosdn; the
reactive/dataplane ratio is >= the paper's 4x; and the *extra*
slowdown LegoSDN adds on top of the monolithic control loop is small
relative to the cost of involving the controller at all.
"""

import statistics

from repro.apps import Flooder, Hub
from repro.network.topology import linear_topology
from repro.workloads.traffic import inject_marker_packet

from benchmarks.harness import build_legosdn, build_monolithic, print_table, run_once

SAMPLES = 20


def _one_way_latencies(net, count=SAMPLES):
    """Send ``count`` fresh packets h1->h2; return delivery latencies.

    Every packet gets a unique payload so reactive runtimes punt every
    one of them (the hub never installs rules anyway; the flooder's
    rules pre-install at switch join).
    """
    h2 = net.host("h2")
    latencies = []
    for i in range(count):
        h2.clear_history()
        start = net.now
        inject_marker_packet(net, "h1", "h2", f"probe-{i}")
        net.run_for(1.0)
        arrivals = [t for t, p in h2.received
                    if not p.is_lldp() and p.payload == f"probe-{i}"]
        if arrivals:
            latencies.append(min(arrivals) - start)
    return latencies


def test_e2_control_loop_latency(benchmark):
    def experiment():
        # dataplane baseline: flooder pre-installs, packets never punt
        data_net, _ = build_monolithic(linear_topology(2, 1), [Flooder])
        dataplane = _one_way_latencies(data_net)
        # monolithic reactive path
        mono_net, _ = build_monolithic(linear_topology(2, 1), [Hub])
        mono = _one_way_latencies(mono_net)
        # legosdn reactive path
        lego_net, lego_rt = build_legosdn(linear_topology(2, 1), [Hub()])
        lego = _one_way_latencies(lego_net)
        channel = lego_rt.channels["hub"]
        return {
            "dataplane": dataplane,
            "monolithic": mono,
            "legosdn": lego,
            "rpc_bytes": channel.bytes_carried,
            "rpc_datagrams": channel.datagrams_delivered,
        }

    r = run_once(benchmark, experiment)
    mean = {k: statistics.mean(v) * 1000
            for k, v in r.items() if isinstance(v, list)}
    rows = [
        ["dataplane only", f"{mean['dataplane']:.3f}", "1.0x"],
        ["monolithic control loop", f"{mean['monolithic']:.3f}",
         f"{mean['monolithic'] / mean['dataplane']:.1f}x"],
        ["LegoSDN control loop", f"{mean['legosdn']:.3f}",
         f"{mean['legosdn'] / mean['dataplane']:.1f}x"],
    ]
    print_table("E2: one-way delivery latency h1->h2 (ms, mean of "
                f"{SAMPLES} probes)", ["path", "latency", "vs dataplane"],
                rows)
    overhead = mean["legosdn"] - mean["monolithic"]
    print(f"AppVisor overhead: +{overhead:.3f} ms per control-loop "
          f"transit ({r['rpc_datagrams']} datagrams, "
          f"{r['rpc_bytes']} bytes on the RPC channel)")
    benchmark.extra_info["mean_ms"] = mean

    assert len(r["dataplane"]) == len(r["monolithic"]) == len(r["legosdn"])
    # Paper's [11] framing: the controller on the critical path costs ~4x.
    assert mean["monolithic"] / mean["dataplane"] >= 1.5
    # The paper's shape, not one cost model's numbers: the isolation
    # layer is not free (serialisation + RPC + per-event checkpoint put
    # LegoSDN strictly above monolithic), and what it adds is small
    # next to involving the controller at all (under 2x monolithic).
    assert mean["legosdn"] > mean["monolithic"]
    assert mean["legosdn"] / mean["monolithic"] < 2
    assert r["rpc_bytes"] > 0
