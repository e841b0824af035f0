"""The sustained-load harness: determinism, the memory ceiling, and
the regression gate.

Uses a deliberately tiny scenario (hundreds of hosts, ~2 sim seconds)
so the full stack -- coordinator, replication, AppVisor, codec -- runs
end to end in test time.
"""

import json

from repro.bench import (
    PRESETS,
    BenchScenario,
    HostUniverse,
    StreamingHistogram,
    TrafficMix,
    check_report,
    run_scenario,
)
from repro.cli import main as cli_main

TINY = BenchScenario(
    name="tiny", hosts=200, rate=20.0, sim_seconds=2.0,
    warmup_seconds=0.5, shards=1, tree_fanout=2, churn_per_sec=1.0,
    ceiling_mb=4096.0, chunk_seconds=0.25, seed=3,
)


# -- the run loop -----------------------------------------------------

def test_tiny_run_produces_a_complete_report():
    report = run_scenario(TINY)
    assert report.completed and report.aborted is None
    results = report.results
    assert results["events_completed"] > 0
    assert results["events_per_sim_sec"] > 0
    assert results["bytes_sent"] > 0
    assert results["bytes_per_event"] > 0
    assert results["latency_ms"]["p99"] >= results["latency_ms"]["p50"]
    assert results["checkpoint"]["taken"] > 0
    assert report.environment["peak_rss_mb"] > 0


def test_seeded_runs_are_byte_identical():
    first = run_scenario(TINY)
    second = run_scenario(TINY)
    assert json.dumps(first.deterministic_dict(), sort_keys=True) == \
        json.dumps(second.deterministic_dict(), sort_keys=True)


def test_memory_ceiling_aborts_cleanly_with_partial_report():
    """A probe that crosses the ceiling mid-run stops injection and
    still returns a structured (partial) report."""
    readings = iter([10.0] * 3)

    def probe():
        return next(readings, 999.0)     # blows past ceiling_mb=50

    scenario = BenchScenario(
        name="tiny-ceiling", hosts=200, rate=20.0, sim_seconds=5.0,
        warmup_seconds=0.5, tree_fanout=2, ceiling_mb=50.0,
        chunk_seconds=0.25, seed=3)
    report = run_scenario(scenario, memory_probe=probe)
    assert report.aborted == "memory-ceiling"
    assert not report.completed
    # Partial results are still structurally complete.
    assert report.results["sim_seconds_measured"] < scenario.sim_seconds
    assert "latency_ms" in report.results
    assert report.deterministic_dict()["aborted"] == "memory-ceiling"


# -- the regression gate ----------------------------------------------

def _baseline_doc(report):
    return {"runs": [report.to_dict()]}


def test_check_passes_against_itself():
    report = run_scenario(TINY)
    ok, lines = check_report(report.to_dict(), report)
    assert ok, lines


def test_check_fails_on_planted_regression():
    report = run_scenario(TINY)
    baseline = report.to_dict()
    # Results are exact: a planted move of one byte per event fails,
    # and so does a metric the candidate no longer reports.
    baseline["results"] = dict(baseline["results"])
    baseline["results"]["bytes_per_event"] += 1
    ok, lines = check_report(baseline, report)
    assert not ok
    assert any(line.startswith("FAIL bytes_per_event:") for line in lines)
    baseline = report.to_dict()
    report.results = {key: value for key, value in report.results.items()
                      if key != "hosts_churned"}
    ok, lines = check_report(baseline, report)
    assert not ok
    assert lines == [f"FAIL hosts_churned: "
                     f"{baseline['results']['hosts_churned']} -> absent"]


def test_check_fails_on_aborted_run():
    report = run_scenario(TINY)
    baseline = report.to_dict()
    report.aborted = "memory-ceiling"
    ok, lines = check_report(baseline, report)
    assert not ok


def test_check_fails_a_candidate_whose_latency_contradicts_itself():
    report = run_scenario(TINY)
    report.results["latency_ms"]["p50"] = (
        report.results["latency_ms"]["max"] * 1.01)
    # Equal to its baseline, and still judged on its own order.
    ok, lines = check_report(report.to_dict(), report)
    assert not ok
    assert [line for line in lines if line.startswith("FAIL")] == [
        line for line in lines if "latency order" in line]


# -- the CLI ----------------------------------------------------------

def _bench_args(extra):
    return ["bench", "--preset", "smoke", "--hosts", "200",
            "--rate", "20", "--sim-seconds", "2",
            "--warmup-seconds", "0.5", "--seed", "3"] + extra


def test_cli_bench_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli_main(_bench_args(["--out", str(out)]))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["completed"] is True
    assert doc["results"]["events_completed"] > 0
    assert "B/event" in capsys.readouterr().out


def test_cli_bench_check_exits_nonzero_on_regression(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli_main(_bench_args(["--out", str(out)])) == 0
    doc = json.loads(out.read_text())

    # Same baseline: the gate passes.
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"runs": [doc]}))
    assert cli_main(_bench_args(["--check", str(baseline)])) == 0

    # Planted regression of one byte per event: nonzero exit.
    planted = dict(doc, results=dict(
        doc["results"],
        bytes_per_event=doc["results"]["bytes_per_event"] + 1))
    baseline.write_text(json.dumps({"runs": [planted]}))
    assert cli_main(_bench_args(["--check", str(baseline)])) == 1
    assert "FAIL bytes_per_event:" in capsys.readouterr().out


def test_cli_bench_check_missing_baseline_entry(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"runs": []}))
    assert cli_main(_bench_args(["--check", str(baseline)])) == 1


# -- presets ----------------------------------------------------------

def test_presets_cover_e19_matrix():
    names = set(PRESETS)
    assert {"smoke", "e19-100k", "e19-100k-k4",
            "e19-1m", "e19-1m-k4"} <= names
    assert PRESETS["e19-1m"].hosts == 1_000_000
    assert PRESETS["e19-100k-k4"].shards == 4


# -- building blocks --------------------------------------------------

def test_streaming_histogram_quantiles_bounded_memory():
    hist = StreamingHistogram()
    for i in range(10_000):
        hist.add(0.001 * (1 + i % 100))
    assert hist.count == 10_000
    assert hist.quantile(0.5) <= hist.quantile(0.99) <= hist.quantile(1.0)
    # Memory is the bucket array, not the samples.
    assert len(hist.counts) < 200
    summary = hist.summary()
    assert summary["count"] == 10_000
    assert summary["p50"] > 0


def test_streaming_histogram_quantiles_never_exceed_the_exact_max():
    hist = StreamingHistogram()
    for value in (0.000440, 0.000431, 0.000425):    # one bucket, bound .455
        hist.add(value)
    assert hist.quantile(0.5) == hist.quantile(1.0) == hist.max == 0.000440
    summary = hist.summary()
    assert summary["p50"] <= summary["p99"] <= summary["p99_9"] \
        <= summary["max"]
    hist.add(120.0)                                 # the overflow bucket
    assert hist.quantile(1.0) == hist.high < hist.max


def test_host_universe_is_o1_and_deterministic():
    universe = HostUniverse(1_000_000, dpids=[1, 2, 3, 4, 5], seed=7)
    host = universe.host(123_456)
    again = universe.host(123_456)
    assert host == again
    assert host.dpid in (1, 2, 3, 4, 5)
    assert universe.dpid_of(123_456) == host.dpid
    # Churn changes the MAC but not the location.
    moved = universe.host(123_456, generation=3)
    assert moved.mac != host.mac
    assert moved.dpid == host.dpid and moved.port == host.port


def test_traffic_mix_hotspot_and_churn():
    universe = HostUniverse(10_000, dpids=[1, 2, 3], seed=1)
    mix = TrafficMix(universe, seed=2, hot_fraction=0.5, hot_set=4,
                     churn_per_sec=10.0)
    hot = set(mix._hot)
    draws = [mix.sample() for _ in range(400)]
    hot_hits = sum(1 for _, dst in draws if dst.idx in hot)
    assert hot_hits > 100                 # ~50% aim at 4 hot hosts
    assert all(src.idx != dst.idx for src, dst in draws)
    mix.advance(5.0)
    assert mix.churned == 50
