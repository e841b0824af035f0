"""Self-tests for the benchmark (``python3 -m pytest wallbench -q``).

Outside ``testpaths`` on purpose: tier-1 time is untouched.  The slow
part is one ``python3 -m wallbench --quick`` shared by every test that
reads its report.
"""

import json
import re
import shutil
import subprocess
import sys
import warnings

import pytest

from wallbench.run import MANIFEST, ROOT
from wallbench.trace import LAYERS, Trace
from wallbench.workloads import RUN_SECONDS, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN = [sys.executable, str(ROOT / "wallbench" / "run.py")]


@pytest.fixture(scope="module")
def quick():
    done = subprocess.run([sys.executable, "-m", "wallbench", "--quick"],
                          cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads((ROOT / "wallbench" / "out" / "report.json")
                        .read_text())
    return report, done.stdout


def test_manifest_matches_the_code():
    assert set(MANIFEST) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["wallbench"]
    assert MANIFEST["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    names = [m["name"] for section in ("workloads", "end_to_end",
                                       "per_layer")
             for m in MANIFEST[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in {m["name"] for m in MANIFEST["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])


def test_report_has_every_declared_metric_and_nothing_else(quick):
    report, _ = quick
    assert list(report["workloads"]) == list(WORKLOADS)
    for result in report["workloads"].values():
        assert set(result["end_to_end"]) == {
            m["name"] for m in MANIFEST["end_to_end"]}
        assert set(result["per_layer"]) == {
            m["name"] for m in MANIFEST["per_layer"]}
        assert not result["untraced"]


def test_counts_repeat_exactly_and_checks_pass(quick):
    report, _ = quick
    assert report["problems"] == []
    for name, result in report["workloads"].items():
        # Only the outage sharded-failover schedules may lose requests,
        # and what it loses is in the result line's ``failed``.
        assert result["failed"] == result["outage_lost"] \
            == result["sim_digest"]["failed"]
        assert (result["failed"] > 0) == (name == "sharded-failover")
        assert result["sim_digest"]["completed"] > 0


def test_layer_table_adds_up(quick):
    report, stdout = quick
    for name, result in report["workloads"].items():
        layers = result["per_layer"]
        assert 0.95 <= layers["trace.coverage"] <= 1.05, name
        assert layers["trace.overhead_ratio"] > 0
        total = sum(layers[f"{layer}.self_us_per_event"]
                    for layer in LAYERS)
        # The generator is the benchmark's own cost.  The monolithic
        # stack does so little per event that the same generator is a
        # larger share of it.
        budget = 0.15 if name == "monolithic" else 0.05
        assert layers["loadgen.self_us_per_event"] < budget * total, name
        assert layers["appvisor.channel.retransmits"] == 0
        assert layers["replication.divergence"] == 0
        assert layers["crashpad.recovery.recovered_ratio"] == 1
    assert "UNVALIDATED" in stdout and "sim_digest" in stdout


def test_each_workload_reaches_the_layers_it_exists_for(quick):
    layers = {name: result["per_layer"]
              for name, result in quick[0]["workloads"].items()}
    for layer in ("codec", "appvisor.proxy", "appvisor.stub",
                  "appvisor.channel", "netlog", "crashpad.checkpoint",
                  "crashpad.recovery", "replication",
                  "replication.byzantine", "shard"):
        assert layers["monolithic"][f"{layer}.calls_per_event"] == 0
    assert layers["crash-recover"]["crashpad.recovery.crashes"] > 0
    assert layers["crash-recover"]["netlog.rollbacks"] > 0
    assert layers["sharded-failover"]["replication.failovers"] == 1
    assert (layers["sharded-failover"]["replication.frames_per_event"]
            >= 1.5 * layers["steady"]["replication.frames_per_event"])
    steady = layers["steady"]
    assert steady["telemetry.wall_ratio"] > 0
    assert 0 < steady["appvisor.sim_event_ms_p50"] \
        <= steady["appvisor.sim_event_ms_p99"]


def test_an_app_that_never_recovers_fails_the_run():
    # crash_on with no trigger condition fires on every PacketIn.
    done = subprocess.run(
        RUN + ["--workload", "selftest-dead-app", "--seconds", "1",
               "--trace", "0"],
        capture_output=True, text=True)
    assert done.returncode != 0
    assert "VIOLATION" in done.stderr
    assert '"correct": true' not in done.stdout


def test_without_the_source_tree_there_is_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "wallbench", tmp_path / "wallbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "wallbench/run.py", "--workload", "steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode != 0
    assert done.stdout == ""


def test_fold_subtracts_child_spans():
    trace = Trace()

    def leaf():
        return sum(range(2000))

    traced_leaf = trace.wrap(leaf, "codec", "leaf")

    def parent():
        return traced_leaf() + traced_leaf()

    traced_parent = trace.wrap(parent, "netlog", "parent")
    traced_parent()                      # recording off: no spans
    assert len(trace.starts) == 0
    trace.on = True
    traced_parent()
    trace.on = False
    folded = trace.fold()
    assert folded.spans == 3
    assert folded.calls_of("codec", "leaf") == 2
    assert folded.calls_of("netlog", "parent") == 1
    assert (folded.self_ns("netlog") + folded.self_ns("codec")
            == folded.inclusive_ns("netlog", "parent")
            == folded.total_self_ns())
    assert folded.inclusive_under_ns("codec", "netlog") == \
        folded.inclusive_ns("codec", "leaf")
    assert folded.edge_calls(("leaf",), not_under=("parent",)) == 0


def test_a_missing_target_is_a_warning_not_a_crash(monkeypatch):
    import wallbench.trace as trace_module
    monkeypatch.setattr(trace_module, "ENTRY_POINTS", (
        ("codec", "repro.openflow.serialization", None, ("no_such_fn",)),
        ("shard", "repro.no_such_module", None, ("anything",)),
        ("netlog", "repro.core.netlog.transaction", "NoSuchClass",
         ("begin",)),
    ))
    trace = Trace()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace._patch_entry_points()
    assert len(trace.untraced) == 3
    assert len(caught) == 3
