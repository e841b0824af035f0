"""``benchmarks/sim_digest.py``'s comparison, and the committed file.

No subprocess: ``moved`` is checked on fabricated digests, and the
committed ``SIM_DIGEST.json`` is read as data.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "sim_digest", ROOT / "benchmarks" / "sim_digest.py")
sim_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sim_digest)

EVENT_MS_KEYS = {"event_ms_count", "event_ms_p50", "event_ms_p99",
                 "event_ms_max"}


def _digest(**overrides):
    digest = {"completed": 1579, "repl_bytes": 52622, "event_ms_count": 1579,
              "event_ms_p50": 0.4064, "event_ms_p99": 0.43554,
              "event_ms_max": 0.43954}
    digest.update(overrides)
    return digest


def test_identical_digests_move_nothing():
    assert sim_digest.moved({"steady": _digest()}, {"steady": _digest()}) == []


def test_a_moved_latency_is_named_by_its_key():
    lines = sim_digest.moved({"steady": _digest()},
                             {"steady": _digest(event_ms_p50=0.4264)})
    assert lines == ["steady: event_ms_p50 moved 0.4064 -> 0.4264"]


def test_a_key_on_one_side_only_is_reported():
    short = _digest()
    del short["event_ms_max"]
    for want, got in ((short, _digest()), (_digest(), short)):
        lines = sim_digest.moved({"steady": want}, {"steady": got})
        assert len(lines) == 1 and "event_ms_max" in lines[0], lines


def test_a_workload_missing_from_the_committed_file_is_reported():
    lines = sim_digest.moved({"steady": _digest()},
                             {"steady": _digest(), "monolithic": {}})
    assert len(lines) == 1 and lines[0].startswith("monolithic:"), lines


def test_committed_digest_pins_latency_of_exactly_the_appvisor_workloads():
    committed = json.loads((ROOT / "SIM_DIGEST.json").read_text())
    assert set(committed) == set(sim_digest.WORKLOADS)
    with_latency = {workload for workload, digest in committed.items()
                    if EVENT_MS_KEYS <= set(digest)}
    assert with_latency == {"steady", "crash-recover", "sharded-failover"}
    assert not EVENT_MS_KEYS & set(committed["monolithic"])
