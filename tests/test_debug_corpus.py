"""The chaos-correlated bug corpus (repro.debug.corpus).

The committed ``CORPUS_PR10.json`` is a behavioural fingerprint of
the whole failure path (detector, chaos plane, Crash-Pad policy,
minimizer): these tests pin that the smoke preset regenerates it
byte-for-byte, and that every failing cell minimizes to no more than
its bug kind's known trigger length.
"""

import json
import pathlib

import pytest

from repro.debug import CORPUS_PRESETS, check_corpus, corpus_json, run_corpus
from repro.debug.corpus import TRIGGER_LENGTHS
from repro.faults.bugs import BugKind
from test_cli_golden import run

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMITTED = REPO_ROOT / "CORPUS_PR10.json"


@pytest.fixture(scope="module")
def smoke_doc():
    return run_corpus("smoke", seed=0)


class TestPresets:
    def test_presets_cover_known_trigger_lengths(self):
        for preset in CORPUS_PRESETS.values():
            for kind in preset.bug_kinds:
                assert kind in TRIGGER_LENGTHS

    def test_smoke_is_a_subset_of_full(self):
        smoke = CORPUS_PRESETS["smoke"]
        full = CORPUS_PRESETS["full"]
        assert set(smoke.bug_kinds) <= set(full.bug_kinds)
        assert full.bug_kinds == (
            BugKind.CRASH, BugKind.HANG, BugKind.BYZANTINE_LOOP,
            BugKind.BYZANTINE_BLACKHOLE, BugKind.STATE_CORRUPTION)


class TestSmokeCorpus:
    def test_every_cell_fails_and_is_ticketed(self, smoke_doc):
        assert len(smoke_doc["cells"]) == 4  # 2 bugs x 2 adversity cells
        for cell in smoke_doc["cells"]:
            outcome = cell["outcome"]
            assert outcome["signature"]["kind"] == "app-failure"
            assert outcome["tickets"] >= 1
            assert outcome["controller_up"] is True

    def test_minimized_within_known_trigger_length(self, smoke_doc):
        for cell in smoke_doc["cells"]:
            outcome = cell["outcome"]
            assert outcome["minimized_length"] is not None
            assert outcome["minimized_length"] <= cell["trigger_length"]
            # Minimization did real work: the capture was longer.
            assert outcome["events_captured"] > outcome["minimized_length"]

    def test_regeneration_is_byte_identical(self, smoke_doc):
        again = run_corpus("smoke", seed=0)
        assert corpus_json(smoke_doc) == corpus_json(again)

    def test_matches_committed_corpus(self, smoke_doc):
        ok, notes = check_corpus(smoke_doc, str(COMMITTED))
        assert ok, "\n".join(notes)

    def test_document_is_json_round_trip_stable(self, smoke_doc):
        text = corpus_json(smoke_doc)
        assert corpus_json(json.loads(text)) == text


class TestCheckCorpus:
    def test_drift_is_diagnosed_per_cell(self, smoke_doc, tmp_path):
        mutated = json.loads(corpus_json(smoke_doc))
        mutated["cells"][0]["outcome"]["minimized_length"] = 99
        path = tmp_path / "corpus.json"
        path.write_text(corpus_json(mutated))
        ok, notes = check_corpus(smoke_doc, str(path))
        assert not ok
        assert any("drifted" in note for note in notes)

    def test_invalid_json_is_reported(self, smoke_doc, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text("{not json")
        ok, notes = check_corpus(smoke_doc, str(path))
        assert not ok
        assert any("not valid JSON" in note for note in notes)


class TestReplayDisagreements:
    """Full-preset seeds whose hang cells once stopped ``repro corpus``
    with a traceback (run as the CLI goldens are: fresh id counters)."""

    def test_a_hang_minimizes_however_long_its_silence_lasted(self):
        # A hang's ticket says how long the app was silent, on the
        # recording's clock; every replay measures its own silence.
        result = run("corpus --preset full --seed 1")
        assert result["exit"] == 0
        hangs = [line for line in result["stdout"].splitlines()
                 if line.startswith("  ") and "[hang]" in line]
        assert len(hangs) == 4
        assert all(line.endswith("minimized 1 (trigger 1)")
                   for line in hangs), hangs

    def test_a_recording_that_replays_otherwise_is_reported(self, tmp_path):
        out = tmp_path / "corpus.json"
        result = run(f"corpus --preset full --seed 46 --out {out}")
        assert result["exit"] == 1
        assert ("  bug-009 [hang] x corrupt=0.01, loss=0.2, reorder=0.1: "
                "app-failure/fail-stop-silent policy=absolute, DOES NOT "
                "replay (replays as app-failure/hang)\n") in result["stdout"]
        cells = [cell for cell in json.loads(out.read_text())["cells"]
                 if "replayed_signature" in cell["outcome"]]
        assert [(c["bug"], c["adversity"]) for c in cells] == [
            ("bug-009", {"corrupt": 0.01, "loss": 0.2, "reorder": 0.1})]
        outcome = cells[0]["outcome"]
        assert "minimized_length" not in outcome
        assert outcome["signature"]["failure_kind"] == "fail-stop-silent"
        assert outcome["replayed_signature"] == {
            "kind": "app-failure", "app": "learning_switch",
            "failure_kind": "hang", "exception": ""}
