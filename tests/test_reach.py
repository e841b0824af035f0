"""``benchmarks/reach.py``: enumeration, recording, allowlist and gate.

In-process, on a small synthetic package: no subprocess and no census
of ``src/repro`` (that is the CI job's eleven minutes).
"""

import importlib.util
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "reach", ROOT / "benchmarks" / "reach.py")
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

MODULE = '''\
import functools


def traced(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@traced
def decorated(x):
    return x + 1


def outer():
    def nested():
        return 2
    return nested()


class Square:
    def __init__(self, side):
        self.side = side

    @property
    def area(self):
        return self.side * self.side

    def grow(self):
        self.side += 1


def planted():
    return "nothing calls this"
'''


@pytest.fixture
def package(tmp_path, monkeypatch):
    root = tmp_path / "synth"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(MODULE)
    monkeypatch.syspath_prepend(str(tmp_path))
    yield root
    for name in [n for n in sys.modules if n.split(".")[0] == "synth"]:
        del sys.modules[name]


def census(package):
    """The package's functions and what exercising it reached."""
    with reach.Recorder() as recorder:
        from synth import mod

        mod.decorated(1)
        mod.outer()
        square = mod.Square(2)
        assert square.area == 4
        square.grow()
    return reach.functions(package), recorder.hits(package)


def test_exactly_the_planted_function_is_unreached(package):
    funcs, hits = census(package)
    assert sorted(f.name for f in funcs.values()) == [
        "synth.mod.Square.__init__", "synth.mod.Square.area",
        "synth.mod.Square.grow", "synth.mod.decorated", "synth.mod.outer",
        "synth.mod.outer.nested", "synth.mod.planted", "synth.mod.traced",
        "synth.mod.traced.wrapper"]
    # A decorated function starts at its first decorator, as
    # co_firstlineno does; keyed on the def line, these two would be
    # listed as well.
    area = next(f for f in funcs.values() if f.name.endswith(".area"))
    assert MODULE.splitlines()[area.line - 1].strip() == "@property"
    unreached = reach.unreached(funcs, hits)
    assert [f.name for f in unreached] == ["synth.mod.planted"]
    assert unreached[0].lines == 2


def test_allowlist_line_without_reason_is_rejected():
    assert reach.read_allowlist(
        ["# a comment", "", "repro.a.f  # kept: a live call site"]) == [
        ("repro.a.f", "kept: a live call site")]
    with pytest.raises(ValueError, match="line 2"):
        reach.read_allowlist(["repro.a.f  # why", "repro.b.g"])
    with pytest.raises(ValueError, match="line 1"):
        reach.read_allowlist(["repro.b.g  #   "])


def test_allowlist_patterns_cover_names_and_what_they_nest():
    assert reach.covers("repro.api.AppAPI", "repro.api.AppAPI.emit")
    assert reach.covers("*.__repr__", "repro.x.Span.__repr__")
    assert not reach.covers("repro.api.AppAPI", "repro.api.AppAPIx.emit")
    assert not reach.covers("*.__repr__", "repro.x.Span.render")


def test_gate_fails_naming_the_function_nothing_reaches(package):
    funcs, hits = census(package)
    out = io.StringIO()
    assert reach.gate(funcs, hits, hits, [], out=out) == 1
    failure = out.getvalue().split("FAIL")[1]
    assert "synth.mod.planted" in failure
    assert "synth.mod.outer" not in failure

    out = io.StringIO()
    allow = [("synth.mod.planted", "kept for the test")]
    assert reach.gate(funcs, hits, hits, allow, out=out) == 0
    assert "reached only by tier-1: 0 functions" in out.getvalue()
    assert "reached by nothing (tier-1 included): 1 functions" \
        in out.getvalue()


def entry_and_tier1(package):
    """The package's functions, what an "entry point" run reached (all
    but ``Square.grow`` and ``planted``), and what it and a "tier-1"
    run that also grows the square reached together."""
    with reach.Recorder() as entry:
        from synth import mod

        mod.decorated(1)
        mod.outer()
        square = mod.Square(2)
        assert square.area == 4
    with reach.Recorder() as tier1:
        square.grow()
    entry_hits = entry.hits(package)
    return (reach.functions(package), entry_hits,
            entry_hits | tier1.hits(package))


PLANTED_ALLOWED = [("synth.mod.planted", "kept for the test")]


def test_gate_fails_naming_a_tier1_only_function_no_file_covers(package):
    funcs, entry, everything = entry_and_tier1(package)
    out = io.StringIO()
    assert reach.gate(funcs, entry, everything, PLANTED_ALLOWED,
                      out=out) == 1
    text = out.getvalue()
    assert "reached only by tier-1: 1 functions" in text
    failure = text.split("FAIL")[1]
    assert "only tier-1 runs" in failure
    assert "synth.mod.Square.grow" in failure
    assert "synth.mod.planted" not in failure

    for allow, owed, tag in (
            (PLANTED_ALLOWED + [("synth.mod.Square.grow", "kept")], [],
             "allowed"),
            (PLANTED_ALLOWED, [("synth.mod.Square.*", "item 4: owed")],
             "owed")):
        out = io.StringIO()
        assert reach.gate(funcs, entry, everything, allow, owed,
                          out=out) == 0
        assert "FAIL" not in out.getvalue()
        assert f"synth.mod.Square.grow  (2 lines)  [{tag}: " \
            in out.getvalue()


def test_owed_line_without_an_item_is_rejected():
    assert reach.read_owed(
        ["# a comment", "", "repro.a.f  # item 4: the fuzzer runs it"]) == [
        ("repro.a.f", "item 4: the fuzzer runs it")]
    with pytest.raises(ValueError, match="line 2"):
        reach.read_owed(["repro.a.f  # item 4: why", "repro.b.g  # why"])
    with pytest.raises(ValueError, match="line 1"):
        reach.read_owed(["repro.b.g"])
    with pytest.raises(ValueError, match="line 1"):
        reach.read_owed(["repro.b.g  # item 4:"])


def test_owed_line_covering_nothing_only_tier1_reaches_fails(package):
    funcs, entry, everything = entry_and_tier1(package)
    owed = [("synth.mod.Square.grow", "item 4: owed"),
            ("synth.mod.outer", "item 6: landed, now an entry point runs it"),
            ("synth.mod.planted", "item 7: nothing runs it at all")]
    out = io.StringIO()
    assert reach.gate(funcs, entry, everything, PLANTED_ALLOWED, owed,
                      out=out) == 1
    failure = out.getvalue().split("FAIL")[1]
    assert "cover no function only tier-1 runs" in failure
    assert "synth.mod.outer  # item 6" in failure
    assert "synth.mod.planted  # item 7" in failure
    assert "synth.mod.Square.grow" not in failure


def test_get_endpoints_reads_the_url_and_expects_200(monkeypatch):
    from repro.telemetry import Telemetry
    from repro.telemetry.serve import MetricsServer

    with MetricsServer(Telemetry(enabled=True)) as server:
        served = f"{reach.SERVING}{server.url}\n"
        assert reach.get_endpoints(iter(["some preamble\n", served])) == ""
        monkeypatch.setattr(reach, "SERVE_PATHS",
                            reach.SERVE_PATHS + ("/nope",))
        assert reach.get_endpoints(iter([served])) == "GET /nope: 404"
    assert "no 'serving telemetry on' line" in reach.get_endpoints(
        iter(["usage: repro serve\n"]))
