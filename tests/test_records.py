"""Records are the dataclasses they replace.

Every frozen value type under ``src/repro`` is a :func:`repro.record.record`:
``dataclass(frozen=True, slots=True)`` with a generated ``__init__`` and
evolver.  Each record class (found through ``repro.record.REGISTRY``, with
every ``repro`` module imported) is held to a *twin*: the
``dataclasses.make_dataclass(..., frozen=True)`` class built from its
``fields()``.  Signature, field values, frozenness, ``==``, ``hash``,
``repr``, ``replace``, copy, deepcopy and pickle must all agree.
"""

import ast
import copy
import dataclasses
import gc
import importlib
import inspect
import pickle
import pkgutil
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.network.packet import Packet, tcp_packet
from repro.record import REGISTRY, replace
from repro.scenario import KINDS, Step
from repro.stack import StackSpec

for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not _module.name.endswith("__main__"):
        importlib.import_module(_module.name)

RECORDS = sorted(
    (cls for cls in REGISTRY if cls.__module__.startswith("repro.")),
    key=lambda cls: (cls.__module__, cls.__qualname__))
FROZEN = dataclasses.FrozenInstanceError

#: Hashable, picklable values of every shape a field holds.
ATOMS = (st.none() | st.booleans() | st.integers(-2**40, 2**40)
         | st.floats(allow_nan=False) | st.text(max_size=6)
         | st.tuples(st.integers(0, 9), st.text(max_size=2)))


def _twin(cls):
    """The plain frozen dataclass ``cls`` stands for."""
    specs = []
    for f in dataclasses.fields(cls):
        options = dict(init=f.init, repr=f.repr, hash=f.hash,
                       compare=f.compare, metadata=f.metadata,
                       kw_only=f.kw_only)
        if f.default is not dataclasses.MISSING:
            options["default"] = f.default
        if f.default_factory is not dataclasses.MISSING:
            options["default_factory"] = f.default_factory
        specs.append((f.name, f.type, dataclasses.field(**options)))
    namespace = {}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True,
                                      namespace=namespace)


TWINS = {cls: _twin(cls) for cls in RECORDS}


def _value(cls, f):
    if cls is Step and f.name == "kind":
        return st.sampled_from(sorted(KINDS))
    return ATOMS


def _values(obj):
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


def _body(obj) -> str:
    """``repr`` without the class name."""
    return repr(obj).partition("(")[2]


def test_every_record_is_registered():
    """The registry walked here holds every ``@record`` under src/repro."""
    src = Path(repro.__file__).parent
    decorated = {
        (".".join(("repro",) + path.relative_to(src).with_suffix("").parts),
         node.name)
        for path in src.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and any(
            getattr(d, "id", "") == "record" for d in node.decorator_list)}
    assert {(cls.__module__, cls.__qualname__) for cls in RECORDS} == decorated
    assert len(decorated) >= 54


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_signature_is_the_dataclass_one(cls):
    assert inspect.signature(cls.__init__) == inspect.signature(
        TWINS[cls].__init__)
    assert cls.__init__.__code__.co_filename == f"<record {cls.__name__}>"
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_record_behaves_as_its_twin(cls, data):
    twin = TWINS[cls]
    fields = dataclasses.fields(cls)
    values = {f.name: data.draw(_value(cls, f), label=f.name)
              for f in fields}
    rec, ref = cls(**values), twin(**values)
    assert not hasattr(rec, "__dict__")         # slots only
    assert _values(rec) == _values(ref) == list(values.values())
    assert rec == cls(**values) and not rec != cls(**values)
    assert hash(rec) == hash(ref)
    assert _body(rec) == _body(ref)
    positional = [values[f.name] for f in fields if not f.kw_only]
    assert cls(*positional, **{f.name: values[f.name] for f in fields
                               if f.kw_only}) == rec

    for f in fields:
        with pytest.raises(FROZEN):
            setattr(rec, f.name, 1)
        with pytest.raises(FROZEN):
            delattr(rec, f.name)
        new = data.draw(_value(cls, f), label=f"new {f.name}")
        assert _values(replace(rec, **{f.name: new})) == _values(
            dataclasses.replace(ref, **{f.name: new}))
    with pytest.raises(FROZEN):
        rec.not_a_field = 1
    with pytest.raises(FROZEN):
        del rec.not_a_field
    with pytest.raises(TypeError):
        replace(rec, not_a_field=1)
    assert replace(rec) == rec and replace(rec) is not rec

    for clone in (copy.copy(rec), copy.deepcopy(rec),
                  pickle.loads(pickle.dumps(rec))):
        assert type(clone) is cls and clone == rec
        assert _values(clone) == _values(rec)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_defaults_are_the_twins(cls, data):
    twin = TWINS[cls]
    required = {f.name: data.draw(_value(cls, f), label=f.name)
                for f in dataclasses.fields(cls)
                if f.default is f.default_factory is dataclasses.MISSING}
    rec, ref = cls(**required), twin(**required)
    made = {f.name for f in dataclasses.fields(cls)
            if f.default_factory is not dataclasses.MISSING}
    for f in dataclasses.fields(cls):
        mine, theirs = getattr(rec, f.name), getattr(ref, f.name)
        if f.name in made:          # run afresh for each instance
            assert type(mine) is type(theirs), f.name
            assert getattr(cls(**required), f.name) is not mine
        else:
            assert mine is theirs or mine == theirs, f.name
    # What a factory made may differ (``Packet.pkt_id`` counts): take the
    # twin's, and the rest must hash and print alike.
    same = replace(rec, **{name: getattr(ref, name) for name in made})
    assert _hash(same) == _hash(ref)
    assert _body(same) == _body(ref)


def test_factories_run_on_construction_not_on_replace():
    first, second = Packet(), Packet()
    assert second.pkt_id == first.pkt_id + 1
    assert replace(first, ttl=3).pkt_id == first.pkt_id
    assert dataclasses.replace(first, ttl=3).pkt_id == first.pkt_id
    step = Step(1.0, "load")
    assert Step(1.0, "load").args is not step.args
    assert replace(step, at=2.0).args is step.args
    spec = StackSpec(topology=None)
    assert replace(spec, seed=1).replica_options is spec.replica_options


def test_post_init_runs_on_construction_and_on_replace():
    with pytest.raises(ValueError, match="unknown step kind"):
        Step(1.0, "no-such-kind")
    step = Step(1.0, "load")
    with pytest.raises(ValueError, match="unknown step kind"):
        replace(step, kind="no-such-kind")
    assert replace(step, kind="churn").kind == "churn"


def test_replace_takes_only_records():
    with pytest.raises(TypeError):
        replace(object())
    with pytest.raises(TypeError):
        replace(TWINS[Packet]())


def _traced_bytes(build) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept) == 1000
    return after - before


def test_a_record_is_smaller_than_its_twin():
    packets = [tcp_packet(f"m{i}", "b", "c", "d") for i in range(1000)]
    sizes = {Packet: [], TWINS[Packet]: []}
    for _ in range(3):      # alternated, the best of three: no warm-up
        for cls, seen in sizes.items():
            seen.append(_traced_bytes(
                lambda: [cls(*_values(p)) for p in packets]))
    assert min(sizes[Packet]) < min(sizes[TWINS[Packet]]), sizes
