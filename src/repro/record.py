"""Frozen value types built through their slots: ``@record``, ``replace``.

A record is ``dataclass(frozen=True, slots=True)`` whose ``__init__`` and
evolver (compiled as ``<record Name>``) store each field through its
slot's ``__set__``, where a frozen dataclass calls ``object.__setattr__``.
"""

import dataclasses
import sys

#: Every record class: to the codec, an ``__init__`` that only stores.
REGISTRY: set = set()

#: dataclass's frozen guard, naming the class ``slots=True`` returns (its
#: own names the one replaced: a non-field name raised ``TypeError``).
_GUARD = """
    def __{0}attr__(self, name, *value):
        if type(self) is _cls or name in _names:
            raise _Frozen(f"cannot {1} field {{name!r}}")
        super(_cls, self).__{0}attr__(name, *value)"""


def record(cls: type) -> type:
    """``@dataclass(frozen=True)`` through slots; only init fields."""
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    fields = sorted(dataclasses.fields(cls), key=lambda f: f.kw_only)
    env = dict(_cls=cls, _names={f.name for f in fields}, _KEEP=object(),
               _new=object.__new__, _Frozen=dataclasses.FrozenInstanceError,
               _FACTORY=dataclasses._HAS_DEFAULT_FACTORY)
    params, init, evolve = ["self"], [], ["self = _new(_cls)"]
    for f in fields:
        default, value = "", f.name
        if f.default_factory is not dataclasses.MISSING:
            env["_factory_" + f.name], default = f.default_factory, "=_FACTORY"
            value = f"_factory_{f.name}() if {f.name} is _FACTORY else {value}"
        elif f.default is not dataclasses.MISSING:
            env["_dflt_" + f.name], default = f.default, "=_dflt_" + f.name
        if f.kw_only and "*" not in params:
            params.append("*")
        env["_type_" + f.name], env["_set_" + f.name] = (
            f.type, getattr(cls, f.name).__set__)
        params.append(f"{f.name}: _type_{f.name}{default}")
        init.append(f"_set_{f.name}(self, {value})")
        evolve.append(f"_set_{f.name}(self, old.{f.name} if {f.name} is "
                      f"_KEEP else {f.name})")
    post = ["self.__post_init__()"] * hasattr(cls, "__post_init__")
    keep = "".join(f", {f.name}=_KEEP" for f in fields)
    source = "\n".join((
        f"def __create_fn__({', '.join(env)}):",
        f"    def __init__({', '.join(params)}) -> None:",
        *("        " + line for line in init + post or ["pass"]),
        f"    def __replace__(old, /{', *' * bool(fields)}{keep}):",
        *("        " + line for line in evolve + post + ["return self"]),
        _GUARD.format("set", "assign to") + _GUARD.format("del", "delete"),
        "    return __init__, __replace__, __setattr__, __delattr__"))
    ns = {}
    exec(compile(source, f"<record {cls.__name__}>", "exec"),
         getattr(sys.modules.get(cls.__module__), "__dict__", {}), ns)
    for method in ns["__create_fn__"](**env):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    REGISTRY.add(cls)
    return cls


def replace(obj, /, **changes):
    """``dataclasses.replace`` for a record (its semantics, its errors)."""
    if type(obj) not in REGISTRY:
        raise TypeError(f"replace() takes a record, not {type(obj)!r}")
    return obj.__replace__(**changes)
