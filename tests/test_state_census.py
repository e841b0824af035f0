"""State census: every attribute an object keeps is one something reads.

An AST scan, names only (a coarse net by design, like the option
census): every ``self.X = ...`` store in a class under ``src/repro``
must have a read of ``X`` somewhere in ``src/``, ``tests/``,
``benchmarks/``, ``wallbench/`` or ``examples/`` -- or be listed in
``ALLOWED`` with the reason it is kept.  State nobody reads still costs
a store on every path that writes it and memory for as long as the
object lives (NetLog's write-ahead log held up to 100 000 records per
controller that nothing read).

A read is an attribute load that is not just the receiver of a
mutating call (``self.log.append(x)`` writes ``log``, it reads nothing
from it); an augmented assignment (``self.count += 1``) is not a read
either.  A string constant equal to ``X`` counts (``getattr(obj,
"X")``), and so does a dotted path ending in ``.X`` (``attrgetter(
"shipping.quorum_gate.confirmed")``).

``SDNApp`` and its subclasses are skipped: an app's ``__dict__`` *is*
its checkpointed state (``repro/apps/base.py``), read back whole by
``get_state``, so its attributes are read by construction.
"""

import ast
from pathlib import Path

from census import CALLER_DIRS, modules

READER_DIRS = CALLER_DIRS + ("tests",)
#: Methods that change their receiver and hand nothing back: calling
#: one on ``self.X`` writes ``X`` without reading it.
MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "remove", "update",
})
#: The checkpointed-state root (see the module docstring).
APP_BASE = "SDNApp"

#: (class, attribute) -> why it is kept though nothing reads it.
ALLOWED = {}


def _class_bases(trees):
    """Class name -> the names of its bases, over ``trees``."""
    bases = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    base.attr if isinstance(base, ast.Attribute)
                    else getattr(base, "id", "") for base in node.bases)
    return bases


def _is_app(name, bases, seen=frozenset()):
    if name == APP_BASE:
        return True
    return any(_is_app(base, bases, seen | {name})
               for base in bases.get(name, ()) if base not in seen)


def _self_stores(cls):
    """``(attribute, line)`` for each ``self.X = ...`` in ``cls``'s
    methods (a nested class is its own)."""
    pending = list(cls.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.ClassDef):
            continue
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            for item in (target.elts if isinstance(target, ast.Tuple)
                         else [target]):
                if isinstance(item, ast.Attribute) \
                        and isinstance(item.value, ast.Name) \
                        and item.value.id == "self":
                    yield item.attr, node.lineno
        pending.extend(ast.iter_child_nodes(node))


def stored_attributes(sources):
    """``(class, attribute) -> "path:line"`` of a store, for every
    class in ``sources`` (``(path, tree)`` pairs) outside the
    ``SDNApp`` lineage."""
    sources = list(sources)
    bases = _class_bases(tree for _, tree in sources)
    found = {}
    for path, tree in sources:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) \
                    and not _is_app(node.name, bases):
                for attr, line in _self_stores(node):
                    found.setdefault((node.name, attr), f"{path}:{line}")
    return found


def read_names(trees):
    """Every attribute name ``trees`` read (see the module docstring)."""
    names = set()
    for tree in trees:
        written = {id(node.func.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr in MUTATORS}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load) \
                    and id(node) not in written:
                names.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    names.add(parts[-1])
    return names


def census(store_sources, read_trees, allowed):
    """The stores nothing reads and ``allowed`` does not list, as
    ``{(class, attribute): where}``, and the stale ``allowed`` entries:
    an entry is stale once its attribute is gone or read."""
    reads = read_names(read_trees)
    found = {key: where
             for key, where in stored_attributes(store_sources).items()
             if key[1] not in reads}
    return ({key: where for key, where in found.items()
             if key not in allowed},
            sorted(set(allowed) - set(found)))


def repository_census(planted=()):
    """The census over the repository, with ``planted`` ``(path,
    tree)`` pairs added to the classes.  This file's own planted
    sources are not readers."""
    here = Path(__file__).resolve()
    readers = (tree for path, tree in modules(*READER_DIRS)
               if path != here)
    return census([*modules("src/repro"), *planted], readers, ALLOWED)


def test_every_stored_attribute_is_read_or_allowed_with_a_reason():
    unread_found, stale = repository_census()
    assert not unread_found, (
        "attributes stored under src/repro that nothing in src/, tests/, "
        "benchmarks/, wallbench/ or examples/ reads: "
        f"{sorted(unread_found.items())} -- delete each store, or list "
        "it in ALLOWED with the reason it stays")
    assert not stale, (
        f"ALLOWED lists attributes that are read or gone: {stale}")
    assert all(reason.strip() for reason in ALLOWED.values())


# -- the census on planted sources ------------------------------------------

PLANTED = """
class Planted:
    def __init__(self):
        self.unused = 0
"""


def _planted(source=PLANTED):
    return [(Path("planted.py"), ast.parse(source))]


def test_a_planted_unread_attribute_fails_and_is_named():
    unread_found, _ = census(_planted(), [], {})
    assert list(unread_found) == [("Planted", "unused")]
    assert unread_found["Planted", "unused"] == "planted.py:4"


def test_a_planted_unread_attribute_fails_the_repository_census():
    unread_found, _ = repository_census(planted=_planted())
    assert ("Planted", "unused") in unread_found


def test_getattr_and_a_dotted_attrgetter_path_are_reads():
    for reader in ('getattr(obj, "unused")',
                   'attrgetter("part.unused")(obj)',
                   'obj.unused'):
        unread_found, _ = census(_planted(), [ast.parse(reader)], {})
        assert not unread_found, reader


def test_writes_are_not_reads():
    for writer in ("obj.unused.append(1)", "obj.unused.update(x)",
                   "obj.unused += 1", "obj.unused = 2", "del obj.unused",
                   '"an unused sentence"'):
        unread_found, _ = census(_planted(), [ast.parse(writer)], {})
        assert list(unread_found) == [("Planted", "unused")], writer


def test_app_state_is_skipped():
    app = """
class SDNApp:
    def __init__(self):
        self.api = None

class PlantedApp(SDNApp):
    def __init__(self):
        self.unused = 0

class Derived(PlantedApp):
    def reset(self):
        self.other = 1
"""
    unread_found, _ = census(_planted(app), [], {})
    assert not unread_found


def test_a_stale_allowed_entry_fails():
    allowed = {("Planted", "gone"): "kept", ("Planted", "unused"): "kept"}
    unread_found, stale = census(_planted(), [], allowed)
    assert not unread_found
    assert stale == [("Planted", "gone")]
    # An entry whose attribute gained a reader is stale too.
    _, stale = census(_planted(), [ast.parse("obj.unused")],
                      {("Planted", "unused"): "kept"})
    assert stale == [("Planted", "unused")]
