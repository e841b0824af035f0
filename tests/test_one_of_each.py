"""One of each: the mechanisms that exist once stay single.

An AST scan, names only, like the option census (a coarse net by
design).  Each check names a *second implementation* that existed
until PR 21 and the place the one survivor lives, so the next copy has
to arrive by editing this file:

- one delta-debugging minimiser (``ddmin`` in
  ``core/crashpad/sts.py``; ``repro.debug`` runs the same function);
- percentile/quantile rules defined in ``metrics/collector.py``,
  nowhere else, and there exactly one, nearest rank over every sample
  (a rounded-index rule once served the watchdog and a deleted
  span-diff gate; a log-bucket streaming histogram once served the
  load harness, and its bucket bounds read as quantiles);
- no ``pickle`` under ``src/repro`` at all (until PR 22 it framed
  ``checkpoint.py``'s ``{key: bytes}`` maps; an image is now its buffer
  map) -- app and service state have one encoding;
- no hashing in ``checkpoint.py``: dedup is the buffer diff the delta
  already computes;
- one SHA-256 under ``src/repro``, CPython's built-in ``_sha2`` /
  ``_sha256`` in ``replication/byzantine.py``: it once imported
  ``hashlib`` and ``hmac``, which load OpenSSL's libcrypto into every
  process that imports the runtime.  ``from hashlib import sha256``
  stays only as that module's fallback for a build with neither;
- one ``ReplicaSet`` class split where its decisions live: no module
  under ``replication/`` passes 600 lines, and no part (shipping,
  voting, membership, promotion, ...) imports the composition root;
- one stack builder, ``repro.stack.build_stack``: the CLI, the replay
  harness, the load harness, the shard coordinator and
  ``quickstart_network`` once each called the constructors in
  ``BUILDERS`` their own way.  Calls, not text: docstrings name them;
- one timeline driver, ``repro.scenario.play``: ``FailureSchedule``
  once pushed timed faults onto the simulator heap while the CLI ran
  the clock and applied its faults by hand, and the two ordered a
  fault against the events due at its instant differently.  The debug
  loop's record ran the clock in Python drive closures, and its replay
  pushed captured events onto the heap; both now play steps.  So do
  the load harness (a chunked ``run_for`` loop and a crash marker on
  the heap) and controller upgrades (``core/upgrade.py`` ran the clock
  across one): outside ``scenario.py`` and ``network/``'s probe waits,
  nothing under ``src/repro`` runs the clock;
- one owner of a flow table's ``entries``, ``FlowTable`` itself: its
  rule index, deadline heap and positions stand beside the list, so a
  caller that reassigns or edits it (``note_flow_stats`` and
  ``note_flow_removed`` once did) desynchronises them.  Only
  ``flowtable.py`` and the linear oracle it replaced
  (``tests/flowtable_oracle.py``) write it;
- one way to build a frozen value type, ``repro.record.record``: every
  ``@dataclass(frozen=True)`` under ``src/repro`` stored its fields
  through ``object.__setattr__`` at three times the cost of a slot
  store (``tests/test_records.py`` holds each record to that twin).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SCANNED = (SRC, ROOT / "benchmarks")

STS = SRC / "core" / "crashpad" / "sts.py"
CHECKPOINT = SRC / "core" / "crashpad" / "checkpoint.py"
COLLECTOR = SRC / "metrics" / "collector.py"
REPLICATION = SRC / "replication"
ROOT_MODULE = "repro.replication.replicaset"
STACK = SRC / "stack.py"
CLI = SRC / "cli.py"
DEBUG = SRC / "debug"
SCENARIO = SRC / "scenario.py"
HARNESS = SRC / "bench" / "harness.py"
#: The clock: only ``play`` and the network's own probe waits run it.
CLOCK_CALLS = {"run_for", "run_until"}
#: What only a scenario step does: the clock, the kills, the workloads.
TIMELINE_CALLS = CLOCK_CALLS | {
    "crash_primary", "crash_shard_primary", "TrafficWorkload",
    "ChurnWorkload", "inject_marker_packet"}
RETIRED_DRIVER = {"FailureSchedule", "FailureEvent", "upgrade_monolithic",
                  "upgrade_legosdn", "UpgradeReport"}
#: The one writer of ``.entries``, and the old class kept as its oracle.
ENTRIES_OWNERS = {SRC / "openflow" / "flowtable.py",
                  ROOT / "tests" / "flowtable_oracle.py"}
LIST_MUTATORS = {"append", "extend", "insert", "remove", "pop", "clear",
                 "sort", "reverse"}
#: ... and what the debug loop's record and replay, and the load
#: harness's crash marker, once called.
HEAP_CALLS = {"schedule", "schedule_at"}
#: Constructor -> the only modules under ``src/repro`` that call it.
BUILDERS = {
    "LegoSDNRuntime": {STACK, REPLICATION / "promotion.py"},
    "Network": {STACK},
    "ShardCoordinator": {STACK},
    "MonolithicRuntime": {STACK},
}


def _trees():
    for base in SCANNED:
        for path in sorted(base.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module.split(".")[0]


def _names_granularity(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "granularity"
               for n in ast.walk(node))


def test_one_ddmin_and_no_other_granularity_loop():
    homes = []
    strays = []
    for path, tree in _trees():
        for fn in _functions(tree):
            if fn.name == "ddmin":
                homes.append(path)
            elif _names_granularity(fn):
                strays.append(f"{path.relative_to(ROOT)}:{fn.name}")
    assert homes == [STS], homes
    assert not strays, f"a second ddmin-style loop: {strays}"


def test_percentile_rules_live_in_one_module_per_kind():
    strays = [
        f"{path.relative_to(ROOT)}:{fn.name}"
        for path, tree in _trees() if path != COLLECTOR
        for fn in _functions(tree)
        if fn.name.endswith(("percentile", "quantile"))]
    assert not strays, strays
    exact = [node.name for node in ast.parse(COLLECTOR.read_text()).body
             if isinstance(node, ast.FunctionDef)
             and node.name.endswith(("percentile", "quantile"))]
    assert exact == ["percentile"], exact


def test_pickle_is_imported_nowhere():
    importers = [path for path, tree in _trees() if path.is_relative_to(SRC)
                 and {"pickle", "cPickle", "_pickle"} & set(
                     _imported_modules(tree))]
    assert not importers, importers


def test_checkpoint_store_does_not_hash():
    tree = ast.parse(CHECKPOINT.read_text())
    assert "hashlib" not in set(_imported_modules(tree))
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree)
             if isinstance(node, (ast.Attribute, ast.Name))}
    assert not names & {"blake2b", "state_hash", "_prev_hash", "_hash_of"}


OPENSSL_HASHING = {"hashlib", "hmac", "_hashlib"}
DIGESTS = REPLICATION / "byzantine.py"


def _fallback_imports(tree):
    """Import nodes inside an ``except ImportError`` handler."""
    return {id(inner) for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler)
            and isinstance(node.type, ast.Name)
            and node.type.id == "ImportError"
            for inner in ast.walk(node)}


def _hashing_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in OPENSSL_HASHING for name in names):
            yield node


def test_nothing_imports_openssl_hashing():
    offenders, fallbacks = [], []
    for path, tree in _trees():
        if not path.is_relative_to(SRC):
            continue
        allowed = _fallback_imports(tree) if path == DIGESTS else set()
        for node in _hashing_imports(tree):
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            if (id(node) in allowed and isinstance(node, ast.ImportFrom)
                    and [a.name for a in node.names] == ["sha256"]):
                fallbacks.append(where)
            else:
                offenders.append(where)
    assert not offenders, offenders
    assert len(fallbacks) == 1, fallbacks


def _imports_root(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == ROOT_MODULE for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == ROOT_MODULE or (
                    node.module == "repro.replication"
                    and any(a.name == "replicaset" for a in node.names)):
                return True
    return False


def test_replication_stays_cut():
    modules = sorted(REPLICATION.glob("*.py"))
    sizes = {path.name: len(path.read_text().splitlines())
             for path in modules}
    assert {"shipping.py", "voting.py", "membership.py",
            "promotion.py", "replicaset.py"} <= set(sizes)
    assert max(sizes.values()) <= 600, sizes
    parts = [path for path in modules
             if path.name not in ("replicaset.py", "__init__.py")]
    importers = [path.name for path in parts
                 if _imports_root(ast.parse(path.read_text()))]
    assert not importers, importers


def _called_name(node) -> str:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) \
        else getattr(func, "id", "")


def _frozen_dataclass(decorator) -> bool:
    return (isinstance(decorator, ast.Call)
            and _called_name(decorator) == "dataclass"
            and any(k.arg == "frozen" and not (
                isinstance(k.value, ast.Constant) and not k.value.value)
                for k in decorator.keywords))


def test_one_way_to_build_a_frozen_record():
    strays = [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
              for path in sorted(SRC.rglob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ClassDef)
              and any(map(_frozen_dataclass, node.decorator_list))]
    assert not strays, f"a frozen value type is a @record: {strays}"


def test_one_stack_builder():
    strays = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name in BUILDERS and path not in BUILDERS[name]:
                strays.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                              f"{name}(...)")
    assert not strays, f"build stacks through repro.stack: {strays}"


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield node.name


def _banned_calls(path):
    banned = set()
    if path != SCENARIO and not path.is_relative_to(SRC / "network"):
        banned |= CLOCK_CALLS
    if path == CLI:
        banned |= TIMELINE_CALLS
    if path.is_relative_to(DEBUG):
        banned |= TIMELINE_CALLS | HEAP_CALLS
    if path == HARNESS:
        banned |= HEAP_CALLS
    return banned


def test_one_timeline_driver():
    strays = [f"{path.relative_to(SRC)}:{node.lineno} "
              f"{_called_name(node)}(...)"
              for path in sorted(SRC.rglob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call)
              and _called_name(node) in _banned_calls(path)]
    assert not strays, f"describe the run as repro.scenario steps: {strays}"
    assert not (SRC / "workloads" / "failure.py").exists()
    assert not (SRC / "core" / "upgrade.py").exists()
    namers = [str(path.relative_to(ROOT))
              for base in ("src", "benchmarks", "examples", "tests")
              for path in sorted((ROOT / base).rglob("*.py"))
              if RETIRED_DRIVER & set(_names(ast.parse(path.read_text())))]
    assert not namers, namers


def _is_entries(node) -> bool:
    """``x.entries`` or ``x.entries[...]``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "entries"


def _entries_writes(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in LIST_MUTATORS):
            targets = [node.func.value]
        else:
            continue
        for target in targets:
            unpacked = target.elts if isinstance(
                target, (ast.Tuple, ast.List)) else [target]
            if any(_is_entries(t) for t in unpacked):
                yield node.lineno


def test_only_the_flow_table_writes_its_entries():
    strays = [f"{path.relative_to(ROOT)}:{line}"
              for base in ("src", "benchmarks", "examples", "tests")
              for path in sorted((ROOT / base).rglob("*.py"))
              if path not in ENTRIES_OWNERS
              for line in _entries_writes(ast.parse(path.read_text()))]
    assert not strays, f"go through FlowTable's methods: {strays}"
