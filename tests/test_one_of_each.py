"""One of each: the mechanisms that exist once stay single.

An AST scan, names only, like the option census (a coarse net by
design).  Each check names a *second implementation* that existed
until PR 21 and the place the one survivor lives, so the next copy has
to arrive by editing this file:

- one delta-debugging minimiser (``ddmin`` in
  ``core/crashpad/sts.py``; ``repro.debug`` runs the same function);
- percentile/quantile rules defined in ``metrics/collector.py`` (exact
  samples) and ``bench/hist.py`` (streaming buckets), nowhere else;
- no ``pickle`` under ``src/repro`` at all (until PR 22 it framed
  ``checkpoint.py``'s ``{key: bytes}`` maps; an image is now its buffer
  map) -- app and service state have one encoding;
- no hashing in ``checkpoint.py``: dedup is the buffer diff the delta
  already computes;
- one ``ReplicaSet`` class split where its decisions live: no module
  under ``replication/`` passes 600 lines, and no part (shipping,
  voting, membership, promotion, ...) imports the composition root.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SCANNED = (SRC, ROOT / "benchmarks")

STS = SRC / "core" / "crashpad" / "sts.py"
CHECKPOINT = SRC / "core" / "crashpad" / "checkpoint.py"
PERCENTILE_HOMES = {SRC / "metrics" / "collector.py", SRC / "bench" / "hist.py"}
REPLICATION = SRC / "replication"
ROOT_MODULE = "repro.replication.replicaset"


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
        for path, tree in _trees() if path not in PERCENTILE_HOMES
        for fn in _functions(tree)
        if fn.name.endswith(("percentile", "quantile"))]
    assert not strays, strays


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
