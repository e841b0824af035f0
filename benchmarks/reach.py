#!/usr/bin/env python3
"""Which functions under ``src/repro`` does any run reach?

Every entry point below runs as a subprocess with a throwaway
``sitecustomize.py`` first on ``PYTHONPATH``.  It loads this file and
installs :class:`Recorder` (``sys.setprofile`` and
``threading.setprofile``), which notes each code object called and, at
exit, dumps the ``(file, co_firstlineno)`` of those under
``src/repro``.  Children an entry point spawns (``wallbench --trace
1``'s passes, the examples tier-1 runs) inherit the environment and
are recorded too.

The functions are enumerated with :mod:`ast`.  A function's first
line is its *first decorator's*: that is what ``co_firstlineno``
reports (3.8+), so keying on the ``def`` line would make every
property and decorated function look unreached.

Tier-1 (``pytest tests``) runs under its own tag, so the report has
two lists: functions no entry point reaches (most are test-only), and
functions nothing reaches, tier-1 included.  The gate fails on any
function of the second list that ``benchmarks/reach_allow.txt`` does
not cover.  Each allowlist line is ``pattern  # reason``; the pattern
is a qualified name (``repro.pkg.mod.Class.method``) or an
:func:`fnmatch.fnmatchcase` glob, and also covers what is nested in
what it names.  A line without a reason is an error.

Stdlib only; about eleven minutes on two cores::

    python3 benchmarks/reach.py
"""

from __future__ import annotations

import ast
import atexit
import fnmatch
import json
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, Iterable, List, NamedTuple, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = ROOT / "benchmarks" / "reach_allow.txt"
README = ROOT / "README.md"
README_PREFIX = "python -m repro"

#: Written to a temporary directory put first on ``PYTHONPATH``.
SITECUSTOMIZE = """\
import importlib.util, os
_spec = importlib.util.spec_from_file_location(
    "_reach", os.environ["REACH_SCRIPT"])
_reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_reach)
_reach.record_to(os.environ["REACH_OUT"], os.environ["REACH_PACKAGE"])
"""

#: A compromise policy for README's ``check-policy my-policy.txt``.
POLICY = ("app=firewall event=* policy=no-compromise\n"
          "app=* event=* policy=absolute\n")

#: Entry points other than README's commands: ``(label, argv)``, run
#: from the repo root.  ``py`` is this interpreter.
ENTRY_POINTS = (
    ("pytest benchmarks",
     ["py", "-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
      "-p", "no:cacheprovider"]),
    ("sim_digest check", ["py", "benchmarks/sim_digest.py", "check"]),
    *((f"wallbench {w} --trace 1",
       ["py", "wallbench/run.py", "--workload", w, "--seed", "0",
        "--seconds", "3", "--trace", "1"])
      for w in ("steady", "monolithic", "crash-recover",
                "sharded-failover")),
    *((f"probe {name}", ["py", f"benchmarks/{name}.py"])
      for name in ("transport_cost", "replication_cost", "recovery_cost",
                   "flowtable_cost", "checkpoint_cost")),
    *((f"example {name}", ["py", f"examples/{name}.py"])
      for name in ("quickstart", "datacenter_fault_drill",
                   "runtime_comparison", "nversion_voting",
                   "virtual_ip_service")),
    # CI's CLI smokes.
    *((f"repro {cmd}", ["py", "-m", "repro", *cmd.split()]) for cmd in (
        "shard --seed 0 --size 6 --shards 3 --duration 5 --kill-shard 1",
        "bench --preset smoke-crash --check BENCH_PR8_LOAD.json",
        "bench --preset e19-100k-k4 --check BENCH_PR8_LOAD.json",
        "chaos --seed 0 --sweep 0,0.2 --dup 0.1 --reorder 0.1 "
        "--duration 4 --slo 0.99",
        "trace critical-path --seed 0 --loss 0.3 --duration 4 --size 4",
        "minimize --seed 0 --loss 0.2 --expect-length 3",
        "corpus --preset full --seed 1",
        "byzantine --seed 0 --size 4 --sweep 0,0.3 --duration 4",
        "replicate --backups 2 --size 4 --duration 6",
    )),
)

#: README commands not executed, each with its reason.
README_SKIPS = (
    ("serve", "serves /metrics until interrupted"),
    ("bench --preset e19-", "a full E19 load run: 30-50 s plain, "
                            "minutes under the profiler"),
)

TIER1 = ("tier-1", ["py", "-m", "pytest", "-q", "-x",
                    "-p", "no:cacheprovider"])


# --- recording ---------------------------------------------------------

class Recorder:
    """Notes every Python code object called while installed.

    ``with Recorder() as rec:`` profiles this thread (chaining to a
    profiler already installed, so a census of the test that uses it
    still sees everything); :meth:`install` also profiles threads
    started later.  :meth:`hits` reads the record back.
    """

    def __init__(self):
        codes: Dict[int, object] = {}
        self.codes = codes
        self._previous = None

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                if id(code) not in codes:
                    codes[id(code)] = code      # kept: ids stay unique

        self._hook = hook

    def install(self) -> None:
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def __enter__(self) -> "Recorder":
        self._previous = previous = sys.getprofile()
        hook = self._hook
        if previous is None:
            sys.setprofile(hook)
        else:
            def chained(frame, event, arg):
                hook(frame, event, arg)
                previous(frame, event, arg)
            sys.setprofile(chained)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(self._previous)

    def hits(self, package: pathlib.Path) -> Set[Tuple[str, int]]:
        """``(path relative to package's parent, first line)`` of each
        recorded code object defined under ``package``."""
        base = str(package.resolve().parent) + os.sep
        prefix = str(package.resolve()) + os.sep
        seen = set()
        for code in list(self.codes.values()):
            path = os.path.realpath(code.co_filename)
            if path.startswith(prefix):
                seen.add((path[len(base):], code.co_firstlineno))
        return seen


def record_to(out_dir: str, package: str) -> None:
    """Profile this process; at exit write what it reached under
    ``package`` to a fresh file in ``out_dir`` (the sitecustomize
    hook)."""
    recorder = Recorder()
    recorder.install()

    def dump():
        sys.setprofile(None)
        threading.setprofile(None)
        hits = sorted(recorder.hits(pathlib.Path(package)))
        fd, _ = tempfile.mkstemp(suffix=".json", dir=out_dir)
        with os.fdopen(fd, "w") as fh:
            json.dump(hits, fh)

    atexit.register(dump)


# --- enumeration -------------------------------------------------------

class Function(NamedTuple):
    name: str           # repro.pkg.mod.Class.method
    path: str           # relative to the package's parent: repro/x.py
    line: int           # first decorator's line, else the def's
    lines: int          # decorators included


def functions(package: pathlib.Path) -> Dict[Tuple[str, int], Function]:
    """Every ``def`` under ``package``, keyed like :meth:`Recorder.hits`."""
    package = package.resolve()
    found: Dict[Tuple[str, int], Function] = {}

    def walk(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = f"{scope}.{child.name}"
                found[(path, first)] = Function(
                    name, path, first, child.end_lineno - first + 1)
                walk(child, name, path)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{scope}.{child.name}", path)
            else:
                walk(child, scope, path)

    for file in sorted(package.rglob("*.py")):
        rel = file.relative_to(package.parent)
        module = ".".join(rel.with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[:-len(".__init__")]
        walk(ast.parse(file.read_text(), str(file)), module, str(rel))
    return found


def unreached(funcs: Dict[Tuple[str, int], Function],
              hits: Set[Tuple[str, int]]) -> List[Function]:
    return sorted((f for key, f in funcs.items() if key not in hits),
                  key=lambda f: (f.path, f.line))


# --- allowlist and gate ------------------------------------------------

def read_allowlist(lines: Iterable[str]) -> List[Tuple[str, str]]:
    """``(pattern, reason)`` per entry; blank lines and whole-line
    comments are skipped.  Raises ``ValueError`` on an entry with no
    reason."""
    entries = []
    for number, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        pattern, _, reason = text.partition("#")
        if not reason.strip():
            raise ValueError(f"allowlist line {number} has no "
                             f"'# reason': {text}")
        entries.append((pattern.strip(), reason.strip()))
    return entries


def covers(pattern: str, name: str) -> bool:
    """Whether ``pattern`` matches ``name`` or a dotted prefix of it."""
    return (fnmatch.fnmatchcase(name, pattern)
            or any(fnmatch.fnmatchcase(name[:i], pattern)
                   for i, ch in enumerate(name) if ch == "."))


def gate(funcs: Dict[Tuple[str, int], Function],
         entry_hits: Set[Tuple[str, int]],
         all_hits: Set[Tuple[str, int]],
         allow: Sequence[Tuple[str, str]], out=None) -> int:
    """Print both lists; return 1 if a function nothing reaches is not
    covered by ``allow``, else 0."""
    def total(fs):
        return sum(f.lines for f in fs)

    untested = unreached(funcs, entry_hits)
    dead = unreached(funcs, all_hits)
    print(f"{len(funcs)} functions under src/repro "
          f"({total(funcs.values())} lines)", file=out)
    print(f"reached by no entry point: {len(untested)} functions, "
          f"{total(untested)} lines", file=out)
    print(f"reached by nothing (tier-1 included): {len(dead)} functions, "
          f"{total(dead)} lines", file=out)
    print("\n-- reached only by tier-1 --", file=out)
    dead_set = set(dead)
    for f in untested:
        if f not in dead_set:
            print(f"  {f.path}:{f.line}  {f.name}  ({f.lines} lines)",
                  file=out)
    print("\n-- reached by nothing --", file=out)
    failing, used = [], set()
    for f in dead:
        pattern = next((p for p, _ in allow if covers(p, f.name)), None)
        if pattern is None:
            failing.append(f)
        else:
            used.add(pattern)
        print(f"  {f.path}:{f.line}  {f.name}  ({f.lines} lines)"
              f"{'' if pattern is None else '  [allowed: ' + pattern + ']'}",
              file=out)
    for pattern, _ in allow:
        if pattern not in used:
            print(f"note: allowlist entry covers nothing: {pattern}",
                  file=out)
    if failing:
        print(f"\nFAIL: {len(failing)} function(s) nothing runs, not in "
              f"{ALLOWLIST.relative_to(ROOT)}:", file=out)
        for f in failing:
            print(f"  {f.name}  ({f.path}:{f.line})", file=out)
        print("delete each, or allow it with a one-line reason", file=out)
        return 1
    print(f"\nOK: every function nothing runs is allowed "
          f"({len(allow)} allowlist entries)", file=out)
    return 0


# --- the census --------------------------------------------------------

def readme_commands() -> List[str]:
    """README's fenced ``python -m repro ...`` command lines:
    ``\\`` continuations joined, ``$ `` prompts and trailing ``# ...``
    comments stripped."""
    commands, fenced, pending = [], False, ""
    for raw in README.read_text().splitlines():
        if raw.lstrip().startswith("```"):
            fenced, pending = not fenced, ""
            continue
        if not fenced:
            continue
        line, pending = pending + raw.strip(), ""
        if line.endswith("\\"):
            pending = line[:-1].rstrip() + " "
            continue
        line = re.sub(r"\s+#.*$", "", re.sub(r"^\$\s+", "", line))
        if line.startswith(README_PREFIX):
            commands.append(line)
    return commands


def run(label: str, argv: List[str], out_dir: pathlib.Path, env: dict,
        cwd: pathlib.Path) -> bool:
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable if a == "py" else a for a in argv]
    started = time.monotonic()
    done = subprocess.run(
        argv, cwd=cwd, env=dict(env, REACH_OUT=str(out_dir)),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    print(f"  {time.monotonic() - started:6.1f}s  {label}"
          f"{'' if done.returncode == 0 else f'  EXIT {done.returncode}'}",
          flush=True)
    if done.returncode != 0:
        print(done.stderr[-2000:], file=sys.stderr)
    return done.returncode == 0


def collect(out_dir: pathlib.Path) -> Set[Tuple[str, int]]:
    hits = set()
    for file in out_dir.glob("*.json"):
        hits.update(map(tuple, json.loads(file.read_text())))
    return hits


def census(scratch: pathlib.Path) -> Tuple[Set, Set, List[str]]:
    """Run every entry point, then tier-1; return their hits and the
    labels of the runs that failed."""
    site = scratch / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
    readme_cwd = scratch / "readme"
    readme_cwd.mkdir()
    for name in ("BENCH_PR8_LOAD.json", "CORPUS_PR10.json"):
        shutil.copy(ROOT / name, readme_cwd / name)
    (readme_cwd / "my-policy.txt").write_text(POLICY)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(site), str(ROOT / "src")]), REACH_SCRIPT=str(
        pathlib.Path(__file__).resolve()), REACH_PACKAGE=str(PACKAGE))
    failed = []

    print("entry points:", flush=True)
    for label, argv in ENTRY_POINTS:
        if not run(label, argv, scratch / "entry", env, ROOT):
            failed.append(label)
    for line in readme_commands():
        args = line[len(README_PREFIX):].strip()
        label = "README: repro " + args
        skip = next((why for cmd, why in README_SKIPS
                     if args.startswith(cmd)), None)
        if skip:
            print(f"  skipped  {label}  ({skip})")
        elif not run(label, ["py", "-m", "repro", *shlex.split(args)],
                     scratch / "entry", env, readme_cwd):
            failed.append(label)
    print("tier-1:", flush=True)
    if not run(*TIER1, scratch / "tier1", env, ROOT):
        failed.append(TIER1[0])
    entry = collect(scratch / "entry")
    return entry, entry | collect(scratch / "tier1"), failed


def main() -> int:
    try:
        allow = read_allowlist(ALLOWLIST.read_text().splitlines())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        entry, everything, failed = census(pathlib.Path(tmp))
    if failed:
        print(f"error: {len(failed)} run(s) failed, census incomplete: "
              f"{failed}", file=sys.stderr)
        return 1
    return gate(functions(PACKAGE), entry, everything, allow)


if __name__ == "__main__":
    sys.exit(main())
