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

``repro serve`` runs with ``--port 0 --linger 2`` while this script
GETs each of its endpoints, each expecting 200.

Tier-1 (``pytest tests``) runs under its own tag, so the report has
two lists: functions only tier-1 reaches, and functions nothing
reaches, tier-1 included.  The gate fails on a function of the second
list that ``benchmarks/reach_allow.txt`` does not cover, and on one of
the first list that neither it nor ``benchmarks/reach_owed.txt``
covers.  Each allowlist line is ``pattern  # reason``; the pattern is
a qualified name (``repro.pkg.mod.Class.method``) or an
:func:`fnmatch.fnmatchcase` glob, and also covers what is nested in
what it names.  A line without a reason is an error.  An owed line is
``pattern  # item N: reason``, code an open ROADMAP item owns; one
without ``item N:`` is an error, and so is one that covers no function
only tier-1 reaches (its item has landed, or its code is gone).

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
import urllib.request
from typing import Dict, Iterable, List, NamedTuple, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = ROOT / "benchmarks" / "reach_allow.txt"
OWED = ROOT / "benchmarks" / "reach_owed.txt"
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
                   "flowtable_cost", "checkpoint_cost", "codec_cost")),
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
    # Product surface neither CI nor README runs: a mesh drill, a
    # channel blackout longer than the retry budget, and a load report
    # written to disk.
    *((f"repro {cmd}", ["py", "-m", "repro", *cmd.split()]) for cmd in (
        "drill --topology mesh --size 3 --duration 1",
        "chaos --seed 0 --partition 1.0:0.8 --duration 4 --slo 0",
        f"bench --preset smoke --out {os.devnull}",
    )),
)

#: ``repro serve`` on an ephemeral port, and the paths GET while it
#: lingers.  ``-u``: the served URL is read from its first line.
SERVE = ("repro serve --port 0 --linger 2",
         ["py", "-u", "-m", "repro", "serve", "--port", "0",
          "--linger", "2"])
SERVE_PATHS = ("/metrics", "/healthz", "/trace.json", "/tickets.json")
SERVING = "serving telemetry on "

#: README commands not executed, each with its reason.
README_SKIPS = (
    ("serve", "serves until interrupted; SERVE drives it on port 0"),
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


# --- allowlist, owed list and gate -----------------------------------

def _read_entries(lines: Iterable[str], kind: str, form: str,
                  reason_re: str) -> List[Tuple[str, str]]:
    entries = []
    for number, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        pattern, _, reason = text.partition("#")
        reason = reason.strip()
        if not re.match(reason_re, reason):
            raise ValueError(f"{kind} line {number} has no "
                             f"'# {form}': {text}")
        entries.append((pattern.strip(), reason))
    return entries


def read_allowlist(lines: Iterable[str]) -> List[Tuple[str, str]]:
    """``(pattern, reason)`` per entry; blank lines and whole-line
    comments are skipped.  Raises ``ValueError`` on an entry with no
    reason."""
    return _read_entries(lines, "allowlist", "reason", r"\S")


def read_owed(lines: Iterable[str]) -> List[Tuple[str, str]]:
    """As :func:`read_allowlist`, but each reason must start ``item
    N:`` (the open ROADMAP item that owns the code)."""
    return _read_entries(lines, "owed", "item N: reason",
                         r"item \d+:\s*\S")


def covers(pattern: str, name: str) -> bool:
    """Whether ``pattern`` matches ``name`` or a dotted prefix of it."""
    return (fnmatch.fnmatchcase(name, pattern)
            or any(fnmatch.fnmatchcase(name[:i], pattern)
                   for i, ch in enumerate(name) if ch == "."))


def gate(funcs: Dict[Tuple[str, int], Function],
         entry_hits: Set[Tuple[str, int]],
         all_hits: Set[Tuple[str, int]],
         allow: Sequence[Tuple[str, str]],
         owed: Sequence[Tuple[str, str]] = (), out=None) -> int:
    """Print both lists; return 1 if a function nothing reaches is not
    covered by ``allow``, one only tier-1 reaches by neither ``allow``
    nor ``owed``, or an ``owed`` entry covers no function only tier-1
    reaches; else 0."""
    def total(fs):
        return sum(f.lines for f in fs)

    def first(entries, f):
        return next((p for p, _ in entries if covers(p, f.name)), None)

    def show(f, tag, pattern):
        print(f"  {f.path}:{f.line}  {f.name}  ({f.lines} lines)"
              f"{'' if pattern is None else f'  [{tag}: {pattern}]'}",
              file=out)

    dead = unreached(funcs, all_hits)
    dead_set = set(dead)
    tier1_only = [f for f in unreached(funcs, entry_hits)
                  if f not in dead_set]
    print(f"{len(funcs)} functions under src/repro "
          f"({total(funcs.values())} lines)", file=out)
    print(f"reached only by tier-1: {len(tier1_only)} functions, "
          f"{total(tier1_only)} lines", file=out)
    print(f"reached by nothing (tier-1 included): {len(dead)} functions, "
          f"{total(dead)} lines", file=out)

    used = set()
    print("\n-- reached only by tier-1 --", file=out)
    uncovered = []
    for f in tier1_only:
        tag, pattern = "allowed", first(allow, f)
        if pattern is None:
            tag, pattern = "owed", first(owed, f)
        if pattern is None:
            uncovered.append(f)
        used.add(pattern)
        show(f, tag, pattern)
    print("\n-- reached by nothing --", file=out)
    unallowed = []
    for f in dead:
        pattern = first(allow, f)
        if pattern is None:
            unallowed.append(f)
        used.add(pattern)
        show(f, "allowed", pattern)
    for pattern, _ in allow:
        if pattern not in used:
            print(f"note: allowlist entry covers nothing: {pattern}",
                  file=out)
    stale = [(p, why) for p, why in owed
             if not any(covers(p, f.name) for f in tier1_only)]

    if unallowed:
        print(f"\nFAIL: {len(unallowed)} function(s) nothing runs, not in "
              f"{ALLOWLIST.relative_to(ROOT)}:", file=out)
        for f in unallowed:
            print(f"  {f.name}  ({f.path}:{f.line})", file=out)
        print("delete each, or allow it with a one-line reason", file=out)
    if uncovered:
        print(f"\nFAIL: {len(uncovered)} function(s) only tier-1 runs, in "
              f"neither {ALLOWLIST.relative_to(ROOT)} nor "
              f"{OWED.relative_to(ROOT)}:", file=out)
        for f in uncovered:
            print(f"  {f.name}  ({f.path}:{f.line})", file=out)
        print("give each a run, delete it, or allow or owe it with a "
              "one-line reason", file=out)
    if stale:
        print(f"\nFAIL: {len(stale)} owed entry(ies) cover no function "
              f"only tier-1 runs:", file=out)
        for pattern, why in stale:
            print(f"  {pattern}  # {why}", file=out)
        print("drop each: its item has landed or its code is gone",
              file=out)
    if unallowed or uncovered or stale:
        return 1
    print(f"\nOK: every function only tier-1 runs is allowed or owed, and "
          f"every function nothing runs is allowed ({len(allow)} allowlist, "
          f"{len(owed)} owed entries)", file=out)
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


def get_endpoints(stdout: Iterable[str]) -> str:
    """Read the URL from ``repro serve``'s ``serving telemetry on``
    line, then GET each of :data:`SERVE_PATHS`; return what failed
    ('' if every one answered 200)."""
    url = next((line[len(SERVING):].strip() for line in stdout
                if line.startswith(SERVING)), None)
    if url is None:
        return f"no '{SERVING.strip()}' line"
    failed = []
    for path in SERVE_PATHS:
        try:
            with urllib.request.urlopen(url + path, timeout=30) as resp:
                status = resp.status
        except OSError as exc:          # HTTPError and URLError too
            status = getattr(exc, "code", exc)
        if status != 200:
            failed.append(f"GET {path}: {status}")
    return "; ".join(failed)


def run(label: str, argv: List[str], out_dir: pathlib.Path, env: dict,
        cwd: pathlib.Path, drive=None) -> bool:
    """Run ``argv`` to completion; with ``drive``, hand it the child's
    stdout while it runs (a non-empty answer fails the run)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable if a == "py" else a for a in argv]
    started = time.monotonic()
    with subprocess.Popen(
            argv, cwd=cwd, env=dict(env, REACH_OUT=str(out_dir)),
            stdout=subprocess.DEVNULL if drive is None else subprocess.PIPE,
            stderr=subprocess.PIPE, text=True) as child:
        problem = drive(child.stdout) if drive is not None else ""
        _, stderr = child.communicate()
    ok = child.returncode == 0 and not problem
    print(f"  {time.monotonic() - started:6.1f}s  {label}"
          f"{'' if child.returncode == 0 else f'  EXIT {child.returncode}'}"
          f"{'  ' + problem if problem else ''}", flush=True)
    if not ok:
        print(stderr[-2000:], file=sys.stderr)
    return ok


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
    if not run(*SERVE, scratch / "entry", env, readme_cwd,
               drive=get_endpoints):
        failed.append(SERVE[0])
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
        owed = read_owed(OWED.read_text().splitlines())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        entry, everything, failed = census(pathlib.Path(tmp))
    if failed:
        print(f"error: {len(failed)} run(s) failed, census incomplete: "
              f"{failed}", file=sys.stderr)
        return 1
    return gate(functions(PACKAGE), entry, everything, allow, owed)


if __name__ == "__main__":
    sys.exit(main())
