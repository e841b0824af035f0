"""The runtime needs nothing beyond the standard library.

``TopoView`` finds shortest paths and spanning forests itself; networkx
(kept as a test dependency) is the reference it is held to:

- the same path list as ``networkx.shortest_path`` and the same
  spanning links as ``networkx.minimum_spanning_edges`` on thousands of
  seeded random topologies, duplicate links, self-loops, links naming
  unknown dpids, unreachable pairs and ``src == dst`` among them;
- the routing and switching apps play a scenario to the end in an
  interpreter where ``import networkx`` fails;
- no module under ``src/repro`` imports networkx, and no function
  under ``src/repro/apps/`` imports in its body (an import statement
  in a hook runs on every event).
"""

import ast
import json
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.controller.api import TopoView, _spanning_links

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
TOPOLOGIES = 2400


def _random_view(rng):
    switches = [rng.randint(1, 9) for _ in range(rng.randint(0, 8))]
    links = []
    for _ in range(rng.randint(0, 14)):
        # dpids up to 12: some links name a switch the view does not list
        a, b = rng.randint(1, 12), rng.randint(1, 12)
        if rng.random() < 0.1:
            b = a                                   # a self-loop
        links.append((a, rng.randint(1, 6), b, rng.randint(1, 6)))
        if links and rng.random() < 0.15:
            links.append(rng.choice(links))         # a duplicate link
    return TopoView(switches=tuple(switches), links=tuple(links))


def _networkx_graph(nx, view):
    g = nx.Graph()
    g.add_nodes_from(view.switches)
    for dpid_a, port_a, dpid_b, port_b in view.links:
        g.add_edge(dpid_a, dpid_b, port_a=port_a, port_b=port_b,
                   endpoints=(dpid_a, port_a, dpid_b, port_b))
    return g


def _networkx_path(nx, g, src, dst):
    if src not in g or dst not in g:
        return None
    try:
        return nx.shortest_path(g, src, dst)
    except nx.NetworkXNoPath:
        return None


def _networkx_tree_ports(nx, g):
    ports = {dpid: set() for dpid in g.nodes}
    for _, _, data in nx.minimum_spanning_edges(g, data=True):
        dpid_a, port_a, dpid_b, port_b = data["endpoints"]
        ports[dpid_a].add(port_a)
        ports[dpid_b].add(port_b)
    return {dpid: frozenset(p) for dpid, p in ports.items()}


def test_paths_and_spanning_forests_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(46)
    seen = {"no path": 0, "unknown": 0, "same": 0, "self-loop": 0,
            "duplicate": 0, "multi-hop": 0}
    for _ in range(TOPOLOGIES):
        view = _random_view(rng)
        g = _networkx_graph(nx, view)
        forest = nx.minimum_spanning_edges(g, data=True)
        assert {d["endpoints"] for _, _, d in forest} == \
            set(_spanning_links(view._adjacency()))
        tree_ports = view.tree_ports()
        expected = _networkx_tree_ports(nx, g)
        assert tree_ports == expected
        assert list(tree_ports) == list(expected)
        seen["self-loop"] += any(a == b for a, _, b, _ in view.links)
        seen["duplicate"] += len(set(view.links)) < len(view.links)
        for _ in range(6):
            src, dst = rng.randint(0, 13), rng.randint(0, 13)
            if rng.random() < 0.1:
                dst = src
            path = view.shortest_path(src, dst)
            assert path == _networkx_path(nx, g, src, dst), (view, src, dst)
            seen["unknown"] += src not in g or dst not in g
            seen["same"] += path == [src]
            seen["no path"] += path is None and src in g and dst in g
            seen["multi-hop"] += path is not None and len(path) > 2
    assert all(count > 50 for count in seen.values()), seen


SCENARIO = textwrap.dedent("""
    import json
    import sys
    sys.modules["networkx"] = None     # any `import networkx` now fails

    from repro.apps import (LearningSwitch, ShortestPathRouting,
                            SpanningTreeSwitch)
    from repro.network.topology import ring_topology
    from repro.scenario import Scenario, Step, run
    from repro.stack import StackSpec

    LINK = {"dpid_a": 1, "dpid_b": 2}
    for app in (LearningSwitch(), ShortestPathRouting(),
                SpanningTreeSwitch()):
        stack, seen = run(Scenario(
            spec=StackSpec(topology=ring_topology(4, 1), apps=(app,)),
            steps=(Step(1.5, "reachability"), Step(3.0, "link_down", LINK),
                   Step(4.5, "reachability"), Step(5.0, "link_up", LINK),
                   Step(6.5, "reachability")),
            until=7.0))
        print(json.dumps([type(app).__name__, seen["reachability"],
                          getattr(app, "paths_installed", None),
                          getattr(app, "tree_recomputations", None)]))
""")


def test_apps_run_without_networkx():
    done = subprocess.run(
        [sys.executable, "-c", SCENARIO], capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, cwd=ROOT)
    assert done.returncode == 0, done.stderr[-2000:]
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert rows[0][0] == "LearningSwitch"
    # A plain learning switch is not loop-safe on a ring once a link
    # flaps; the two apps that used networkx must reach every host.
    assert rows[1:] == [
        ["ShortestPathRouting", [1.0, 1.0, 1.0], rows[1][2], None],
        ["SpanningTreeSwitch", [1.0, 1.0, 1.0], None, rows[2][3]]]
    # Each reached the code that used to call networkx.
    assert rows[1][2] > 0 and rows[2][3] > 0


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def test_nothing_under_src_imports_networkx():
    offenders = [
        str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
        if any(name.split(".")[0] == "networkx"
               for name in _imports(ast.parse(path.read_text())))]
    assert offenders == []


def test_no_app_function_imports_in_its_body():
    offenders = []
    for path in sorted((SRC / "apps").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    offenders.append(
                        f"{path.relative_to(SRC)}:{inner.lineno} "
                        f"in {node.name}")
    assert offenders == []
