"""Option census: every constructor option is one somebody sets.

An AST scan, names only (a coarse net by design): for every
non-dataclass class under ``src/repro``, each defaulted ``__init__``
parameter name must occur as a keyword argument in at least one call
in ``src/``, ``benchmarks/``, ``examples/`` or ``wallbench/`` -- or be
listed in ``ALLOWED`` with the reason it is kept.  A parameter nobody
passes is a constant wearing a parameter's clothes: name it beside the
code that uses it and delete the branch that served it.

The finer instrument is a runtime probe (wrap ``builtins.
__build_class__``, record per ``(class, parameter)`` who passed it and
whether the value differed from the default, under the whole test
suite, ``benchmarks/``, ``examples/``, ``wallbench`` and the CLI); it
read 60 never-passed parameters of 246 before the 47 removals of PR 19
and 19 of 199 after -- exactly the first block of ``ALLOWED`` (the
other two of the 21 left out of scope, ``ByzantineProfile``'s
``equivocate`` and ``replay``, got their first tests in that PR).

The scan skips dataclasses, so the dataclasses that *are* bags of
options, ``RuntimeConfig``, ``StackSpec`` and the load harness's
``BenchScenario``, and the run described as data, ``Scenario`` and
its ``Step``, are held to the same rule by name: every field is a
keyword some caller passes (or is in ``ALLOWED``), and the field count
is capped so the next one has to arrive with its caller.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.bench import BenchScenario
from repro.core.runtime import RuntimeConfig
from repro.scenario import Scenario, Step
from repro.stack import StackSpec

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "examples", "wallbench")

#: (class, parameter) -> why it stays a parameter though no caller in
#: ``CALLER_DIRS`` names it.
ALLOWED = {
    # -- passed by no caller at all, tests included; out of scope ----------
    ("Firewall", "name"): "the app API: every SDNApp takes a name",
    ("Flooder", "name"): "the app API",
    ("VirtualIPGateway", "name"): "the app API",
    ("Hub", "name"): "the app API",
    ("LoadBalancer", "name"): "the app API",
    ("SpanningTreeSwitch", "name"): "the app API",
    ("PartialPolicyApp", "name"): "the app API",
    ("PartialPolicyApp", "priority"): "the app API: a rule priority",
    ("StreamingHistogram", "low"): "a data structure's geometry",
    ("StreamingHistogram", "high"): "a data structure's geometry",
    ("StreamingHistogram", "growth"): "a data structure's geometry",
    ("MetricsServer", "host"): "a deployment setting (bind address)",
    ("TrafficWorkload", "kind"): "workload shape (ping vs udp)",
    ("TrafficWorkload", "packet_size"): "workload shape",
    # -- passed, but positionally or only with the default -----------------
    ("LoadBalancer", "uplinks"): "the app API: which ports are uplinks",
    ("ArmedCrashApp", "inner"): "passed positionally by arm_crash_on()",
    ("Step", "args"): "passed positionally: Step(at, kind, args)",
    ("InvariantChecker", "critical_kinds"):
        "one test names its default; Crash-Pad and the watchdog take it",
    # -- set only by tests, to reach an edge the default never meets -------
    ("ByzantineProfile", "equivocate"):
        "an adversary only tests/test_byzantine.py switches on",
    ("ByzantineProfile", "replay"):
        "an adversary only tests/test_byzantine.py switches on",
    ("Controller", "dispatch_shards"): "tests vary the lane count",
    ("UdpChannel", "base_delay"): "tests zero it to time the payload alone",
    ("UdpChannel", "per_byte_delay"): "tests scale it to order deliveries",
    ("EventTransformer", "escalate_link_to_switch"):
        "tests switch on the escalating transformation",
    ("ChaosProfile", "burst_len"): "tests vary the burst length",
    ("ChaosProfile", "reorder_delay"): "tests vary the hold-back",
    ("CheckpointStore", "keep"): "tests shrink it to reach eviction",
    ("CheckpointStore", "full_every"): "tests vary delta-chain length",
    ("EventJournal", "max_entries"): "tests shrink it to reach truncation",
    ("FailureDetector", "channel_fault_window"):
        "tests shrink it to watch a channel-fault verdict expire",
    ("ReplicaSet", "byz_f"): "tests pin f to reach threshold edges",
    ("ReplicaSet", "vote_timeout"): "tests shorten it to reach a stall",
    ("ReplicaSet", "stats_interval"): "tests turn the stats poll off (0)",
    ("ReplicationModePolicy", "clean_window"):
        "tests shorten it to watch de-escalation",
    ("ShardCoordinator", "health_window"): "tests vary the fold window",
    ("HealthWatchdog", "min_samples"): "tests lower it to judge sooner",
    ("HealthWatchdog", "retransmit_rate_threshold"):
        "tests lower it to raise a storm",
    ("HealthWatchdog", "recovery_slo"): "tests lower it to burn the SLO",
    ("ChurnWorkload", "fresh_mac"): "tests pin the MAC generator",
    ("BenchScenario", "chunk_seconds"):
        "tests shorten it to probe the memory ceiling mid-run",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def defaulted_init_parameters():
    """``(class name, parameter name)`` for every defaulted ``__init__``
    parameter of a non-dataclass class under ``src/repro``."""
    found = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef) or _is_dataclass(node):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and item.name == "__init__":
                    args = item.args
                    positional = args.posonlyargs + args.args
                    found.extend(
                        (node.name, arg.arg)
                        for arg in positional[len(positional)
                                              - len(args.defaults):])
                    found.extend(
                        (node.name, arg.arg)
                        for arg, default in zip(args.kwonlyargs,
                                                args.kw_defaults)
                        if default is not None)
    return found


def keyword_names_passed():
    """Every name used as a keyword argument in any call under
    ``CALLER_DIRS``."""
    names = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    names.update(kw.arg for kw in node.keywords if kw.arg)
    return names


def test_every_option_is_passed_by_someone_or_allowed_with_a_reason():
    passed = keyword_names_passed()
    unset = [(cls, name) for cls, name in defaulted_init_parameters()
             if name not in passed and (cls, name) not in ALLOWED]
    assert not unset, (
        "constructor options no caller in src/, benchmarks/, examples/ "
        f"or wallbench/ ever names: {unset} -- make each a named "
        "constant, or list it in ALLOWED with the reason it stays")


def option_bag_fields(bag):
    return [(bag.__name__, field.name) for field in dataclasses.fields(bag)]


def unset_fields(bag):
    """``bag``'s fields no caller outside ``tests/`` names (nor ALLOWED)."""
    passed = keyword_names_passed()
    return [name for cls, name in option_bag_fields(bag)
            if name not in passed and (cls, name) not in ALLOWED]


def test_allowed_table_names_only_parameters_that_exist():
    stale = set(ALLOWED) - set(defaulted_init_parameters())
    for bag in (RuntimeConfig, StackSpec, Scenario, Step, BenchScenario):
        stale -= set(option_bag_fields(bag))
    assert not stale, f"ALLOWED lists parameters that are gone: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_runtime_config_field_is_set_by_someone():
    unset = unset_fields(RuntimeConfig)
    assert not unset, (
        f"RuntimeConfig fields no caller outside tests/ ever sets: {unset}"
        " -- make each a named constant beside the code that reads it")


def test_every_stack_spec_field_is_set_by_someone():
    unset = unset_fields(StackSpec)
    assert not unset, (
        f"StackSpec fields no caller outside tests/ ever sets: {unset}")


def test_runtime_config_stays_small():
    assert len(dataclasses.fields(RuntimeConfig)) <= 11, (
        "a twelfth RuntimeConfig field needs a caller that sets it, and "
        "this bound raised in the same change")


def test_every_bench_scenario_field_is_set_by_someone():
    unset = unset_fields(BenchScenario)
    assert not unset, (
        f"BenchScenario fields no preset or CLI flag sets: {unset} -- make "
        "each a constant of the harness or of the load step kind")


def test_bench_scenario_stays_small():
    assert len(dataclasses.fields(BenchScenario)) <= 13, (
        "a fourteenth BenchScenario field needs a preset or flag that "
        "sets it, and this bound raised in the same change")


@pytest.mark.parametrize("bag", (Scenario, Step), ids=lambda b: b.__name__)
def test_every_scenario_field_is_set_by_someone(bag):
    unset = unset_fields(bag)
    assert not unset, (
        f"{bag.__name__} fields no caller outside tests/ ever sets: {unset}")


def test_scenario_and_step_stay_small():
    # A scenario is a spec, its steps and its end; a step is an instant,
    # a kind and the kind's plain-value arguments.  Anything else a run
    # needs is a StackSpec field or a step kind.
    assert len(dataclasses.fields(Scenario)) <= 3
    assert len(dataclasses.fields(Step)) <= 3


def test_stack_spec_stays_small():
    assert len(dataclasses.fields(StackSpec)) <= 11, (
        "a twelfth StackSpec field needs a caller that sets it, and this "
        "bound raised in the same change")
