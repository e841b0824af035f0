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

The scan skips dataclasses, so the one dataclass that *is* a bag of
options, ``RuntimeConfig``, is held to the same rule by name: every
field is a keyword some caller passes (or is in ``ALLOWED``), and the
field count is capped so the next one has to arrive with its caller.
"""

import ast
import dataclasses
from pathlib import Path

from repro.core.runtime import RuntimeConfig

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
    ("ReplayHarness", "flight_capacity"):
        "written into config_dict() and so into CORPUS_PR10.json",
    ("ReplayHarness", "gap"): "in config_dict() / CORPUS_PR10.json",
    ("ReplayHarness", "learn_settle"): "in config_dict() / CORPUS_PR10.json",
    ("ReplayHarness", "settle"): "in config_dict() / CORPUS_PR10.json",
    ("ReplayHarness", "warmup"): "in config_dict() / CORPUS_PR10.json",
    ("MetricsServer", "host"): "a deployment setting (bind address)",
    ("TrafficWorkload", "kind"): "workload shape (ping vs udp)",
    ("TrafficWorkload", "packet_size"): "workload shape",
    # -- passed, but positionally or only with the default -----------------
    ("LoadBalancer", "uplinks"): "the app API: which ports are uplinks",
    ("ArmedCrashApp", "inner"): "passed positionally by arm_crash_on()",
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
    ("MetricsServer", "metrics_text"): "tests substitute the exposition",
    ("MetricsServer", "shard_health"): "tests substitute the health source",
    ("ChurnWorkload", "fresh_mac"): "tests pin the MAC generator",
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


def runtime_config_fields():
    return [("RuntimeConfig", field.name)
            for field in dataclasses.fields(RuntimeConfig)]


def test_allowed_table_names_only_parameters_that_exist():
    stale = (set(ALLOWED) - set(defaulted_init_parameters())
             - set(runtime_config_fields()))
    assert not stale, f"ALLOWED lists parameters that are gone: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_runtime_config_field_is_set_by_someone():
    passed = keyword_names_passed()
    unset = [name for cls, name in runtime_config_fields()
             if name not in passed and (cls, name) not in ALLOWED]
    assert not unset, (
        f"RuntimeConfig fields no caller outside tests/ ever sets: {unset}"
        " -- make each a named constant beside the code that reads it")


def test_runtime_config_stays_small():
    assert len(runtime_config_fields()) <= 11, (
        "a twelfth RuntimeConfig field needs a caller that sets it, and "
        "this bound raised in the same change")
