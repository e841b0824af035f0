"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.network.topology import TOPOLOGIES, build_topology


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.topology == "linear"
        assert args.size == 3

    def test_replicate_defaults(self):
        args = build_parser().parse_args(["replicate"])
        assert args.backups == 1
        assert args.lease == 0.2
        assert args.flight_capacity == 128

    def test_shard_defaults(self):
        args = build_parser().parse_args(["shard"])
        assert args.shards == 3
        assert args.backups == 1
        assert args.kill_shard is None
        assert args.freshness == 0.5

    def test_flight_records_flag_and_alias(self):
        args = build_parser().parse_args(["trace", "--flight-records", "16"])
        assert args.flight_capacity == 16
        args = build_parser().parse_args(["serve", "--flight-capacity", "32"])
        assert args.flight_capacity == 32

    def test_flight_records_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--flight-records", "0"])


class TestTopologyBuilder:
    def test_all_names_build(self):
        assert len(TOPOLOGIES) == 5
        for name in TOPOLOGIES:
            topo = build_topology(name, 4)
            topo.validate()

    def test_ring_minimum_enforced(self):
        assert len(build_topology("ring", 1).switches) == 3

    def test_fattree_evens_odd_k(self):
        topo = build_topology("fattree", 3)
        topo.validate()  # k was bumped to 4

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            build_topology("torus", 4)


class TestCommands:
    def test_demo_runs_to_recovery(self, capsys):
        assert main(["demo", "--size", "2"]) == 0
        out = capsys.readouterr().out
        assert "app crashes: 1, recoveries: 1, controller up: True" in out
        assert "Problem Ticket" in out

    def test_check_policy_valid(self, tmp_path, capsys):
        policy = tmp_path / "policy.txt"
        policy.write_text("app=* event=* policy=equivalence\n")
        assert main(["check-policy", str(policy)]) == 0
        assert "ok: 1 rule(s)" in capsys.readouterr().out

    def test_check_policy_invalid(self, tmp_path, capsys):
        policy = tmp_path / "policy.txt"
        policy.write_text("app=* event=* policy=yolo\n")
        assert main(["check-policy", str(policy)]) == 1
        assert "error" in capsys.readouterr().err

    def test_check_policy_missing_file(self, capsys):
        assert main(["check-policy", "/nonexistent/policy"]) == 1

    def test_drill_legosdn(self, capsys):
        assert main(["drill", "--size", "2", "--duration", "3",
                     "--rate", "20"]) == 0
        out = capsys.readouterr().out
        assert "controller up:  True" in out

    def test_drill_monolithic(self, capsys):
        assert main(["drill", "--size", "2", "--duration", "3",
                     "--rate", "20", "--runtime", "monolithic"]) == 0
        out = capsys.readouterr().out
        assert "controller crashes: 0" in out

    def test_replicate_fails_over_cleanly(self, capsys):
        assert main(["replicate", "--size", "2", "--duration", "4",
                     "--rate", "30"]) == 0
        out = capsys.readouterr().out
        assert "killing primary r0" in out
        assert "failover -> epoch 1: r0 -> r1" in out
        assert "divergence:     0 rule(s)" in out
        assert "apps alive:     learning_switch" in out

    def test_shard_contains_a_primary_kill(self, capsys):
        assert main(["shard", "--size", "4", "--shards", "2",
                     "--duration", "4", "--rate", "30",
                     "--kill-shard", "1"]) == 0
        out = capsys.readouterr().out
        assert "sharded plane up: 2 shards over 4 switches" in out
        assert "killing shard 1's primary r0" in out
        assert "(failed over)" in out
        assert "reachability: 100%" in out

    def test_serve_exposes_metrics(self, capsys, monkeypatch):
        """`repro serve` binds the HTTP endpoint and serves live metrics.

        The probe rides on MetricsServer.start so it runs while the
        server is up, without threads or sleeps in the test itself."""
        import urllib.request

        from repro.telemetry.serve import MetricsServer

        captured = {}
        real_start = MetricsServer.start

        def probing_start(self):
            real_start(self)
            with urllib.request.urlopen(self.url + "/metrics",
                                        timeout=5) as resp:
                captured["metrics"] = resp.read().decode()
            with urllib.request.urlopen(self.url + "/healthz",
                                        timeout=5) as resp:
                captured["health"] = resp.read().decode()
            return self

        monkeypatch.setattr(MetricsServer, "start", probing_start)
        assert main(["serve", "--size", "2", "--port", "0",
                     "--linger", "0"]) == 0
        out = capsys.readouterr().out
        assert "serving telemetry on http://127.0.0.1:" in out
        assert "repro_" in captured["metrics"]
        assert "controller=up" in captured["health"]


class TestChaosCommand:
    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.loss == 0.2
        assert args.retry_budget == 8
        assert args.slo == 0.99
        assert args.sweep is None

    def test_partition_spec_parses(self):
        args = build_parser().parse_args(["chaos", "--partition", "1.0:0.5"])
        assert args.partition == (1.0, 0.5)

    def test_partition_spec_rejects_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--partition", "soon"])

    def test_chaos_meets_slo_under_loss(self, capsys):
        code = main(["chaos", "--loss", "0.2", "--dup", "0.05",
                     "--reorder", "0.05", "--duration", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SLO met" in out
        assert "retransmits=" in out

    def test_chaos_sweep_and_slo_miss(self, capsys):
        # retry budget 0 under heavy loss: the channel abandons and
        # reachability drops below any sane floor -> exit 1.
        code = main(["chaos", "--sweep", "0.6", "--retry-budget", "1",
                     "--duration", "3", "--slo", "0.99"])
        out = capsys.readouterr().out
        assert code == 1
        assert "SLO MISS" in out


class TestDebugCommands:
    def test_minimize_defaults(self):
        args = build_parser().parse_args(["minimize"])
        assert args.seed == 0
        assert args.loss == 0.2
        assert args.noise == 4
        assert args.expect_length is None

    def test_corpus_defaults(self):
        args = build_parser().parse_args(["corpus"])
        assert args.preset == "smoke"
        assert args.seed == 0
        assert args.out is None
        assert args.check is None

    def test_corpus_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["corpus", "--preset", "nope"])

    def test_minimize_finds_the_planted_three(self, capsys):
        code = main(["minimize", "--seed", "0", "--loss", "0.2",
                     "--expect-length", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "minimized repro: 3 of" in out
        assert "TRIGGER-C" in out
        assert "standalone replay: reproduces the signature" in out
        assert "attached to problem ticket" in out

    def test_minimize_expect_length_gate_fails_loud(self, capsys):
        code = main(["minimize", "--seed", "0", "--loss", "0",
                     "--noise", "2", "--expect-length", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "expected 1" in err

    def test_corpus_check_roundtrip(self, tmp_path, capsys):
        out_path = str(tmp_path / "corpus.json")
        assert main(["corpus", "--preset", "smoke",
                     "--out", out_path]) == 0
        assert main(["corpus", "--preset", "smoke",
                     "--check", out_path]) == 0
        out = capsys.readouterr().out
        assert "byte-for-byte" in out

    def test_serve_exposes_tickets_json(self, capsys, monkeypatch):
        import json as json_mod
        import urllib.request

        from repro.telemetry.serve import MetricsServer

        captured = {}
        real_start = MetricsServer.start

        def probing_start(self):
            real_start(self)
            with urllib.request.urlopen(self.url + "/tickets.json",
                                        timeout=5) as resp:
                captured["tickets"] = resp.read().decode()
            return self

        monkeypatch.setattr(MetricsServer, "start", probing_start)
        assert main(["serve", "--size", "2", "--port", "0",
                     "--linger", "0"]) == 0
        out = capsys.readouterr().out
        assert "/tickets.json" in out
        doc = json_mod.loads(captured["tickets"])
        assert len(doc["tickets"]) >= 1
        assert doc["tickets"][0]["failure_kind"]


# -- one seed: --seed drives the runtime's channels too ---------------

#: Every CLI driver that builds a stack, at ``--seed 3`` and short.
SEEDED_COMMANDS = (
    "demo --size 2",
    "trace --size 2",
    "drill --size 2 --duration 1",
    "replicate --size 2 --duration 1",
    "shard --size 4 --shards 2 --duration 1",
    "chaos --size 2 --duration 1 --sweep 0.2",
    "byzantine --size 2 --duration 1 --sweep 0 --modes crash",
    "trace critical-path --size 2 --duration 1 --loss 0.2",
)


@pytest.fixture
def runtime_seeds(monkeypatch):
    """The ``config.seed`` of every LegoSDNRuntime built while active."""
    from repro.core.runtime import LegoSDNRuntime

    seeds = []
    init = LegoSDNRuntime.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seeds.append(self.config.seed)

    monkeypatch.setattr(LegoSDNRuntime, "__init__", recording_init)
    return seeds


@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_cli_seed_reaches_the_runtime(command, runtime_seeds, capsys):
    main(command.split() + ["--seed", "3"])
    capsys.readouterr()
    assert runtime_seeds and set(runtime_seeds) == {3}, runtime_seeds
