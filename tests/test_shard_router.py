"""Tests for the rendezvous-hash shard router: determinism and pins."""

import pytest

from repro.shard import ShardRouter


class TestPlacement:
    def test_deterministic_across_instances(self):
        a = ShardRouter(4, seed=7)
        b = ShardRouter(4, seed=7)
        for dpid in range(1, 200):
            assert a.shard_of(dpid) == b.shard_of(dpid)

    def test_seed_changes_placement(self):
        a = ShardRouter(4, seed=0)
        b = ShardRouter(4, seed=1)
        assert any(a.shard_of(d) != b.shard_of(d) for d in range(1, 200))

    def test_every_shard_gets_work(self):
        router = ShardRouter(4, seed=0)
        parts = router.partition(range(1, 101))
        assert sorted(parts) == [0, 1, 2, 3]
        assert all(parts[s] for s in parts), "a shard got nothing"
        assert sorted(d for ds in parts.values() for d in ds) == \
            list(range(1, 101))

    def test_single_shard_owns_everything(self):
        router = ShardRouter(1, seed=0)
        assert all(router.shard_of(d) == 0 for d in range(1, 50))

    def test_needs_a_shard(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestPins:
    def test_pin_overrides_hash(self):
        natural = ShardRouter(4, seed=0).shard_of(42)
        target = (natural + 1) % 4
        router = ShardRouter(4, seed=0, pins={42: target})
        assert router.shard_of(42) == target
        assert router.shard_of(43) == ShardRouter(4, seed=0).shard_of(43)

    def test_ctor_pin_validation(self):
        with pytest.raises(ValueError):
            ShardRouter(2, pins={5: 7})

    def test_partition_respects_pins(self):
        router = ShardRouter(3, seed=0, pins={1: 2, 2: 2, 3: 2})
        parts = router.partition([1, 2, 3])
        assert parts[2] == [1, 2, 3]
        assert parts[0] == [] and parts[1] == []
