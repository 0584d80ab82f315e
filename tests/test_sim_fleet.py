"""The sharded fleet driver: fan-out, merge exactness, and fallbacks.

The merge contract is the whole point: the fleet's merged
:class:`MetricsSnapshot` must equal the integer sum of the per-shard
snapshots, identically, on every backend — so sharded benchmark figures
are interchangeable with one long serial run over the same shards.
"""

import functools

import pytest

from repro.errors import ConfigurationError, FleetWorkerError
from repro.sim.fleet import (
    BACKENDS,
    FleetResult,
    ShardResult,
    call_loop_shard,
    run_fleet,
)
from repro.sim.metrics import MetricsSnapshot

SMALL = functools.partial(call_loop_shard, count=8)


class TestRunFleet:
    def test_serial_backend_merges_exactly(self):
        fleet = run_fleet(SMALL, shards=3, backend="serial")
        assert len(fleet.shards) == 3
        assert [s.shard for s in fleet.shards] == [0, 1, 2]
        assert fleet.verify_merge()
        assert fleet.merged == MetricsSnapshot.sum_of(
            s.metrics for s in fleet.shards
        )
        for shard in fleet.shards:
            assert shard.payload["halted"]

    def test_shards_are_independent_and_identical(self):
        """Identical workloads produce identical per-shard figures."""
        fleet = run_fleet(SMALL, shards=4, backend="serial")
        first = fleet.shards[0].metrics
        assert all(s.metrics == first for s in fleet.shards)
        assert fleet.merged.instructions == 4 * first.instructions
        assert fleet.merged.ring_crossings == 4 * first.ring_crossings

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree(self, backend):
        serial = run_fleet(SMALL, shards=2, backend="serial")
        other = run_fleet(SMALL, shards=2, workers=2, backend=backend)
        assert other.verify_merge()
        assert other.merged == serial.merged
        assert other.payloads == serial.payloads

    def test_single_worker_degrades_to_serial(self):
        fleet = run_fleet(SMALL, shards=2, workers=1, backend="process")
        assert fleet.backend == "serial"
        assert fleet.verify_merge()

    def test_workers_capped_at_shards(self):
        fleet = run_fleet(SMALL, shards=2, workers=16, backend="thread")
        assert fleet.workers == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            run_fleet(SMALL, shards=0)
        with pytest.raises(ConfigurationError):
            run_fleet(SMALL, shards=2, workers=0)
        with pytest.raises(ConfigurationError):
            run_fleet(SMALL, shards=2, backend="gpu")

    def test_rejects_workload_without_metrics(self):
        with pytest.raises(ConfigurationError):
            run_fleet(_bad_workload, shards=1, backend="serial")


def _bad_workload(shard):
    return {"shard": shard}, {"not": "a snapshot"}


def _exploding_workload(shard):
    """Module-level (picklable) workload that dies in shard 1 only."""
    if shard == 1:
        raise RuntimeError(f"boom in shard {shard}")
    return call_loop_shard(shard, count=2)


class TestWorkerExceptionPropagation:
    """A raising workload must surface with its shard index attached —
    the process backend otherwise reports a bare pool error with no
    indication of which sweep point died."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exception_carries_shard_index(self, backend):
        with pytest.raises(FleetWorkerError) as info:
            run_fleet(
                _exploding_workload, shards=2, workers=2, backend=backend
            )
        assert info.value.shard == 1
        assert "RuntimeError" in str(info.value)
        assert "boom in shard 1" in str(info.value)

    def test_survives_the_pickle_boundary(self):
        import pickle

        error = FleetWorkerError(3, "RuntimeError: boom")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, FleetWorkerError)
        assert clone.shard == 3
        assert "boom" in str(clone)

    def test_serial_backend_chains_the_original(self):
        with pytest.raises(FleetWorkerError) as info:
            run_fleet(_exploding_workload, shards=2, backend="serial")
        assert isinstance(info.value.__cause__, RuntimeError)


class TestCallLoopShard:
    def test_reference_workload_figures(self):
        payload, metrics = call_loop_shard(0, count=8)
        assert payload["halted"]
        assert payload["instructions"] == metrics.instructions
        # 8 downward calls, 8 upward returns: 16 crossings.
        assert payload["ring_crossings"] == 16
        assert metrics.calls == 8 and metrics.returns == 8

    def test_block_tier_knob_is_neutral(self):
        _, on = call_loop_shard(0, count=8)
        _, off = call_loop_shard(0, count=8, tier="fast_path")
        assert on.architectural() == off.architectural()

    def test_matches_fleet_of_one(self):
        _, alone = call_loop_shard(0, count=8)
        fleet = run_fleet(SMALL, shards=1, backend="serial")
        assert fleet.merged == alone


class TestFleetResult:
    def snapshot(self, **kw):
        base = {name: 0 for name in MetricsSnapshot.__dataclass_fields__}
        base.update(kw)
        return MetricsSnapshot(**base)

    def test_verify_merge_catches_corruption(self):
        shard = ShardResult(
            shard=0,
            payload=None,
            metrics=self.snapshot(instructions=5),
            wall_seconds=0.0,
        )
        good = FleetResult(
            shards=[shard], merged=self.snapshot(instructions=5)
        )
        bad = FleetResult(
            shards=[shard], merged=self.snapshot(instructions=6)
        )
        assert good.verify_merge()
        assert not bad.verify_merge()

    def test_empty_result_is_the_zero_snapshot(self):
        empty = FleetResult()
        assert empty.merged == MetricsSnapshot.zero()
        assert empty.verify_merge()
        assert empty.payloads == []

    def test_verify_merge_multi_shard_single_counter_drift(self):
        """An off-by-one in any one counter across many shards fails."""
        shards = [
            ShardResult(
                shard=index,
                payload=None,
                metrics=self.snapshot(instructions=10, cycles=30),
                wall_seconds=0.0,
            )
            for index in range(3)
        ]
        exact = self.snapshot(instructions=30, cycles=90)
        assert FleetResult(shards=shards, merged=exact).verify_merge()
        drifted = self.snapshot(instructions=30, cycles=91)
        assert not FleetResult(shards=shards, merged=drifted).verify_merge()

    def test_verify_merge_detects_corrupted_shard(self):
        """Corruption on the shard side (not just merged) is caught."""
        good = ShardResult(
            shard=0,
            payload=None,
            metrics=self.snapshot(calls=4),
            wall_seconds=0.0,
        )
        bad = ShardResult(
            shard=1,
            payload=None,
            metrics=self.snapshot(calls=5),
            wall_seconds=0.0,
        )
        merged = self.snapshot(calls=8)  # what two good shards would sum to
        assert not FleetResult(
            shards=[good, bad], merged=merged
        ).verify_merge()
