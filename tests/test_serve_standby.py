"""Replication end to end: standby service, shipping, hot failover.

The acceptance bar for the replication subsystem is exactness under
failover: killing the primary mid-load with ``--replicas >= 1`` must
yield merged architectural counters bit-identical to the no-failure
run of the same call set — zero dropped calls, zero double-executed
calls.  That is pinned twice here: once at the unit level
(:class:`TestPromotionExactness`, a hand-driven crash/promote/resume
sequence compared against a single uninterrupted engine) and once end
to end (:class:`TestFailoverUnderLoad`, SIGKILL against a real process
pool, with the slot journals' record-by-record metric sums compared to
the client-side per-call sums).
"""

import asyncio
import json
import os
import signal

import pytest

from repro.serve import workers
from repro.serve.admission import RingPolicy
from repro.serve.gateway import GatewayConfig, RingGateway
from repro.serve.loadgen import run_load
from repro.serve.standby import (
    ReplicaClient,
    ReplicationConfig,
    StandbyConfig,
    StandbyServer,
)
from repro.sim.metrics import MetricsSnapshot
from repro.state.recover import JOURNAL_NAME, recover_slot
from repro.state.replication import JournalTailer, encode_frame, read_frames


def run(coro):
    return asyncio.run(coro)


def gateway_config(**overrides):
    defaults = dict(
        port=0,
        workers=1,
        backend="thread",
        call_timeout=60.0,
        drain_timeout=60.0,
        default_policy=RingPolicy(rate=None, max_pending=64),
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


async def with_gateway(config, body):
    gateway = RingGateway(config)
    await gateway.start()
    try:
        return await body(gateway)
    finally:
        await gateway.stop()


def make_jobs(count, user="alice", start=0):
    return [
        {
            "user": user,
            "ring": 4,
            "program": "call_loop",
            "args": {"count": 2},
            "call_id": f"call-{user}-{start + i}",
        }
        for i in range(count)
    ]


def journal_architectural_sum(durability_dir):
    """Sum of every slot journal's per-record architectural metrics.

    Each executed call appears in exactly one journal record, so this
    equals the client-side per-call sum iff nothing was dropped or
    double-executed — the strongest failover-exactness check there is.
    """
    total = MetricsSnapshot.zero()
    calls = 0
    slots_root = os.path.join(durability_dir, "slots")
    for name in sorted(os.listdir(slots_root)):
        journal = os.path.join(slots_root, name, JOURNAL_NAME)
        for frame in read_frames(journal):
            metrics = frame.record["result"].get("metrics")
            if metrics is not None:
                total = total.plus(MetricsSnapshot.from_dict(metrics))
                calls += 1
    return calls, total.architectural()


@pytest.fixture
def durable_state(tmp_path):
    state = workers._WorkerState(
        workers.SERVING_MACHINE,
        workers.DurabilityConfig(
            dir=str(tmp_path), slots=1, checkpoint_interval=10_000,
            fsync_every=1,
        ),
    )
    yield state
    workers.release_live_slots()


class TestStandbyServer:
    def test_ship_stats_audit_lookup_over_tcp(self, durable_state, tmp_path):
        jobs = make_jobs(6)
        for job in jobs:
            assert "error" not in durable_state.execute(job)
        durable_state.journal.sync()
        frames = JournalTailer(
            os.path.join(durable_state.slot_dir, JOURNAL_NAME)
        ).poll()
        primary_arch = durable_state.engine.total.architectural()

        async def body():
            server = StandbyServer(StandbyConfig(dir=str(tmp_path)))
            await server.start()
            client = await ReplicaClient.open("127.0.0.1", server.port)
            try:
                ack = await client.request(
                    {
                        "verb": "ship",
                        "slot": 0,
                        "frames": [encode_frame(f) for f in frames[:4]],
                    }
                )
                assert ack["ok"] and ack["applied_seq"] == 4
                # redelivery is skipped idempotently
                ack = await client.request(
                    {
                        "verb": "ship",
                        "slot": 0,
                        "frames": [encode_frame(f) for f in frames],
                    }
                )
                assert ack["applied_seq"] == 6
                assert ack["skipped"] == 4
                stats = await client.request({"verb": "stats"})
                assert stats["slots"]["0"]["applied_seq"] == 6
                # the replica answers with the primary's figures,
                # locally, without touching the primary
                assert stats["slots"]["0"]["architectural"] == primary_arch
                audit = await client.request({"verb": "audit", "slot": 0})
                assert audit["applied_seq"] == 6
                assert "call-alice-5" in audit["recent_call_ids"]
                assert audit["users"] == ["alice"]
                hit = await client.request(
                    {"verb": "lookup", "call_id": "call-alice-2"}
                )
                assert hit["found"] and hit["slot"] == 0
                miss = await client.request(
                    {"verb": "lookup", "call_id": "nope"}
                )
                assert miss["found"] is False
            finally:
                await client.close()
                await server.stop()

        run(body())

    def test_tampered_ship_batch_is_refused(self, durable_state, tmp_path):
        job = make_jobs(1)[0]
        assert "error" not in durable_state.execute(job)
        durable_state.journal.sync()
        (frame,) = JournalTailer(
            os.path.join(durable_state.slot_dir, JOURNAL_NAME)
        ).poll()
        entry = encode_frame(frame)
        entry["record"] = dict(entry["record"], call_id="forged")

        async def body():
            server = StandbyServer(StandbyConfig(dir=str(tmp_path)))
            await server.start()
            client = await ReplicaClient.open("127.0.0.1", server.port)
            try:
                ack = await client.request(
                    {"verb": "ship", "slot": 0, "frames": [entry]}
                )
                assert ack["ok"] is False
                assert "CRC" in ack["detail"]
            finally:
                await client.close()
                await server.stop()

        run(body())

    def test_replication_config_validation(self):
        with pytest.raises(Exception, match="replicas"):
            ReplicationConfig(
                dir="x", slots=1, machine=workers.SERVING_MACHINE, replicas=0
            )
        with pytest.raises(Exception, match="durability"):
            GatewayConfig(replicas=1).replication()


class TestPromotionExactness:
    """The unit-level half of the failover-exactness acceptance bar."""

    def test_crash_promote_resume_is_bit_identical(self, tmp_path):
        # One user throughout, with mid-journal checkpoints: the
        # hardest case for replica verification, because the primary's
        # checkpoint-boundary cache drops make its *host-tier* figures
        # diverge from any fresh replayer — while the architectural
        # figures must stay bit-identical.
        jobs = make_jobs(40, user="solo")
        durability = workers.DurabilityConfig(
            dir=str(tmp_path), slots=1, checkpoint_interval=6, fsync_every=1
        )
        try:
            primary = workers._WorkerState(workers.SERVING_MACHINE, durability)
            slot_dir = primary.slot_dir
            for job in jobs[:30]:
                assert "error" not in primary.execute(job)
            primary.journal.sync()

            # a follower shipped to within 4 records of the crash
            from repro.state.replication import ReplicaApplier

            frames = JournalTailer(
                os.path.join(slot_dir, JOURNAL_NAME)
            ).poll()
            assert len(frames) == 30
            applier = ReplicaApplier(workers.SERVING_MACHINE)
            for frame in frames[:26]:
                applier.apply(frame)

            # the primary dies; its claim is abandoned
            workers.release_live_slots()

            # hot failover: replay only the 4-record tail, snapshot
            report = applier.promote(slot_dir)
            assert report["replayed_tail"] == 4

            # the successor claims the slot (generation bump = fence),
            # recovers from the promotion snapshot with an empty tail
            successor = workers._WorkerState(
                workers.SERVING_MACHINE, durability
            )
            assert successor.slot_dir == slot_dir
            assert successor.generation == primary.generation + 1
            assert successor.engine.calls == 30

            # a call in flight at the crash is retried: the promotion
            # snapshot's dedup cache answers it, no double execution
            retry = successor.execute(jobs[28])
            assert retry["deduplicated"] is True
            assert successor.engine.calls == 30

            # traffic resumes on the promoted state
            for job in jobs[30:]:
                assert "error" not in successor.execute(job)
            resumed_arch = successor.engine.total.architectural()
            resumed_calls = successor.engine.calls
        finally:
            workers.release_live_slots()

        # the no-failure reference: one engine, same 40 calls, no
        # crash, no checkpoints, no replication
        from repro.serve.workers import GateCallEngine

        reference = GateCallEngine()
        for job in jobs:
            result = reference.run_job(job)
            assert "error" not in result
        assert resumed_calls == reference.calls == 40
        assert resumed_arch == reference.total.architectural()

        # and the journal agrees record by record: 40 distinct calls,
        # summing to the same architectural figures
        calls, journal_arch = journal_architectural_sum(str(tmp_path))
        assert calls == 40
        assert journal_arch == reference.total.architectural()


class TestReplicatedGateway:
    def test_shipping_reaches_zero_lag_and_mirrors_the_primary(
        self, tmp_path
    ):
        config = gateway_config(
            durability_dir=str(tmp_path),
            checkpoint_interval=10_000,
            fsync_every=1,
            replicas=1,
            ship_every=2,
            ack_window=2,
        )

        async def body(gateway):
            report = await run_load(
                "127.0.0.1", gateway.port, sessions=2, calls=8
            )
            assert report.check() == [], report.check()
            # shipping is asynchronous: wait until every executed call
            # (one journal record each) has been applied — a momentary
            # lag_records == 0 can fire between fsync batches
            for _ in range(200):
                stats = gateway.stats_payload()
                followers = stats["replication"]["followers"]
                if followers and all(
                    f["applied_seq"] == report.ok for f in followers
                ):
                    break
                await asyncio.sleep(0.02)
            else:
                pytest.fail(f"followers never caught up: {followers}")
            for follower in followers:
                assert follower["lag_records"] == 0
            assert stats["replication"]["enabled"] is True
            assert stats["replication"]["promotions"] == 0
            for follower in followers:
                assert follower["shipped_seq"] == follower["journal_seq"]
                assert follower["last_ack_age_s"] is not None
            # the in-process standby's replica machine carries the
            # gateway's merged architectural figures, bit for bit
            (follower_handle,) = gateway._replicas._followers
            applier = follower_handle.server.applier_for(0)
            assert (
                applier.log.engine.total.architectural()
                == stats["architectural"]
            )
            return report

        run(with_gateway(config, body))

    def test_stats_verb_carries_the_replication_block(self, tmp_path):
        config = gateway_config(
            durability_dir=str(tmp_path), replicas=1
        )

        async def body(gateway):
            report = await run_load(
                "127.0.0.1", gateway.port, sessions=1, calls=2
            )
            assert report.check() == []
            block = report.stats["replication"]
            assert block["enabled"] is True
            assert block["replicas"] == 1
            assert block["ship_every"] == 8
            assert {"follower", "slot", "shipped_seq", "applied_seq",
                    "lag_records", "last_ack_age_s"} <= set(
                block["followers"][0]
            )

        run(with_gateway(config, body))

    def test_unreplicated_stats_say_disabled(self):
        config = gateway_config()

        async def body(gateway):
            report = await run_load(
                "127.0.0.1", gateway.port, sessions=1, calls=1
            )
            assert report.stats["replication"] == {"enabled": False}

        run(with_gateway(config, body))


class TestFailoverUnderLoad:
    """The end-to-end half of the failover-exactness acceptance bar."""

    def test_sigkill_primary_promotes_and_stays_exact(self, tmp_path):
        config = gateway_config(
            workers=2,
            backend="process",
            durability_dir=str(tmp_path),
            checkpoint_interval=8,
            fsync_every=1,
            replicas=1,
            ship_every=2,
            ack_window=2,
        )

        async def body(gateway):
            if not gateway.pool.backend.startswith("process"):
                pytest.skip("process pool unavailable in this environment")

            async def assassin():
                while gateway.counters.completed < 20:
                    await asyncio.sleep(0.02)
                victim = list(gateway.pool.executor._processes)[0]
                os.kill(victim, signal.SIGKILL)

            kill_task = asyncio.create_task(assassin())
            report = await run_load(
                "127.0.0.1",
                gateway.port,
                sessions=4,
                calls=40,
                args={"n": 30000},
                program="compute",
            )
            await kill_task
            return report

        report = run(with_gateway(config, body))
        assert report.check() == [], report.check()
        assert report.ok == report.sessions * report.calls_per_session
        gateway_stats = report.stats["gateway"]
        assert gateway_stats["recoveries"] >= 1
        # the recovery went through promotion, not cold restore
        assert gateway_stats["promotions"] >= 1
        assert report.stats["consistent"] is True
        assert report.stats["replication"]["promotions"] >= 1

        # Exactness under failover: every accepted call executed
        # exactly once.  The journals hold one record per executed
        # call; their architectural sum must be bit-identical to what
        # the clients summed from their per-call responses — a dropped
        # call would make the journal sum smaller, a double-executed
        # one would make it larger.
        calls, journal_arch = journal_architectural_sum(str(tmp_path))
        assert calls == report.ok
        assert journal_arch == report.client_metrics

        # and the promoted slots recover clean after the fact
        for name in sorted(os.listdir(os.path.join(str(tmp_path), "slots"))):
            recovery = recover_slot(
                os.path.join(str(tmp_path), "slots", name)
            )
            assert recovery.log.engine.calls >= 0
