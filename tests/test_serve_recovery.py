"""Gateway crash recovery end to end.

Two recovery paths are pinned:

* **worker death under load** — SIGKILL a process-pool worker while a
  loadgen run is in flight; the gateway must rebuild the pool, retry
  the interrupted calls, drop nothing it accepted, and still pass the
  worker cross-check (with the replayed history accounted for through
  the per-incarnation baseline);
* **whole-gateway restart** — stop a durable gateway, start a fresh one
  on the same durability directory; the new workers must resume the old
  machine state, and the journals must replay verified across both
  generations.
"""

import asyncio
import os
import signal

import pytest

from repro.serve.admission import RingPolicy
from repro.serve.gateway import GatewayConfig, RingGateway
from repro.serve.loadgen import run_load
from repro.state.recover import JOURNAL_NAME, recover_slot, replay_journal


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


def run(coro):
    return asyncio.run(coro)


async def with_gateway(config, body):
    gateway = RingGateway(config)
    await gateway.start()
    try:
        return await body(gateway)
    finally:
        await gateway.stop()


def slot_dirs(durability_dir):
    root = durability_dir / "slots"
    return sorted(p for p in root.iterdir() if p.name.startswith("slot-"))


class TestWorkerDeathUnderLoad:
    def test_sigkill_mid_load_drops_nothing(self, tmp_path):
        config = gateway_config(
            workers=2,
            backend="process",
            durability_dir=str(tmp_path),
            checkpoint_interval=8,
            fsync_every=1,
        )

        async def body(gateway):
            if not gateway.pool.backend.startswith("process"):
                pytest.skip("process pool unavailable in this environment")

            async def assassin():
                # kill only once the burst is demonstrably mid-flight:
                # some calls done, most still to come (a wall-clock
                # delay races the load on a busy host)
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
        # every accepted call was answered: nothing dropped
        assert report.ok == report.sessions * report.calls_per_session
        gateway_stats = report.stats["gateway"]
        assert gateway_stats["recoveries"] >= 1
        assert gateway_stats["retried_calls"] >= 1
        # the cross-check still balances: replayed history is baselined
        assert report.stats["consistent"] is True
        per_worker = report.stats["workers"]["per_worker"]
        assert any(
            info.get("generation", 1) > 1 for info in per_worker.values()
        )

    def test_sigkill_without_durability_still_recovers_pool(self, tmp_path):
        config = gateway_config(workers=2, backend="process")

        async def body(gateway):
            if not gateway.pool.backend.startswith("process"):
                pytest.skip("process pool unavailable in this environment")

            async def assassin():
                # kill only once the burst is demonstrably mid-flight:
                # some calls done, most still to come (a wall-clock
                # delay races the load on a busy host)
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
        # without a journal the interrupted calls re-execute from
        # scratch on fresh machines, so the client still loses nothing
        assert report.ok == report.sessions * report.calls_per_session
        assert report.stats["gateway"]["recoveries"] >= 1


class TestGatewayRestart:
    def test_clean_drain_keeps_every_acknowledged_call(self, tmp_path):
        # fewer calls than one fsync batch, on pool children: the drain
        # must sync them into the journal, or a restart loses them
        config = gateway_config(
            backend="process", durability_dir=str(tmp_path), fsync_every=8
        )

        async def body(gateway):
            report = await run_load(
                "127.0.0.1", gateway.port, sessions=1, calls=5
            )
            assert report.check() == []

        run(with_gateway(config, body))
        (slot_dir,) = slot_dirs(tmp_path)
        report = replay_journal(str(slot_dir / JOURNAL_NAME), verify=True)
        assert report.replayed == report.verified == 5

    def test_restart_resumes_worker_state(self, tmp_path):
        config = gateway_config(
            workers=1,
            durability_dir=str(tmp_path),
            checkpoint_interval=4,
            fsync_every=1,
        )

        async def first(gateway):
            report = await run_load(
                "127.0.0.1", gateway.port, sessions=2, calls=6
            )
            assert report.check() == []
            return report.stats["workers"]["per_worker"]

        async def second(gateway):
            report = await run_load(
                "127.0.0.1", gateway.port, sessions=2, calls=6
            )
            assert report.check() == []
            return report.stats["workers"]["per_worker"]

        before = run(with_gateway(config, first))
        after = run(with_gateway(config, second))
        (worker_before,) = before.values()
        (worker_after,) = after.values()
        assert worker_after["generation"] == worker_before["generation"] + 1
        # the second gateway's workers report the full history: their
        # own 12 calls plus the 12 replayed from the first incarnation
        assert worker_after["worker_reported_calls"] == (
            worker_before["worker_reported_calls"] + worker_after["calls"]
        )
        assert worker_after["baseline_calls"] == (
            worker_before["worker_reported_calls"]
        )
        assert worker_after["consistent"] is True

    def test_journals_replay_verified_across_restart(self, tmp_path):
        config = gateway_config(
            workers=1,
            durability_dir=str(tmp_path),
            checkpoint_interval=4,
            fsync_every=1,
        )

        async def body(gateway):
            report = await run_load(
                "127.0.0.1", gateway.port, sessions=2, calls=5
            )
            assert report.check() == []

        run(with_gateway(config, body))
        run(with_gateway(config, body))

        (slot_dir,) = slot_dirs(tmp_path)
        journal = slot_dir / JOURNAL_NAME
        report = replay_journal(str(journal), verify=True)
        assert report.replayed == 20
        assert report.verified == 20
        recovery = recover_slot(str(slot_dir), verify=True)
        assert recovery.log.engine.calls == 20
        assert (slot_dir / "generation").read_text().strip() == "2"
