"""The ring gateway end to end: sessions, calls, backpressure, drain.

Every test spins up a real asyncio gateway on an ephemeral port with the
thread worker backend (fast startup, no pickling) and talks to it over
an actual TCP connection — the wire format is part of the contract.
"""

import asyncio
import json
import os
from concurrent.futures import ThreadPoolExecutor

from repro.serve import workers
from repro.serve.admission import RingPolicy
from repro.serve.gateway import GatewayConfig, RingGateway, _percentile
from repro.serve.loadgen import run_load
from repro.serve.protocol import ErrorCode
from repro.serve.sessions import SessionConfig
from repro.serve.workers import (
    RECENT_CALLS,
    SERVING_MACHINE,
    DurabilityConfig,
    GateCallEngine,
    JournaledEngine,
    WorkerPool,
    bind_worker,
    execute_gate_call,
)
from repro.sim.config import MachineConfig
from repro.state.journal import JournalWriter, read_journal
from repro.state.recover import JOURNAL_NAME, replay_journal, slot_path
from repro.state.snapshot import snapshot_digest, snapshot_machine

#: a compute burst long enough (hundreds of ms even with the superblock
#: tier on) to still be in flight when a competing request arrives
SLOW_ARGS = {"n": 200000}


def gateway_config(**overrides):
    defaults = dict(
        port=0,
        workers=1,
        backend="thread",
        call_timeout=30.0,
        drain_timeout=30.0,
        default_policy=RingPolicy(rate=None, max_pending=64),
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


class Client:
    """Minimal raw JSON-lines client for exact protocol assertions."""

    def __init__(self, port):
        self.port = port
        self.reader = None
        self.writer = None

    async def connect(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        return self

    async def send_raw(self, data: bytes):
        self.writer.write(data)
        await self.writer.drain()

    async def request(self, **message):
        await self.send_raw(json.dumps(message).encode() + b"\n")
        return await self.read()

    async def read(self):
        line = await self.reader.readline()
        assert line, "gateway closed the connection unexpectedly"
        return json.loads(line)

    async def hello(self, user="alice", ring=4):
        response = await self.request(verb="hello", user=user, ring=ring)
        assert response["ok"], response
        return response

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def run(coro):
    return asyncio.run(coro)


async def with_gateway(config, body):
    gateway = RingGateway(config)
    await gateway.start()
    try:
        return await body(gateway)
    finally:
        await gateway.stop()


class TestSessions:
    def test_call_requires_hello(self):
        async def body(gateway):
            client = await Client(gateway.port).connect()
            response = await client.request(
                verb="call", id=1, program="echo", args={}
            )
            assert not response["ok"]
            assert response["error"] == ErrorCode.AUTH_REQUIRED
            assert response["id"] == 1
            await client.close()

        run(with_gateway(gateway_config(), body))

    def test_hello_validates_ring_and_user(self):
        async def body(gateway):
            client = await Client(gateway.port).connect()
            for bad in (
                {"verb": "hello", "user": "a", "ring": 0},
                {"verb": "hello", "user": "a", "ring": 6},
                {"verb": "hello", "user": "a", "ring": True},
                {"verb": "hello", "user": "", "ring": 4},
                {"verb": "hello", "ring": 4},
            ):
                response = await client.request(**bad)
                assert not response["ok"], bad
                assert response["error"] == ErrorCode.BAD_REQUEST
            assert (await client.hello("bob", 5))["ring"] == 5
            await client.close()

        run(with_gateway(gateway_config(), body))

    def test_malformed_json_answers_bad_request(self):
        async def body(gateway):
            client = await Client(gateway.port).connect()
            await client.send_raw(b"this is not json\n")
            response = await client.read()
            assert not response["ok"]
            assert response["error"] == ErrorCode.BAD_REQUEST
            # the connection survives a bad line
            assert (await client.hello())["ok"]
            await client.close()
            assert gateway.counters.protocol_errors == 1

        run(with_gateway(gateway_config(), body))

    def test_unknown_verb_and_bye(self):
        async def body(gateway):
            client = await Client(gateway.port).connect()
            response = await client.request(verb="frobnicate")
            assert response["error"] == ErrorCode.BAD_REQUEST
            assert (await client.request(verb="bye"))["ok"]
            await client.close()

        run(with_gateway(gateway_config(), body))


class TestCalls:
    def test_echo_roundtrip(self):
        async def body(gateway):
            client = await Client(gateway.port).connect()
            await client.hello("alice", 4)
            response = await client.request(
                verb="call", id=9, program="echo", args={"value": 1234}
            )
            assert response["ok"], response
            assert response["id"] == 9
            assert response["result"]["halted"]
            assert response["result"]["a"] == 1234
            assert response["result"]["ring"] == 4
            assert response["metrics"]["instructions"] == 2
            assert response["latency_ms"] >= 0
            await client.close()

        run(with_gateway(gateway_config(), body))

    def test_call_loop_crosses_rings(self):
        async def body(gateway):
            client = await Client(gateway.port).connect()
            await client.hello("alice", 4)
            response = await client.request(
                verb="call",
                id=1,
                program="call_loop",
                args={"count": 3, "target_ring": 0},
            )
            assert response["ok"], response
            assert response["result"]["ring_crossings"] == 6
            assert response["metrics"]["calls"] == 3
            assert response["metrics"]["returns"] == 3
            await client.close()

        run(with_gateway(gateway_config(), body))

    def test_unknown_program_and_bad_args(self):
        async def body(gateway):
            client = await Client(gateway.port).connect()
            await client.hello()
            response = await client.request(
                verb="call", id=1, program="mystery", args={}
            )
            assert response["error"] == ErrorCode.UNKNOWN_PROGRAM
            response = await client.request(
                verb="call", id=2, program="echo", args={"value": -5}
            )
            assert response["error"] == ErrorCode.BAD_REQUEST
            # neither touched a worker or took a slot
            assert gateway.counters.accepted == 0
            assert gateway.admission.total_pending == 0
            await client.close()

        run(with_gateway(gateway_config(), body))

    def test_worker_exception_is_internal_not_bad_request(self, monkeypatch):
        """A worker failing in a way no request can cause is reported
        as ``internal`` and counted under ``worker_errors`` — never
        disguised as the caller's fault."""

        def broken_run_job(self, job):
            raise RuntimeError("injected worker bug")

        monkeypatch.setattr(GateCallEngine, "run_job", broken_run_job)

        async def body(gateway):
            client = await Client(gateway.port).connect()
            await client.hello()
            response = await client.request(
                verb="call", id=1, program="echo", args={"value": 1}
            )
            assert response["error"] == ErrorCode.INTERNAL
            assert "injected worker bug" in response["detail"]
            stats = await client.request(verb="stats", id=2)
            assert stats["gateway"]["worker_errors"] == 1
            assert stats["gateway"]["bad_requests"] == 0
            await client.close()

        run(with_gateway(gateway_config(), body))

    def test_per_user_isolation_on_one_worker(self):
        """Two users share a worker machine but get their own process."""

        async def body(gateway):
            alice = await Client(gateway.port).connect()
            bob = await Client(gateway.port).connect()
            await alice.hello("alice", 4)
            await bob.hello("bob", 5)
            a = await alice.request(
                verb="call", id=1, program="echo", args={"value": 1}
            )
            b = await bob.request(
                verb="call", id=1, program="echo", args={"value": 2}
            )
            assert a["result"]["a"] == 1 and a["result"]["ring"] == 4
            assert b["result"]["a"] == 2 and b["result"]["ring"] == 5
            await alice.close()
            await bob.close()

        run(with_gateway(gateway_config(), body))


class TestAdmission:
    def test_rate_limit_rejection_carries_retry_after(self):
        config = gateway_config(
            default_policy=RingPolicy(rate=0.5, burst=1, max_pending=8)
        )

        async def body(gateway):
            client = await Client(gateway.port).connect()
            await client.hello()
            first = await client.request(
                verb="call", id=1, program="echo", args={}
            )
            assert first["ok"]
            second = await client.request(
                verb="call", id=2, program="echo", args={}
            )
            assert not second["ok"]
            assert second["error"] == ErrorCode.RATE_LIMITED
            assert second["retry_after"] > 0
            assert second["ring"] == 4
            assert gateway.counters.rejected_rate_limited == 1
            await client.close()

        run(with_gateway(config, body))

    def test_ring_quota_exhausted_rejects_queue_full(self):
        """The satellite case end to end: one slow call holds ring 4's
        only slot; the next caller is told queue_full + retry_after,
        while ring 5 is unaffected."""
        config = gateway_config(
            default_policy=RingPolicy(
                rate=None, max_pending=1, queue_retry_after=0.125
            )
        )

        async def body(gateway):
            slow = await Client(gateway.port).connect()
            await slow.hello("slow", 4)
            fast = await Client(gateway.port).connect()
            await fast.hello("fast", 4)
            other = await Client(gateway.port).connect()
            await other.hello("other", 5)

            slow_task = asyncio.ensure_future(
                slow.request(
                    verb="call", id=1, program="compute", args=SLOW_ARGS
                )
            )
            # wait until the slow call holds the ring-4 slot
            for _ in range(2000):
                if gateway.admission.pending(4):
                    break
                await asyncio.sleep(0.001)
            assert gateway.admission.pending(4) == 1

            rejected = await fast.request(
                verb="call", id=2, program="echo", args={}
            )
            assert not rejected["ok"]
            assert rejected["error"] == ErrorCode.QUEUE_FULL
            assert rejected["retry_after"] == 0.125
            ok_other = await other.request(
                verb="call", id=3, program="echo", args={}
            )
            assert ok_other["ok"]  # ring 5 has its own quota

            slow_response = await slow_task
            assert slow_response["ok"]
            # slot released after completion; ring 4 admits again
            retried = await fast.request(
                verb="call", id=4, program="echo", args={}
            )
            assert retried["ok"]
            assert gateway.counters.rejected_queue_full == 1
            for client in (slow, fast, other):
                await client.close()

        run(with_gateway(config, body))

    def test_timeout_answers_client_and_keeps_accounting_exact(self):
        # The timeout must undercut the call's worker-side execution
        # even with the trace-compile tier collapsing the compute loop:
        # 200k simulated iterations still cost a few milliseconds, and
        # pool dispatch alone exceeds this deadline.
        config = gateway_config(call_timeout=0.002)

        async def body(gateway):
            client = await Client(gateway.port).connect()
            await client.hello()
            response = await client.request(
                verb="call", id=1, program="compute", args=SLOW_ARGS
            )
            assert not response["ok"]
            assert response["error"] == ErrorCode.TIMEOUT
            assert gateway.counters.timed_out == 1
            # the worker-side call still finishes and is accounted
            for _ in range(2000):
                if not gateway._inflight:
                    break
                await asyncio.sleep(0.005)
            assert not gateway._inflight
            stats = await client.request(verb="stats")
            assert stats["consistent"]
            assert stats["gateway"]["completed"] == 1
            assert stats["gateway"]["timed_out"] == 1
            assert stats["gateway"]["in_flight"] == 0
            assert gateway.admission.total_pending == 0
            await client.close()

        run(with_gateway(config, body))


class TestDrainAndStats:
    def test_queue_drains_on_shutdown(self):
        """The satellite case: stop() waits for the in-flight call,
        delivers its response, and leaves the accounting balanced."""

        async def body():
            gateway = RingGateway(gateway_config())
            await gateway.start()
            client = await Client(gateway.port).connect()
            await client.hello()
            call_task = asyncio.ensure_future(
                client.request(
                    verb="call", id=1, program="compute", args=SLOW_ARGS
                )
            )
            for _ in range(2000):
                if gateway._inflight:
                    break
                await asyncio.sleep(0.001)
            assert gateway._inflight
            await gateway.stop()
            response = await call_task
            assert response["ok"], response
            assert gateway.counters.completed == 1
            assert gateway.admission.total_pending == 0
            assert not gateway._inflight
            await client.close()

        run(body())

    def test_draining_gateway_rejects_new_calls(self):
        async def body():
            gateway = RingGateway(gateway_config())
            await gateway.start()
            client = await Client(gateway.port).connect()
            await client.hello()
            gateway._draining = True
            response = await client.request(
                verb="call", id=1, program="echo", args={}
            )
            assert response["error"] == ErrorCode.SHUTTING_DOWN
            assert response["retry_after"] > 0
            assert gateway.counters.rejected_shutting_down == 1
            await client.close()
            gateway._draining = False
            await gateway.stop()

        run(body())

    def test_stats_merge_equals_sum_of_workers(self):
        config = gateway_config(workers=2)

        async def body(gateway):
            report = await run_load(
                "127.0.0.1",
                gateway.port,
                sessions=4,
                calls=5,
                program="call_loop",
                args={"count": 2},
                rings=(4, 5),
            )
            assert report.ok == 20
            assert report.dropped == 0
            assert report.check() == []
            stats = report.stats
            assert stats["consistent"]
            # merged == integer sum of the per-worker snapshots
            per_worker = stats["workers"]["per_worker"].values()
            for counter, value in stats["architectural"].items():
                assert value == sum(
                    worker["architectural"][counter] for worker in per_worker
                )
            assert stats["gateway"]["completed"] == 20
            assert sum(w["calls"] for w in per_worker) == 20
            # 20 calls x 2 pairs x 2 crossings
            assert stats["architectural"]["ring_crossings"] == 80
            assert stats["rates"]["sdw_hit_rate"] is not None
            assert stats["gateway"]["latency"]["count"] == 20
            assert (
                stats["gateway"]["latency"]["p99_ms"]
                >= stats["gateway"]["latency"]["p50_ms"]
            )

        run(with_gateway(config, body))


class TestWorkerFunction:
    """execute_gate_call directly: the worker half without the network."""

    def setup_method(self):
        # what a pool's initializer does for each of its workers
        bind_worker((SERVING_MACHINE, None), 0)

    def test_persistent_machine_reuses_programs(self):
        job = {
            "user": "carol",
            "ring": 4,
            "program": "echo",
            "args": {"value": 42},
        }
        first = execute_gate_call(job)
        second = execute_gate_call(job)
        assert first["payload"]["a"] == 42
        assert second["worker_calls"] == first["worker_calls"] + 1
        # cumulative totals advance by exactly one call's metrics
        assert second["worker_total"]["instructions"] == (
            first["worker_total"]["instructions"]
            + second["metrics"]["instructions"]
        )

    def test_unknown_program_reports_error(self):
        result = execute_gate_call(
            {"user": "carol", "ring": 4, "program": "nope", "args": {}}
        )
        assert result["error"] == ErrorCode.UNKNOWN_PROGRAM


class TestWorkerPool:
    """One pool class for both worker kinds."""

    JOB = {
        "user": "carol", "ring": 4, "program": "echo",
        "args": {"value": 7}, "call_id": "c0",
    }

    def test_each_pool_keeps_its_own_durability(self, tmp_path):
        """A second, non-durable pool in the same process leaves the
        first one durable: its call answers from slot 0 and is
        journaled there."""
        durable = WorkerPool(
            workers=1,
            backend="thread",
            durability=DurabilityConfig(
                dir=str(tmp_path), slots=1, fsync_every=1
            ),
        )
        plain = WorkerPool(workers=1, backend="thread")
        try:
            result = durable.executor.submit(
                execute_gate_call, self.JOB
            ).result(timeout=60)
            other = plain.executor.submit(
                execute_gate_call, self.JOB
            ).result(timeout=60)
        finally:
            durable.shutdown()
            plain.shutdown()
        assert result["worker"] == "slot0"
        assert result["slot"] == 0
        journal = os.path.join(slot_path(str(tmp_path), 0), JOURNAL_NAME)
        (record,) = read_journal(journal)
        assert record["call_id"] == "c0"
        assert other["worker"].startswith("pid")
        assert "slot" not in other

    def test_the_executor_layout_follows_the_kind(self):
        classic = WorkerPool(workers=2, backend="thread")
        sharded = WorkerPool(
            workers=2, backend="thread", sessions=SessionConfig(max_live=1)
        )
        try:
            assert classic.executor_for(0) is classic.executor
            assert classic.executor._max_workers == 2
            assert sharded.executor is sharded.executor_for(0)
            assert sharded.executor_for(1) is not sharded.executor
            assert sharded.executor_for(1)._max_workers == 1
            pings = [
                sharded.submit(shard, workers.worker_ping, shard).result()
                for shard in range(2)
            ]
            assert [ping["worker"] for ping in pings] == ["shard0", "shard1"]
        finally:
            classic.shutdown()
            sharded.shutdown()

    def test_a_failed_probe_puts_the_whole_pool_on_threads(
        self, monkeypatch
    ):
        """The backend is chosen once: a process pool that cannot be
        built for a later shard leaves no shard on processes."""
        built = []
        real = workers.ProcessPoolExecutor

        def second_fails(*args, **kwargs):
            if built:
                raise OSError("no second process pool")
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(workers, "ProcessPoolExecutor", second_fails)
        pool = WorkerPool(
            workers=2, backend="process", sessions=SessionConfig(max_live=1)
        )
        try:
            assert pool.backend == "thread (process pool unavailable)"
            for shard in range(2):
                assert isinstance(
                    pool.executor_for(shard), ThreadPoolExecutor
                )
        finally:
            pool.shutdown()


class TestParkVerb:
    def test_a_stopped_shard_answers_internal(self):
        """A shard that cannot run the park is the server failing: the
        answer is ``internal``, counted under ``worker_errors``."""

        async def body(gateway):
            gateway.pool.executor_for(0).shutdown(wait=True)
            client = await Client(gateway.port).connect()
            response = await client.request(verb="park", id=3, user="alice")
            await client.close()
            assert not response["ok"]
            assert response["error"] == ErrorCode.INTERNAL
            assert response["id"] == 3
            assert "park failed" in response["detail"]
            counters = gateway.stats_payload()["gateway"]
            assert counters["worker_errors"] == 1
            assert counters["bad_requests"] == 0

        run(with_gateway(gateway_config(max_sessions=2), body))


#: a worker machine that runs out of physical memory within a few dozen
#: distinct users
SMALL_MACHINE = MachineConfig.serving(memory_words=1 << 16)


def echo_job(user):
    return {"user": user, "ring": 4, "program": "echo", "args": {"value": 1}}


class TestMemoryExhaustion:
    """A worker machine that runs out of physical memory is the
    server's failure: ``internal``, counted under ``worker_errors``,
    journaled like any failed call."""

    def test_engine_answers_internal_not_bad_request(self):
        engine = GateCallEngine(config=SMALL_MACHINE)
        results = [engine.run_job(echo_job(f"u{n}")) for n in range(40)]
        failed = [r for r in results if "error" in r]
        assert failed and len(failed) < len(results)
        assert {r["error"] for r in failed} == {ErrorCode.INTERNAL}
        assert "out of physical memory" in failed[0]["detail"]
        # a retry for a user whose login ran out of memory is still
        # the server's failure, never "already registered"
        first_failed = results.index(failed[0])
        retry = engine.run_job(echo_job(f"u{first_failed}"))
        assert retry["error"] == ErrorCode.INTERNAL

    def test_exhausted_calls_replay_identically(self, tmp_path):
        path = str(tmp_path / "journal.wal")
        live = JournaledEngine(
            GateCallEngine(config=SMALL_MACHINE),
            RECENT_CALLS,
            journal=JournalWriter(path),
        )
        results = [
            live.execute(dict(echo_job(f"u{n % 35}"), call_id=f"c{n}"))
            for n in range(45)
        ]
        live.journal.close()
        assert any(r.get("error") == ErrorCode.INTERNAL for r in results)
        replayed = JournaledEngine(
            GateCallEngine(config=SMALL_MACHINE), RECENT_CALLS
        )
        report = replay_journal(path, replayed, verify=True)
        assert report.replayed == len(results)
        assert snapshot_digest(
            snapshot_machine(replayed.engine.machine)
        ) == snapshot_digest(snapshot_machine(live.engine.machine))

    def test_gateway_counts_worker_errors(self, monkeypatch):
        monkeypatch.setattr(
            GatewayConfig, "machine", lambda self: SMALL_MACHINE
        )

        async def body(gateway):
            errors = []
            for n in range(40):
                client = await Client(gateway.port).connect()
                await client.hello(f"u{n}")
                response = await client.request(
                    verb="call", id=n, program="echo", args={"value": n}
                )
                if not response["ok"]:
                    errors.append(response["error"])
                await client.close()
            assert errors and set(errors) == {ErrorCode.INTERNAL}
            client = await Client(gateway.port).connect()
            stats = (await client.request(verb="stats", id=99))["gateway"]
            await client.close()
            assert stats["worker_errors"] == len(errors)
            assert stats["machine_faults"] == 0
            assert stats["bad_requests"] == 0
            assert stats["completed"] == 40 - len(errors)

        run(with_gateway(gateway_config(), body))


class TestPercentile:
    def test_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert _percentile(samples, 0.50) == 50.0
        assert _percentile(samples, 0.99) == 99.0
        assert _percentile([7.0], 0.99) == 7.0
        assert _percentile([], 0.5) == 0.0
