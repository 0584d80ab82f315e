"""The four named gate-call workloads: traffic, gateway set-up, checks.

Every workload drives the gateway over :data:`CONNECTIONS` connections
as a closed loop.  A connection's traffic is a deterministic stream of
steps generated from the seed: ``("hello", user, ring)`` binds the
connection to a tenant, ``("call", program, args)`` makes one gate
call.  The program only ever receives these generated requests.

Each workload also names its gateway configuration (as
:class:`repro.serve.gateway.GatewayConfig` fields, which
:func:`cli_flags` turns into ``repro serve`` flags), its warm-up, and
the correctness checks its results must pass.
"""

from __future__ import annotations

import os
import random
from typing import Any, Dict, Iterator, List, Tuple

#: closed-loop connections, one per worker process (``workers`` = nproc
#: on the two-core reference host)
CONNECTIONS = 2
WORKERS = 2

Step = Tuple[Any, ...]

ECHO = ("echo", {"value": 7})
CALL_LOOP_4 = ("call_loop", {"count": 4, "target_ring": 0})
CALL_LOOP_256 = ("call_loop", {"count": 256})
COMPUTE_2000 = ("compute", {"n": 2000})
CALL_LOOP_16 = ("call_loop", {"count": 16})


def balanced_mix(rng: random.Random, variants: List[Tuple[str, dict]]) -> Iterator[Tuple[str, dict]]:
    """An endless seeded shuffle of equal shares of ``variants``.

    Blocks of four of each variant are shuffled, so any prefix of the
    stream is within four calls of the exact share: the mix — and with
    it every per-call average — does not drift with the seed.
    """
    block = [variant for variant in variants for _ in range(4)]
    while True:
        rng.shuffle(block)
        yield from block


def expected_payload(program: str, args: Dict[str, Any]) -> Dict[str, int]:
    """Closed-form result registers and crossings of one catalog call."""
    if program == "echo":
        return {"a": args["value"], "q": 0, "ring_crossings": 0}
    if program == "compute":
        return {"a": 0, "q": args["n"], "ring_crossings": 0}
    # call_loop: the count register runs down to zero; every iteration
    # is one downward call and one upward return
    return {"a": 0, "q": 0, "ring_crossings": 2 * args["count"]}


class Workload:
    """Base: one tenant per connection, a fixed program mix."""

    name = ""
    variants: List[Tuple[str, dict]] = []

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def rng(self, conn: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{conn}")

    def gateway_config(self, instance: str) -> Dict[str, Any]:
        """``GatewayConfig`` fields for one gateway start."""
        return {"workers": WORKERS}

    def user(self, conn: int) -> str:
        return f"{self.name}{conn}"

    def stream(self, conn: int) -> Iterator[Step]:
        """The connection's measured traffic (endless)."""
        yield ("hello", self.user(conn), 4)
        for program, args in balanced_mix(self.rng(conn), self.variants):
            yield ("call", program, args)

    def warmup(self, conn: int) -> List[Step]:
        """One pass over every program variant, as the stream's tenant."""
        steps: List[Step] = [("hello", self.user(conn), 4)]
        steps += [("call", program, args) for program, args in self.variants]
        return steps

    def population(self, conn: int) -> List[Step]:
        """Tenant state built before any gateway is timed (none here)."""
        return []

    def check(self, run: "Any") -> List[str]:
        """Workload-specific correctness problems (empty: all good)."""
        return []


class GateRtt(Workload):
    """One tenant on both connections, ring 4, ``echo`` and
    ``call_loop{4}`` mixed 50/50: the machine's share of a call is small."""

    name = "gate_rtt"
    variants = [ECHO, CALL_LOOP_4]

    def user(self, conn: int) -> str:
        # one tenant, the same user on both connections
        return "rtt"

    def warm_cycles(self) -> Dict[str, int]:
        """Warm per-variant cycles from a machine run outside serving."""
        from repro.serve.workers import GateCallEngine

        engine = GateCallEngine()
        cycles = {}
        for program, args in self.variants:
            job = {"user": "rtt", "ring": 4, "program": program, "args": args}
            for _ in range(3):
                result = engine.run_job(job)
            cycles[program] = result["metrics"]["cycles"]
        return cycles

    def check(self, run: "Any") -> List[str]:
        problems = []
        warm = self.warm_cycles()
        cold = [
            record for record in run.measured_ok()
            if record.response["metrics"]["cycles"] != warm[record.program]
        ]
        if cold:
            problems.append(
                f"{len(cold)} measured call(s) missed the warm cycle figure "
                f"{warm}; first: {cold[0].program} "
                f"{cold[0].response['metrics']['cycles']} cycles"
            )
        return problems


class TenantSwitch(Workload):
    """64 tenants on rings 4 and 5, 2-4 calls per tenant session,
    ``call_loop{256}`` and ``compute{2000}`` mixed 50/50: worker machines
    keep re-attaching.  64 stays below the ~125 users per worker machine
    at which calls start failing (see README.md)."""

    name = "tenant_switch"
    variants = [CALL_LOOP_256, COMPUTE_2000]
    tenants = 64

    def ring(self, tenant: int) -> int:
        return 4 + tenant % 2

    def stream(self, conn: int) -> Iterator[Step]:
        rng = self.rng(conn)
        mix = balanced_mix(rng, self.variants)
        while True:
            tenant = rng.randrange(self.tenants)
            yield ("hello", f"ts{tenant:02d}", self.ring(tenant))
            for _ in range(rng.randint(2, 4)):
                program, args = next(mix)
                yield ("call", program, args)

    def warmup(self, conn: int) -> List[Step]:
        steps: List[Step] = [("hello", f"ts{conn:02d}", self.ring(conn))]
        steps += [("call", program, args) for program, args in self.variants]
        return steps


class SessionChurn(Workload):
    """Session mode: 256 parked tenants over 8 live slots on a disk store,
    each call from a seeded uniform draw, so nearly every call hydrates
    one tenant and parks another."""

    name = "session_churn"
    variants = [CALL_LOOP_4]
    tenants = 256
    max_sessions = 8

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        from repro.sim.fleet import stable_shard

        # Connection c serves exactly the tenants that hash to shard c,
        # so each shard sees one connection's requests in order and the
        # expected hydrate/park sequence follows from the stream alone.
        self.by_conn: List[List[str]] = [[] for _ in range(CONNECTIONS)]
        index = 0
        while min(len(names) for names in self.by_conn) < self.tenants // CONNECTIONS:
            name = f"sc{index:04d}"
            shard = stable_shard(name, WORKERS)
            if len(self.by_conn[shard]) < self.tenants // CONNECTIONS:
                self.by_conn[shard].append(name)
            index += 1

    def gateway_config(self, instance: str) -> Dict[str, Any]:
        return {
            "workers": WORKERS,
            "max_sessions": self.max_sessions,
            "session_store_dir": os.path.join(self.workdir, "sessions"),
            # The idle-time prefetcher hydrates tenants on a timer; off,
            # so every hydrate and park follows from the request stream.
            "prefetch_interval": 0.0,
        }

    def stream(self, conn: int) -> Iterator[Step]:
        rng = self.rng(conn)
        names = self.by_conn[conn]
        program, args = CALL_LOOP_4
        while True:
            yield ("hello", rng.choice(names), 4)
            yield ("call", program, args)

    def warmup(self, conn: int) -> List[Step]:
        program, args = CALL_LOOP_4
        return [("hello", self.by_conn[conn][0], 4), ("call", program, args)]

    def population(self, conn: int) -> List[Step]:
        program, args = CALL_LOOP_4
        steps: List[Step] = []
        for name in self.by_conn[conn]:
            steps += [("hello", name, 4), ("call", program, args)]
        return steps

    def expected_admissions(self, run: "Any", live_per_shard: int) -> Dict[int, List[str]]:
        """Per connection (= shard): the LRU's verdict for every call."""
        expected: Dict[int, List[str]] = {}
        for conn in range(CONNECTIONS):
            live: List[str] = []
            verdicts = []
            for record in run.calls_of(conn):
                if record.user in live:
                    live.remove(record.user)
                    verdicts.append("live")
                else:
                    if len(live) >= live_per_shard:
                        live.pop(0)
                    verdicts.append("hydrated")
                live.append(record.user)
            expected[conn] = verdicts
        return expected

    def check(self, run: "Any") -> List[str]:
        problems = []
        shards = {
            entry["shard"]: entry
            for entry in run.stats.get("sessions", {}).get("per_shard", [])
        }
        if sorted(shards) != list(range(CONNECTIONS)):
            return [f"stats reports session shards {sorted(shards)}"]
        live_per_shard = shards[0]["max_live"]
        for conn, verdicts in self.expected_admissions(run, live_per_shard).items():
            seen = [
                record.response.get("session", {}).get("admitted")
                for record in run.calls_of(conn)
            ]
            if seen != verdicts:
                wrong = sum(1 for a, b in zip(seen, verdicts) if a != b)
                problems.append(
                    f"shard {conn}: {wrong} call(s) admitted differently "
                    f"from the LRU over the generated tenant sequence"
                )
            hydrates = verdicts.count("hydrated")
            parks = max(0, hydrates - live_per_shard)
            got = tuple(shards[conn][name] for name in ("hydrated", "created", "parks"))
            if got != (hydrates, 0, parks):
                problems.append(
                    f"shard {conn}: (hydrated, created, parks) = {got}, "
                    f"expected {(hydrates, 0, parks)} from the tenant sequence"
                )
        return problems


class DurableReplicated(Workload):
    """Journaled, checkpointed workers with one in-process follower; one
    tenant per connection, ``call_loop{16}``."""

    name = "durable_replicated"
    variants = [CALL_LOOP_16]

    def gateway_config(self, instance: str) -> Dict[str, Any]:
        return {
            "workers": WORKERS,
            "durability_dir": os.path.join(self.workdir, f"durable-{instance}"),
            "replicas": 1,
        }

    def check(self, run: "Any") -> List[str]:
        problems = []
        followers = run.stats.get("replication", {}).get("followers", [])
        if not followers:
            return ["no replication follower reported"]
        per_worker = run.stats["workers"]["per_worker"]
        fsync_every = run.stats["workers"]["durability"]["fsync_every"]
        for entry in followers:
            if entry["applied_seq"] != entry["journal_seq"] or entry["error"]:
                problems.append(
                    f"replica slot {entry['slot']}: applied_seq "
                    f"{entry['applied_seq']} != journal_seq "
                    f"{entry['journal_seq']} after drain ({entry['error']})"
                )
            served = per_worker.get(f"slot{entry['slot']}", {}).get(
                "worker_reported_calls", 0
            )
            unsynced = served - entry["journal_seq"]
            if not 0 <= unsynced < fsync_every:
                problems.append(
                    f"slot {entry['slot']}: {served} calls served but "
                    f"{entry['journal_seq']} journaled and shipped"
                )
        return problems


WORKLOADS = {
    workload.name: workload
    for workload in (GateRtt, TenantSwitch, SessionChurn, DurableReplicated)
}

#: GatewayConfig field -> ``repro serve`` flag
_FLAGS = {
    "workers": "--workers",
    "max_sessions": "--max-sessions",
    "session_store_dir": "--session-store",
    "prefetch_interval": "--prefetch-interval",
    "durability_dir": "--durability-dir",
    "replicas": "--replicas",
}


def cli_flags(config: Dict[str, Any]) -> List[str]:
    """``repro serve`` flags for a workload's gateway configuration."""
    flags: List[str] = []
    for key, value in config.items():
        flags += [_FLAGS[key], str(value)]
    return flags
