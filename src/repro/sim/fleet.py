"""The sharded fleet driver: independent machines across host workers.

The simulator is single-threaded by construction — one ``Machine`` is
one processor and one memory.  But benchmark sweeps and multi-user
scenario runs are embarrassingly parallel: every shard builds its *own*
machine, runs its own workload, and reports a
:class:`~repro.sim.metrics.MetricsSnapshot`.  ``run_fleet`` fans those
shards across host worker processes (``concurrent.futures``) and merges
the per-shard snapshots into fleet totals with
:meth:`MetricsSnapshot.sum_of`, so the merged figures equal what one
machine would have accumulated running the shards back to back.

A workload is any picklable callable ``workload(shard: int) ->
(payload, MetricsSnapshot)`` — a module-level function or a
``functools.partial`` over one (closures and lambdas do not survive the
pickle boundary of the process backend).  :func:`call_loop_shard` is
the reference workload: the Figure 8 cross-ring call loop the
benchmarks use.

Backends:

``"process"``
    one OS process per worker (the default) — real parallelism, since
    each shard runs its own interpreter;
``"thread"``
    one thread per worker — no host parallelism for this CPU-bound
    simulator (the GIL), but exercises the same fan-out/merge paths
    without any pickling requirement;
``"serial"``
    run shards in the calling thread, in order — deterministic
    debugging, and the fallback for hosts where process pools are
    unavailable (sandboxes without ``fork``/semaphores).
"""

from __future__ import annotations

import hashlib
import time
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError, FleetWorkerError
from .metrics import MetricsSnapshot

#: A workload maps a shard index to (payload, metrics).
Workload = Callable[[int], Tuple[Any, MetricsSnapshot]]

BACKENDS = ("process", "thread", "serial")


def stable_hash(key: str) -> int:
    """A process-stable 64-bit hash of ``key``.

    Python's builtin ``hash`` is salted per interpreter
    (``PYTHONHASHSEED``), which would route the same session to
    different shards across gateway restarts; sha1 is identical
    everywhere.
    """
    return int.from_bytes(
        hashlib.sha1(key.encode("utf-8")).digest()[:8], "big"
    )


def stable_shard(key: str, shards: int) -> int:
    """Deterministically map ``key`` onto ``[0, shards)``."""
    if shards <= 0:
        raise ConfigurationError("shards must be positive")
    return stable_hash(key) % shards


class ConsistentHashRing:
    """Consistent hashing of session keys onto named nodes.

    Each node owns ``vnodes`` points on a 64-bit ring; a key belongs to
    the first node point at or after its own hash (wrapping).  The
    property the router relies on: adding a node moves only the keys the
    *new* node now owns (~K/N of them) and removing a node moves only
    the departed node's keys — everything else keeps its owner, so a
    rebalance migrates the minimum number of parked sessions.
    """

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = 64):
        if vnodes <= 0:
            raise ConfigurationError("vnodes must be positive")
        self.vnodes = vnodes
        self._nodes: set = set()
        self._points: List[Tuple[int, str]] = []
        self._hashes: List[int] = []
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> List[str]:
        """The member nodes, sorted."""
        return sorted(self._nodes)

    def _rebuild(self) -> None:
        points = [
            (stable_hash(f"{node}#{index}"), node)
            for node in self._nodes
            for index in range(self.vnodes)
        ]
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]

    def add(self, node: str) -> None:
        """Add a node (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        self._rebuild()

    def remove(self, node: str) -> None:
        """Remove a node (idempotent)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._rebuild()

    def owner(self, key: str) -> str:
        """The node that owns ``key``; raises when the ring is empty."""
        if not self._points:
            raise ConfigurationError("consistent-hash ring has no nodes")
        index = bisect_right(self._hashes, stable_hash(key))
        if index == len(self._points):
            index = 0
        return self._points[index][1]


@dataclass(frozen=True)
class ShardResult:
    """What one shard produced."""

    shard: int
    payload: Any
    metrics: MetricsSnapshot
    wall_seconds: float


@dataclass(frozen=True)
class FleetResult:
    """All shard results plus the merged fleet totals."""

    shards: List[ShardResult] = field(default_factory=list)
    merged: MetricsSnapshot = field(default_factory=MetricsSnapshot.zero)
    wall_seconds: float = 0.0
    workers: int = 1
    backend: str = "serial"

    @property
    def payloads(self) -> List[Any]:
        """Each shard's payload, in shard order."""
        return [shard.payload for shard in self.shards]

    def verify_merge(self) -> bool:
        """True when ``merged`` equals the sum of per-shard metrics.

        Cheap self-check the benchmarks assert on: snapshot arithmetic
        is exact integer addition, so this must hold identically.
        """
        return self.merged == MetricsSnapshot.sum_of(
            shard.metrics for shard in self.shards
        )


def _run_shard(workload: Workload, shard: int) -> ShardResult:
    """Execute one shard (in whatever worker the backend chose).

    A raising workload is re-raised as
    :class:`~repro.errors.FleetWorkerError` with the shard index
    attached, so the failing sweep point is identifiable even after the
    exception crosses the process-pool pickle boundary.
    """
    started = time.perf_counter()
    try:
        payload, metrics = workload(shard)
    except Exception as exc:
        raise FleetWorkerError(
            shard, f"{type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(metrics, MetricsSnapshot):
        raise ConfigurationError(
            f"workload returned {type(metrics).__name__} for shard "
            f"{shard}; expected (payload, MetricsSnapshot)"
        )
    return ShardResult(
        shard=shard,
        payload=payload,
        metrics=metrics,
        wall_seconds=time.perf_counter() - started,
    )


def run_fleet(
    workload: Workload,
    shards: int,
    workers: Optional[int] = None,
    backend: str = "process",
) -> FleetResult:
    """Run ``shards`` independent workload instances and merge metrics.

    ``workers`` caps concurrent workers (default: one per shard).  The
    process backend requires ``workload`` to be picklable; on hosts
    where a process pool cannot even be created the call falls back to
    the serial backend rather than failing the run — the results are
    identical, only the wall-clock parallelism is lost.
    """
    if shards <= 0:
        raise ConfigurationError("shards must be positive")
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown fleet backend {backend!r}; expected one of {BACKENDS}"
        )
    if workers is None:
        workers = shards
    if workers <= 0:
        raise ConfigurationError("workers must be positive")
    workers = min(workers, shards)

    started = time.perf_counter()
    if backend == "serial" or workers == 1:
        backend = "serial"
        results = [_run_shard(workload, shard) for shard in range(shards)]
    else:
        pool_cls = (
            ProcessPoolExecutor if backend == "process" else ThreadPoolExecutor
        )
        try:
            with pool_cls(max_workers=workers) as pool:
                results = list(
                    pool.map(_run_shard, [workload] * shards, range(shards))
                )
        except (OSError, PermissionError) as exc:
            if backend != "process":
                raise
            # Hosts without working process primitives (restricted
            # sandboxes): same results, serially.
            backend = f"serial (process pool unavailable: {exc})"
            results = [_run_shard(workload, shard) for shard in range(shards)]
    elapsed = time.perf_counter() - started

    return FleetResult(
        shards=results,
        merged=MetricsSnapshot.sum_of(result.metrics for result in results),
        wall_seconds=elapsed,
        workers=workers,
        backend=backend,
    )


# ---------------------------------------------------------------------------
# reference workloads (module-level: picklable for the process backend)
# ---------------------------------------------------------------------------


def call_loop_shard(
    shard: int,
    count: int = 500,
    target_ring: int = 0,
    tier: Optional[str] = None,
) -> Tuple[dict, MetricsSnapshot]:
    """One shard of the Figure 8 cross-ring call loop.

    Builds a fresh machine, runs ``count`` call/return pairs against a
    ring-``target_ring`` gate, and returns the headline figures plus
    the full metrics snapshot.  Use ``functools.partial`` to vary
    ``count`` or the knobs per sweep point.
    """
    from ..core.acl import AclEntry, RingBracketSpec
    from .machine import Machine

    machine = Machine(services=False, tier=tier)
    user = machine.add_user(f"shard{shard}")
    spec = (
        RingBracketSpec.procedure(4)
        if target_ring == 4
        else RingBracketSpec.procedure(target_ring, callable_from=5)
    )
    machine.store_program(
        ">fleet>callee",
        """
        .seg    callee
        .gates  1
entry:: return  pr4|0
""",
        acl=[AclEntry("*", spec)],
    )
    machine.store_program(
        ">fleet>caller",
        f"""
        .seg    caller
main::  lda     ={count}
loop:   eap4    back
        call    l_callee,*
back:   sba     =1
        tnz     loop
        halt
l_callee: .its  callee$entry
""",
        acl=[AclEntry("*", RingBracketSpec.procedure(4))],
    )
    process = machine.login(user)
    machine.initiate(process, ">fleet>caller")
    machine.initiate(process, ">fleet>callee")
    result = machine.run(process, "caller$main", ring=4)
    payload = {
        "shard": shard,
        "halted": result.halted,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ring_crossings": result.ring_crossings,
    }
    return payload, result.metrics
