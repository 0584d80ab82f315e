"""Session virtualization: park/hydrate tenant machines over live slots.

The serving layer's unit of tenancy becomes the *session* — one user's
single-tenant machine — instead of a worker machine shared by every
user routed to it.  Each worker shard owns a bounded LRU pool of live
slots holding the machines currently executing; every other tenant is
**parked**: detached from its process (cold-attach discipline), host
caches dropped, and serialized as a delta against a memoized
per-(program set, config) base image.  Tenant machines built through
the same code path place every segment at the same physical addresses,
so the sparse memory chunks of a parked tenant almost all match the
base and are stored by reference — a parked ``call_loop`` tenant costs
a few KB, not a full machine.  A parked tenant **hydrates** back into
a slot on its next call (or ahead of it, via the prefetcher), replaying
any write-ahead tail journaled after the park, and resumes with
bit-for-bit the architectural counters it parked with.

Parking is deliberately *not* checkpointing.  A durability checkpoint
(PR 4) snapshots the machine mid-service — attached, SDW associative
memory warm — so restore-then-continue is identical to never stopping.
A park instead normalizes the machine to the detached state first:
the snapshot records no attachment, hydration skips the re-attach, and
the first gate call after hydration goes through the full supervisor
attach — DBR load, cache flush, descriptor re-fetch — exactly like the
tenant's first call ever did.  That yields three properties the session
layer is built on:

* every call's metric delta is one of exactly two vectors — the
  cold-attach first-call figures or the warm fast-gate repeat figures —
  so merged counters can be cross-checked against per-tenant
  expectations in closed form;
* ``park -> hydrate -> park`` with no call in between is byte-identical
  (parking is idempotent);
* the ``fast_gate`` attach memo can never leak across a hydration — a
  hydrated machine re-fetches its descriptors on first use.

Worker shards: a session shard is one of the two worker kinds of
:class:`~repro.serve.workers.WorkerPool`.  The gateway hashes each user
onto one shard (:func:`repro.sim.fleet.stable_shard`), and each shard
runs on a one-worker executor of its own, so a tenant's machine state
always lives in exactly one process.  The shard's worker is bound by
the same initializer as a classic worker
(:func:`~repro.serve.workers.bind_worker`) and builds the shard's
:class:`SessionPool` on first use, which keeps the thread fallback (all
shards in one process, a thread each) and the process backend (one
shard per child) on the same code path.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple

from ..errors import ConfigurationError, SnapshotError
from ..sim.config import MachineConfig
from ..sim.metrics import MetricsSnapshot
from ..state.journal import JournalWriter
from ..state.recover import replay_journal
from ..state.snapshot import (
    apply_delta,
    canonical_bytes,
    decode_delta,
    delta_snapshot,
    encode_delta,
    encode_snapshot,
    publish_once,
    read_snapshot_file,
    snapshot_machine,
    write_snapshot_file,
)
from .workers import (
    GateCallEngine,
    JournaledEngine,
    stamp_result,
    worker_state,
)

#: per-tenant duplicate-suppression cache, persisted across parks — a
#: retried call id that raced a park is answered from here instead of
#: re-executing on the hydrated machine
SESSION_RECENT_CALLS = 64

#: how much of the dedup cache survives a park: a retry that races a
#: park is by definition one of the last calls before it — older
#: history cannot race the park window, and every persisted entry is
#: bytes in the parked delta
PARKED_RECENT_CALLS = 2

#: tenant machines are deliberately small: the catalog programs fit in
#: a fraction of this, and memory size is the dominant cost of both
#: machine construction and hydration
TENANT_MEMORY_WORDS = 1 << 16

#: tenants a shard's prefetcher hydrates per idle tick
PREFETCH_BATCH = 2


@dataclass(frozen=True)
class SessionConfig:
    """Shard-side session configuration (picklable: it crosses the
    process-pool boundary as an initializer argument).

    ``max_live`` bounds the live slots *per shard*; ``store_dir`` backs
    parked tenants (and their WAL tails) with files shared across
    shards and gateways — ``None`` keeps them in shard memory, which
    serves fine but loses parked tenants with the process and cannot
    hand sessions across gateways.  ``machine`` is what every tenant
    machine is built as.
    """

    max_live: int
    store_dir: Optional[str] = None
    machine: MachineConfig = field(
        default_factory=lambda: MachineConfig.serving(
            memory_words=TENANT_MEMORY_WORDS
        )
    )
    fsync_every: int = 8

    def __post_init__(self) -> None:
        if self.max_live <= 0:
            raise ConfigurationError("max_live must be positive")
        self.machine.validate()
        if self.fsync_every <= 0:
            raise ConfigurationError("fsync_every must be positive")


def _name_hash(name: str) -> str:
    """Filesystem-safe stable name for a user or base key."""
    return hashlib.sha1(name.encode("utf-8")).hexdigest()


def _slim_result(result: Dict[str, Any]) -> Dict[str, Any]:
    """A dedup-cache entry worth persisting in a parked delta.

    Host-tier counters are diagnostics of a machine incarnation that no
    longer exists once the tenant is parked, so a dedup reply served
    after a hydration carries architectural counters only — and the
    parked delta stays small.  Idempotent (slimming twice is a no-op),
    which park -> hydrate -> park byte-identity relies on.
    """
    slim = dict(result)
    if "metrics" in slim:
        slim["metrics"] = {
            name: value
            for name, value in slim["metrics"].items()
            if name in MetricsSnapshot.ARCHITECTURAL
        }
    return slim


class SessionStore:
    """Parked tenant deltas plus the base images they reference.

    In-memory by default; with ``dir`` every artifact is a file, safe
    to share across shards and gateways because each user's files are
    only ever touched by the user's current owner (consistent hashing
    gives every session exactly one owner, and a migration parks on the
    old owner before the new one hydrates).

    Base images are named by their snapshot digest, with a per-shape
    pointer file electing the shape's base; concurrent first-parkers
    may both publish a base, but deltas reference their base by digest,
    so every delta stays resolvable no matter who wins the pointer.
    A base is verified against its digest once, when it is elected or
    read; from then on the digest it is cached under is its identity,
    and parks and hydrates never re-hash it.
    """

    def __init__(self, dir: Optional[str] = None):
        self.dir = dir
        self._parked: Dict[str, bytes] = {}
        self._bases: Dict[str, Dict[str, Any]] = {}  # digest -> snapshot
        self._shape_digest: Dict[str, str] = {}  # shape key -> digest
        self._lock = threading.Lock()
        if dir:
            os.makedirs(os.path.join(dir, "parked"), exist_ok=True)
            os.makedirs(os.path.join(dir, "bases"), exist_ok=True)
            os.makedirs(os.path.join(dir, "tails"), exist_ok=True)

    # -- parked deltas ------------------------------------------------------

    def _parked_path(self, user: str) -> str:
        return os.path.join(self.dir, "parked", _name_hash(user) + ".delta")

    def put(self, user: str, blob: bytes) -> None:
        """Durably record ``user``'s parked delta (replacing any)."""
        if self.dir is None:
            with self._lock:
                self._parked[user] = blob
            return
        path = self._parked_path(user)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def get(self, user: str) -> Optional[bytes]:
        """The user's parked delta, or ``None`` if never parked."""
        if self.dir is None:
            with self._lock:
                return self._parked.get(user)
        try:
            with open(self._parked_path(user), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def parked_count(self) -> int:
        """How many parked tenants the store holds."""
        if self.dir is None:
            with self._lock:
                return len(self._parked)
        return len(os.listdir(os.path.join(self.dir, "parked")))

    # -- base images --------------------------------------------------------

    def _base_path(self, digest: str) -> str:
        return os.path.join(self.dir, "bases", digest + ".json")

    def _pointer_path(self, shape: str) -> str:
        return os.path.join(self.dir, "bases", _name_hash(shape) + ".ptr")

    def base_for_shape(
        self, shape: str, candidate: Dict[str, Any], candidate_digest: str
    ) -> Tuple[str, Dict[str, Any]]:
        """The base image for ``shape`` and its digest, electing
        ``candidate`` (whose digest the caller computed) if the shape
        has none yet."""
        with self._lock:
            digest = self._shape_digest.get(shape)
            if digest is not None:
                return digest, self._bases[digest]
            if self.dir is None:
                self._bases[candidate_digest] = candidate
                self._shape_digest[shape] = candidate_digest
                return candidate_digest, candidate
        # On-disk election: publish the candidate base, then point the
        # shape at it.  The pointer appears fully written or not at
        # all, so a loser always adopts the winner's whole digest; its
        # own published base stays on disk for any deltas already
        # referencing it.
        base_path = self._base_path(candidate_digest)
        if not os.path.exists(base_path):
            write_snapshot_file(candidate, base_path)
        digest = publish_once(
            self._pointer_path(shape), candidate_digest.encode("ascii")
        ).decode("ascii")
        base = self.base_by_digest(digest)
        with self._lock:
            self._shape_digest[shape] = digest
        return digest, base

    def base_by_digest(self, digest: str) -> Dict[str, Any]:
        """The base snapshot with ``digest`` (verified against it on
        first read, cached after)."""
        with self._lock:
            base = self._bases.get(digest)
        if base is not None:
            return base
        if self.dir is None:
            raise SnapshotError(
                f"no base image with digest {digest!r} in this store"
            )
        base = read_snapshot_file(self._base_path(digest), sha256=digest)
        with self._lock:
            self._bases[digest] = base
        return base

    # -- WAL tails ----------------------------------------------------------

    def tail_path(self, user: str, epoch: int) -> Optional[str]:
        """The user's tail journal path for ``epoch`` (``None`` when the
        store is memory-only — tails need a filesystem)."""
        if self.dir is None:
            return None
        return os.path.join(
            self.dir, "tails", f"{_name_hash(user)}.{epoch}.wal"
        )


class TenantSession:
    """One live tenant: its journaled engine plus session bookkeeping.

    The log's journal is the tenant's WAL tail for ``tail_epoch``
    (opened on the first call after admission; none for a memory-only
    store), so its ``last_seq`` counts the calls journaled since the
    tenant was last parked.
    """

    __slots__ = ("user", "log", "tail_epoch", "prefetched", "dirty")

    def __init__(
        self,
        user: str,
        engine: GateCallEngine,
        recent: Iterable[Tuple[str, Dict[str, Any]]] = (),
    ):
        self.user = user
        self.log = JournaledEngine(engine, SESSION_RECENT_CALLS, recent=recent)
        self.tail_epoch = 0
        self.prefetched = False
        #: whether the machine executed anything since admission — a
        #: clean tenant re-parks without re-normalizing, so a
        #: park -> hydrate -> park cycle with no call in between is
        #: byte-identical (no spurious cache-invalidation ticks)
        self.dirty = False

    def attach_is_warm(self) -> bool:
        """Whether the next call runs on the fast-gate warm path.

        Mirrors the memo check in :meth:`Machine.start`: this is what
        decides whether the call's metric delta will be the cold-attach
        vector or the warm repeat vector.
        """
        machine = self.log.engine.machine
        process = self.log.engine.processes.get(self.user)
        return (
            process is not None
            and machine.fast_gate
            and machine.supervisor.attached_process is process
            and machine.processor.dbr is process.dbr
        )


class SessionPool:
    """The LRU live-slot pool of one worker shard.

    Owns tenant admission (create / hydrate), LRU eviction with park,
    the per-shard slice of the parked store, prefetching, and the
    cumulative per-shard counters the gateway cross-checks.
    """

    def __init__(
        self,
        config: SessionConfig,
        store: Optional[SessionStore] = None,
        shard: int = 0,
    ):
        self.config = config
        self.store = store if store is not None else SessionStore(
            config.store_dir
        )
        self.shard = shard
        #: the name a shard's results carry, like a classic worker's
        self.worker_id = f"shard{shard}"
        #: user -> TenantSession, least-recently-used first
        self.live: "OrderedDict[str, TenantSession]" = OrderedDict()
        #: users parked by this pool, most recently parked first — the
        #: prefetcher's prediction list
        self.recently_parked: "OrderedDict[str, None]" = OrderedDict()
        self.calls = 0
        self.total = MetricsSnapshot.zero()
        self.counters: Dict[str, int] = {
            "created": 0,
            "hydrated": 0,
            "prefetch_hydrated": 0,
            "prefetch_hits": 0,
            "parks": 0,
            "evictions": 0,
            "cold_calls": 0,
            "warm_calls": 0,
            "deduplicated": 0,
            "replayed_tail_calls": 0,
            "park_delta_bytes": 0,
            "park_full_bytes": 0,
            "park_stored_bytes": 0,
        }

    # -- park ---------------------------------------------------------------

    def _shape_key(self, snap: Dict[str, Any]) -> str:
        book = snap["extra"]["engine"]
        ident = {
            "config": snap["config"],
            "stored": book["stored_paths"],
            "installed": sorted(book["installed"]),
        }
        return json.dumps(ident, sort_keys=True, separators=(",", ":"))

    def park(self, tenant: TenantSession) -> bytes:
        """Park one tenant: normalize, snapshot, delta, store.

        Returns the stored blob (the idempotence tests compare it).
        """
        log = tenant.log
        engine = log.engine
        bump_epoch = log.last_seq > 0
        epoch = tenant.tail_epoch + 1 if bump_epoch else tenant.tail_epoch
        if tenant.dirty:
            engine.machine.detach()
            engine.machine.processor.drop_host_caches()
        extra = {
            "engine": engine.bookkeeping(),
            "session": {
                "user": tenant.user,
                "recent": [
                    [call_id, _slim_result(result)]
                    for call_id, result in list(log.recent.items())[
                        -PARKED_RECENT_CALLS:
                    ]
                ],
                "tail_epoch": epoch,
            },
        }
        # the engine's cumulative host-tier counts die with the live
        # incarnation (like the caches they describe); architectural
        # totals carry across the park
        extra["engine"]["counters"] = {
            name: value
            for name, value in extra["engine"]["counters"].items()
            if name in MetricsSnapshot.ARCHITECTURAL
        }
        snap = snapshot_machine(engine.machine, extra=extra)
        # the park's one full encoding: its digest names the snapshot
        # in the delta, its length is the full size the ratio compares
        body, digest = encode_snapshot(snap)
        base_digest, base = self.store.base_for_shape(
            self._shape_key(snap), snap, digest
        )
        delta = delta_snapshot(snap, digest, base, base_digest)
        blob = encode_delta(delta, compress=True)
        self.store.put(tenant.user, blob)
        if log.journal is not None:
            log.journal.close()
            log.journal = None
        if bump_epoch:
            # the parked image includes every journaled call: fence the
            # old tail off (it must never replay on top of this park)
            old = self.store.tail_path(tenant.user, tenant.tail_epoch)
            if old is not None:
                try:
                    os.unlink(old)
                except FileNotFoundError:
                    pass
        tenant.tail_epoch = epoch
        log.last_seq = 0
        self.counters["parks"] += 1
        self.counters["park_delta_bytes"] += len(canonical_bytes(delta))
        self.counters["park_full_bytes"] += len(body)
        self.counters["park_stored_bytes"] += len(blob)
        self.recently_parked[tenant.user] = None
        self.recently_parked.move_to_end(tenant.user, last=False)
        while len(self.recently_parked) > 4 * self.config.max_live:
            self.recently_parked.popitem(last=True)
        return blob

    def park_user(self, user: str) -> bool:
        """Park ``user`` now if live (the migration handoff path)."""
        tenant = self.live.pop(user, None)
        if tenant is None:
            return False
        self.park(tenant)
        return True

    def park_all(self) -> int:
        """Park every live tenant (drain)."""
        parked = 0
        while self.live:
            _, tenant = self.live.popitem(last=False)
            self.park(tenant)
            parked += 1
        return parked

    # -- admit --------------------------------------------------------------

    def _hydrate(self, user: str) -> Optional[TenantSession]:
        blob = self.store.get(user)
        if blob is None:
            return None
        delta = decode_delta(blob)
        base_digest = delta["base_sha256"]
        # the hydrate's one full encoding is apply_delta's hash of the
        # reconstruction; the base was verified when the store loaded it
        snap = apply_delta(
            self.store.base_by_digest(base_digest), base_digest, delta
        )
        # the store may outlive (or be shared with) a gateway serving
        # another machine: never run a tenant parked on a different one
        self.config.machine.require_architecture(
            MachineConfig.from_dict(snap["config"]), f"parked tenant {user!r}"
        )
        session = snap["extra"].get("session", {})
        tenant = TenantSession(
            user,
            GateCallEngine.from_snapshot(snap),
            recent=session.get("recent", []),
        )
        tenant.tail_epoch = int(session.get("tail_epoch", 0))
        tail_path = self.store.tail_path(user, tenant.tail_epoch)
        if tail_path is not None and os.path.exists(tail_path):
            # the worker died after journaling calls it never folded
            # into a park: replay them through the same primitive
            report = replay_journal(tail_path, tenant.log)
            tenant.dirty = report.replayed > 0
            self.counters["replayed_tail_calls"] += report.replayed
        return tenant

    def _evict_to_fit(self) -> None:
        while len(self.live) >= self.config.max_live:
            _, victim = self.live.popitem(last=False)
            self.park(victim)
            self.counters["evictions"] += 1

    def _admit(self, user: str, prefetch: bool = False) -> Tuple[
        Optional[TenantSession], str
    ]:
        """Bring ``user`` live; returns (tenant, "hydrated"|"created")."""
        self._evict_to_fit()
        tenant = self._hydrate(user)
        how = "hydrated"
        if tenant is None:
            if prefetch:
                return None, "absent"
            tenant = TenantSession(
                user, GateCallEngine(config=self.config.machine)
            )
            how = "created"
        self.live[user] = tenant
        self.counters[
            "prefetch_hydrated" if prefetch and how == "hydrated" else how
        ] += 1
        return tenant, how

    def prefetch(self, limit: Optional[int] = None) -> int:
        """Hydrate up to ``limit`` predicted-next tenants into free slots.

        Prediction is most-recently-parked first — the tenants likeliest
        to be revisited.  Only free slots are used: prefetching never
        evicts live work.
        """
        budget = PREFETCH_BATCH if limit is None else limit
        hydrated = 0
        candidates = [
            user for user in self.recently_parked if user not in self.live
        ]
        for user in candidates:
            if hydrated >= budget or len(self.live) >= self.config.max_live:
                break
            tenant, how = self._admit(user, prefetch=True)
            if tenant is None:
                self.recently_parked.pop(user, None)
                continue
            tenant.prefetched = True
            # freshly prefetched tenants sit at the LRU head so real
            # traffic evicts them before anything a call touched
            self.live.move_to_end(user, last=False)
            hydrated += 1
        return hydrated

    # -- execute ------------------------------------------------------------

    def _ensure_tail(self, tenant: TenantSession, call_id: Any) -> None:
        # a call the dedup cache answers journals nothing: open no tail
        if tenant.log.journal is None and call_id not in tenant.log.recent:
            path = self.store.tail_path(tenant.user, tenant.tail_epoch)
            if path is not None:
                tenant.log.journal = JournalWriter(
                    path, fsync_every=self.config.fsync_every
                )

    def execute(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Run one gate call against the job's tenant session."""
        user = job["user"]
        tenant = self.live.get(user)
        admitted = "live"
        if tenant is None:
            tenant, admitted = self._admit(user)
        else:
            self.live.move_to_end(user)
        prefetch_hit = tenant.prefetched
        if prefetch_hit:
            tenant.prefetched = False
            self.counters["prefetch_hits"] += 1
        warm = tenant.attach_is_warm()
        self._ensure_tail(tenant, job.get("call_id"))
        result = tenant.log.execute(job)
        if result.get("deduplicated"):
            self.counters["deduplicated"] += 1
        else:
            self.counters["warm_calls" if warm else "cold_calls"] += 1
            tenant.dirty = True
            if "error" not in result:
                self.calls += 1
                self.total = self.total.plus(
                    MetricsSnapshot.from_dict(result["metrics"])
                )
        out = dict(result)
        out["session"] = {
            "cold": not warm,
            "admitted": admitted,
            "prefetch_hit": prefetch_hit,
        }
        return out

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Shard-level session figures for the gateway's ``stats`` verb."""
        delta = self.counters["park_delta_bytes"]
        full = self.counters["park_full_bytes"]
        return {
            "shard": self.shard,
            "live": len(self.live),
            "max_live": self.config.max_live,
            "parked": self.store.parked_count(),
            "park_size_ratio": round(delta / full, 6) if full else None,
            **self.counters,
        }


# ---------------------------------------------------------------------------
# worker-side entry points (the shard executors call these)
# ---------------------------------------------------------------------------


def execute_session_call(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one gate call on the job's shard pool.

    Same result contract as :func:`repro.serve.workers
    .execute_gate_call`, plus a ``session`` block (``cold`` — this call
    paid the cold-attach metric vector; ``admitted`` — how the tenant
    reached its slot; ``prefetch_hit``).  ``worker_calls`` and
    ``worker_total`` are the *pool's* cumulative figures: they keep
    growing across evictions and hydrations, so the gateway's
    cross-check spans the whole shard, not one tenant.
    """
    pool = worker_state()
    out = pool.execute(job)
    return stamp_result(
        out,
        pool.worker_id,
        int(job.get("epoch", 0)),
        pool.live[job["user"]].log.engine.machine,
        pool.calls,
        pool.total,
    )


def session_control(op: Dict[str, Any]) -> Dict[str, Any]:
    """Shard maintenance operations (stats / park / prefetch / drain)."""
    pool = worker_state()
    kind = op.get("op")
    if kind == "stats":
        return pool.stats()
    if kind == "park":
        return {"parked": pool.park_user(op["user"])}
    if kind == "prefetch":
        return {"hydrated": pool.prefetch(op.get("limit"))}
    if kind == "park_all":
        return {"parked": pool.park_all()}
    raise ConfigurationError(f"unknown session op {kind!r}")
