"""Persistent-machine workers behind a ``concurrent.futures`` pool.

The fleet driver (:mod:`repro.sim.fleet`) builds a fresh machine per
shard — right for batch sweeps, far too slow for serving (machine
construction costs more than a small gate call).  The gateway instead
keeps machines alive in the workers of one :class:`WorkerPool`, whose
workers come in two kinds that differ only in tenancy:

* a **classic** worker runs one shared machine, the paper's
  multi-process processor: every user routed to it gets a process on
  that machine, and any worker of the pool takes any call;
* a **session shard** runs private tenant machines, kept live or parked
  by its :class:`~repro.serve.sessions.SessionPool`; a session pool
  gives each shard an executor of its own, so a tenant lives in
  exactly one process.

One initializer, :func:`bind_worker`, binds each worker to its kind in
a ``threading.local``: a process-backend worker runs tasks on its
single main thread, a thread-backend worker gets its own state per
pool thread.  The worker builds that state on first use.  Jobs and
results are plain dicts, so the process boundary is one pickle of small
ints and strings either way.

The machine-facing half lives in :class:`GateCallEngine` — a machine
plus its program/process caches and cumulative counters, with no pool
plumbing — and :class:`JournaledEngine` wraps it with the dedup cache,
journal position and checkpointing.  That primitive is the only thing
that runs calls: both worker kinds, the replicas
(:mod:`repro.state.replication`) and the replayer
(:mod:`repro.state.recover`) all go through it, so a live call and its
replay cannot drift apart.  Every engine is built from one
:class:`~repro.sim.config.MachineConfig`, handed to the pool and from
there to each worker through the initializer.

With a :class:`DurabilityConfig`, each classic worker claims a *slot*
— a directory holding its machine's config record, its write-ahead
journal and periodic snapshots — and every executed call is journaled
before the result is returned.  A replacement worker that claims the
slot of a crashed one restores the snapshot, replays the journal tail,
and resumes with the dead worker's machine state and counters intact;
the ``generation`` counter in each result tells the gateway a restart
happened so it can re-baseline its cross-check sums.

Every result carries the per-call :class:`MetricsSnapshot` delta *and*
the worker's own cumulative totals.  The gateway sums the deltas per
worker; the ``stats`` verb then cross-checks its sums against what the
workers themselves counted — the same merge-exactness contract the
fleet's ``verify_merge`` pins, held across a network boundary.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..cpu.faults import Fault
from ..errors import (
    ConfigurationError,
    JournalError,
    MemoryExhaustedError,
    ReproError,
)
from ..sim.config import MachineConfig, profile_of
from ..sim.machine import Machine
from ..sim.metrics import MetricsSnapshot
from ..state.journal import JournalWriter
from ..state.recover import (
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    recover_slot,
    slot_config,
    slot_path,
)
from ..state.replication import check_replica_result
from ..state.snapshot import snapshot_machine, write_snapshot_file
from .catalog import build_program
from .protocol import ErrorCode

BACKENDS = ("process", "thread")

#: the machine every engine is built as unless told otherwise
SERVING_MACHINE = MachineConfig.serving()

#: per-call step cap: generous for any catalog program, small enough
#: that a runaway variant cannot wedge a worker for long
MAX_STEPS_PER_CALL = 2_000_000

#: bound on the per-worker duplicate-suppression cache; a retried call
#: older than this many calls re-executes instead (harmless — catalog
#: programs are idempotent per invocation).  A replica keeps the same
#: bound, so a promoted replica dedups as much as the worker it replaces.
RECENT_CALLS = 512

_LOCAL = threading.local()


def stamp_result(
    out: Dict[str, Any],
    worker: str,
    generation: int,
    machine: Machine,
    calls: int,
    total: MetricsSnapshot,
) -> Dict[str, Any]:
    """Name who answered a call — the worker, its incarnation and the
    machine that ran it — and attach the cumulative figures the
    gateway cross-checks.  Both worker kinds answer through this."""
    out["worker"] = worker
    out["pid"] = os.getpid()
    out["generation"] = generation
    out["machine_profile"] = profile_of(machine.processor.hardware_rings)
    out["hardening"] = list(machine.hardening.enabled_flags())
    out["worker_calls"] = calls
    out["worker_total"] = total.architectural()
    return out


class GateCallEngine:
    """One machine plus its call caches and cumulative counters.

    Everything a gate call touches and nothing the pool owns.  Only
    :class:`JournaledEngine` calls :meth:`run_job`, for live calls and
    journal replay alike, which is what makes ``snapshot + replay`` land
    on the same machine state the crashed worker had.
    """

    def __init__(
        self,
        machine: Optional[Machine] = None,
        config: MachineConfig = SERVING_MACHINE,
    ):
        self.machine = (
            machine if machine is not None else Machine.from_config(config)
        )
        self.processes: Dict[str, Any] = {}  # username -> Process
        self.installed: Dict[str, str] = {}  # variant key -> entry ref
        self.stored_paths: set = set()
        self.initiated: set = set()  # (username, variant key)
        self._images: Dict[str, Any] = {}  # build_program memo
        self.calls = 0
        self.total = MetricsSnapshot.zero()

    def process_for(self, user: str):
        """The user's logged-in process, created on first reference."""
        process = self.processes.get(user)
        if process is None:
            users = self.machine.users
            # a login that ran out of memory left the user registered:
            # the retry logs the same user in again
            registered = (
                users.lookup(user) if user in users
                else self.machine.add_user(user)
            )
            process = self.machine.login(registered)
            self.processes[user] = process
        return process

    def entry_for(self, program: str, args: Dict[str, Any], user: str) -> str:
        """Install (at most once) and return the variant's entry ref.

        Segment storage is per machine; initiation is per process —
        ``self.initiated`` tracks it per (user, path), because variants
        can share segments (every ``call_loop`` variant with the same
        target ring reuses one gate segment) and a process may initiate
        each name only once.

        ``build_program`` is pure in ``(program, args)``, so repeat
        calls reuse the memoized image — part of the fast-gate path:
        a repeat (user, gate) call does no assembly work at all.
        """
        memo_key = program + "\0" + json.dumps(args, sort_keys=True)
        image = self._images.get(memo_key)
        if image is None:
            image = self._images[memo_key] = build_program(program, args)
        process = self.process_for(user)
        if image.key not in self.installed:
            for path, source, acl in image.segments:
                if path not in self.stored_paths:
                    self.machine.store_program(path, source, acl=list(acl))
                    self.stored_paths.add(path)
            for path, values, acl in image.data_segments:
                if path not in self.stored_paths:
                    self.machine.store_data(path, list(values), acl=list(acl))
                    self.stored_paths.add(path)
            for name, domain in image.domains:
                # no-op unless this machine runs ring_domains; done
                # before any initiation so the binding is in force the
                # first time a tier validates the segment
                self.machine.assign_domain(name, domain)
            self.installed[image.key] = image.entry
        for path, _, _ in image.segments + image.data_segments:
            if (user, path) not in self.initiated:
                self.machine.initiate(process, path)
                self.initiated.add((user, path))
        return self.installed[image.key]

    def run_job(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Run one gate call; returns the core result dict.

        ``job`` carries ``user``, ``ring``, ``program``, ``args``.  The
        result holds either ``payload`` + ``metrics`` (success) or
        ``error`` + ``detail`` (a simulated fault, bad arguments that
        slipped past the gateway's early validation, or ``internal``
        when the machine has run out of physical memory).  Only successful
        calls touch the cumulative counters, on both sides, so the
        gateway/worker cross-check stays exact.  Failed calls can still
        move machine state (partial execution before the fault), which
        is why the journal records them too.
        """
        try:
            entry = self.entry_for(job["program"], job["args"], job["user"])
            process = self.process_for(job["user"])
            result = self.machine.run(
                process, entry, ring=job["ring"], max_steps=MAX_STEPS_PER_CALL
            )
        except Fault as exc:
            return {"error": ErrorCode.MACHINE_FAULT, "detail": str(exc)}
        except KeyError as exc:
            return {
                "error": ErrorCode.UNKNOWN_PROGRAM,
                "detail": f"unknown program {exc}",
            }
        except MemoryExhaustedError as exc:
            # the machine is full, which no request causes
            return {"error": ErrorCode.INTERNAL, "detail": str(exc)}
        except ReproError as exc:
            return {"error": ErrorCode.BAD_REQUEST, "detail": str(exc)}
        metrics = result.metrics
        self.calls += 1
        self.total = self.total.plus(metrics)
        return {
            "payload": {
                "halted": result.halted,
                "a": result.a,
                "q": result.q,
                "ring": result.ring,
                "instructions": result.instructions,
                "cycles": result.cycles,
                "ring_crossings": result.ring_crossings,
            },
            "metrics": metrics.as_dict(),
        }

    def bookkeeping(self) -> Dict[str, Any]:
        """The engine's non-machine state, JSON-shaped for a snapshot."""
        return {
            "installed": dict(self.installed),
            "stored_paths": sorted(self.stored_paths),
            "initiated": sorted(list(pair) for pair in self.initiated),
            "calls": self.calls,
            "counters": self.total.as_dict(),
        }

    @classmethod
    def from_snapshot(
        cls,
        snap: Dict[str, Any],
        tier: Optional[str] = None,
        fast_gate: Optional[bool] = None,
    ) -> "GateCallEngine":
        """Rebuild an engine from a machine snapshot's ``extra`` block.

        ``tier`` and ``fast_gate`` are forwarded to
        :func:`~repro.state.snapshot.restore_machine` — host-tier
        overrides only, architecturally invisible by contract.
        """
        from ..state.snapshot import restore_machine

        machine = restore_machine(snap, tier=tier, fast_gate=fast_gate)
        engine = cls(machine)
        engine.processes = {
            p.user.name: p for p in machine.supervisor.processes
        }
        book = snap.get("extra", {}).get("engine")
        if book:
            engine.installed = dict(book["installed"])
            engine.stored_paths = set(book["stored_paths"])
            engine.initiated = {tuple(pair) for pair in book["initiated"]}
            engine.calls = int(book["calls"])
            engine.total = MetricsSnapshot.from_dict(book["counters"])
        return engine


class JournaledEngine:
    """An engine plus the history that makes its calls exactly-once.

    Every path that moves a served machine forward goes through one of
    three operations, so a live call and its replay cannot drift apart:

    * :meth:`execute` — a live call: a ``call_id`` seen before answers
      from the dedup cache, anything else runs, is journaled (when a
      journal is attached) and remembered;
    * :meth:`apply` — a journal record: skipped if at or below
      ``last_seq``, refused on a gap, run, optionally verified against
      the journaled result, which is what gets remembered;
    * :meth:`checkpoint` — fold the history into a snapshot file.

    Workers, session tenants, replicas and the replayer differ only in
    the cache bound, the journal, and whether they verify.
    """

    def __init__(
        self,
        engine: GateCallEngine,
        recent_bound: int,
        journal: Optional[JournalWriter] = None,
        last_seq: int = 0,
        recent: Iterable[Tuple[str, Dict[str, Any]]] = (),
    ):
        self.engine = engine
        self.recent_bound = recent_bound
        self.journal = journal
        self.last_seq = last_seq
        #: call_id -> result, oldest first
        self.recent: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        for call_id, result in recent:
            self._remember(call_id, result)

    def _remember(
        self, call_id: Optional[str], result: Dict[str, Any]
    ) -> None:
        if call_id is None:
            return
        self.recent[call_id] = result
        if len(self.recent) > self.recent_bound:
            self.recent.popitem(last=False)

    def execute(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Run (or answer from the dedup cache) one live call.

        A deduplicated answer is a copy marked ``deduplicated: true``.
        """
        call_id = job.get("call_id")
        cached = self.recent.get(call_id)
        if cached is not None:
            return dict(cached, deduplicated=True)
        result = self.engine.run_job(job)
        if self.journal is not None:
            self.last_seq = self.journal.append(
                {
                    "call_id": call_id,
                    "job": {
                        "user": job["user"],
                        "ring": job["ring"],
                        "program": job["program"],
                        "args": job["args"],
                    },
                    "result": result,
                }
            )
        self._remember(call_id, result)
        return result

    def apply(self, record: Dict[str, Any], verify: bool = False) -> bool:
        """Apply one journal record; returns whether it advanced state.

        ``verify`` holds the replayed result to the replica contract
        (:func:`~repro.state.replication.check_replica_result`).
        """
        seq = record.get("seq")
        if not isinstance(seq, int):
            raise JournalError(f"journal record has no seq: {record!r}")
        if seq <= self.last_seq:
            return False
        if seq != self.last_seq + 1:
            raise JournalError(
                f"journal gap: got seq {seq}, expected {self.last_seq + 1}"
            )
        result = self.engine.run_job(record["job"])
        if verify:
            check_replica_result(seq, record["result"], result)
        # the journaled result is authoritative: it is what the caller
        # was (or would have been) told
        self._remember(record.get("call_id"), record["result"])
        self.last_seq = seq
        return True

    def checkpoint(self, path: str, extra: Dict[str, Any]) -> str:
        """Snapshot the engine and its history to ``path``; returns the
        snapshot digest.  The previous file survives as ``.prev``.

        The journal is synced first — a snapshot must never claim a
        ``last_seq`` the journal could still lose.  Host caches are
        dropped at the boundary: a restored successor starts with cold
        host tiers (snapshots don't serialize translations, superblocks
        or traces), so the live machine goes cold at the same point and
        live and replayed host diagnostics stay equal.  Architectural
        counters are unaffected.
        """
        if self.journal is not None:
            self.journal.sync()
        self.engine.machine.processor.drop_host_caches()
        snap = snapshot_machine(
            self.engine.machine,
            extra={
                "engine": self.engine.bookkeeping(),
                "last_seq": self.last_seq,
                "recent_calls": [list(item) for item in self.recent.items()],
                **extra,
            },
        )
        if os.path.exists(path):
            os.replace(path, path + ".prev")
        return write_snapshot_file(snap, path)


@dataclass(frozen=True)
class DurabilityConfig:
    """How workers persist their state (picklable — it crosses the
    process-pool boundary as an initializer argument).

    ``slots`` bounds how many concurrent workers may claim state
    directories under ``dir``; ``checkpoint_interval`` is in executed
    calls; ``fsync_every`` batches journal fsyncs (a crash can lose at
    most ``fsync_every - 1`` journaled calls, which the gateway's
    at-least-once retry absorbs).
    """

    dir: str
    slots: int
    checkpoint_interval: int = 64
    fsync_every: int = 8

    def __post_init__(self) -> None:
        if self.slots <= 0:
            raise ConfigurationError("durability slots must be positive")
        if self.checkpoint_interval <= 0:
            raise ConfigurationError("checkpoint_interval must be positive")
        if self.fsync_every <= 0:
            raise ConfigurationError("fsync_every must be positive")


#: slot indices owned by live workers of *this* process.  The claim
#: files carry only a pid, which cannot tell one thread (or pool
#: generation) of our own process from another — this set can.
_LIVE_SLOTS: set = set()
_LIVE_LOCK = threading.Lock()


def bind_worker(kind: Any, shard: int, child: bool = False) -> None:
    """Executor initializer: this worker serves ``kind`` as ``shard``.

    ``kind`` is a classic worker's ``(machine, durability)`` pair or a
    session shard's :class:`~repro.serve.sessions.SessionConfig`, both
    picklable: a process-pool child receives them as initializer
    arguments.  The worker builds its state from the kind on first use
    (:func:`worker_state`): the pool's probe, or the first call.

    ``child`` marks a process-pool child.  A forked child inherits the
    parent's module state wholesale, including the parent's live-slot
    set, which names claims the child does not hold; it starts with an
    empty one.  A thread worker keeps the set, since its sibling
    threads' claims are in it.  Either way the worker drops any state
    its thread already had (a forked child's would name the parent's
    pid and carry the parent's history), so it builds its own.
    """
    _LOCAL.kind = kind
    _LOCAL.shard = shard
    _LOCAL.state = None
    if child:
        with _LIVE_LOCK:
            _LIVE_SLOTS.clear()


def release_live_slots() -> None:
    """Forget this process's slot claims (pool fully shut down).

    Thread-backend pools leave claim files naming our own (live) pid;
    without this, a successor pool in the same process could never
    reclaim them.  Call only after the executor has drained.
    """
    with _LIVE_LOCK:
        _LIVE_SLOTS.clear()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _try_claim(slot: int, slot_dir: str) -> bool:
    """Claim one slot directory, stealing it from a dead owner if needed.

    The claim file holds the owner's pid.  ``O_CREAT | O_EXCL`` makes
    creation race-free; a steal renames the stale claim to a unique name
    first, so exactly one of several would-be stealers wins the rename
    and proceeds to the exclusive create.
    """
    claim = os.path.join(slot_dir, "claim")
    with _LIVE_LOCK:
        if slot in _LIVE_SLOTS:
            return False
        try:
            fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                with open(claim, "r") as handle:
                    owner = int(handle.read().strip() or "0")
            except (OSError, ValueError):
                owner = 0
            if owner and owner != os.getpid() and _pid_alive(owner):
                return False
            # dead owner, or a stale claim left by an earlier pool of
            # our own process: steal it
            stale = f"{claim}.stale-{os.getpid()}-{threading.get_ident()}"
            try:
                os.rename(claim, stale)
            except OSError:
                return False  # another stealer won
            os.unlink(stale)
            try:
                fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False
        with os.fdopen(fd, "w") as handle:
            handle.write(str(os.getpid()))
            handle.flush()
            os.fsync(handle.fileno())
        _LIVE_SLOTS.add(slot)
        return True


def _claim_slot(config: DurabilityConfig) -> Tuple[int, str]:
    """Claim any free slot, waiting briefly for one to open up.

    The wait covers the recovery window where a crashed worker's pid
    has not yet been reaped while its replacement is already starting.
    """
    deadline = time.monotonic() + 10.0
    while True:
        for slot in range(config.slots):
            slot_dir = slot_path(config.dir, slot)
            os.makedirs(slot_dir, exist_ok=True)
            if _try_claim(slot, slot_dir):
                return slot, slot_dir
        if time.monotonic() >= deadline:
            raise ConfigurationError(
                f"no free durability slot under {config.dir!r} "
                f"(all {config.slots} claimed by live processes)"
            )
        time.sleep(0.1)


def _bump_generation(slot_dir: str) -> int:
    """Count this claim of the slot; 1 on a fresh slot directory."""
    path = os.path.join(slot_dir, "generation")
    try:
        with open(path, "r") as handle:
            generation = int(handle.read().strip() or "0")
    except (OSError, ValueError):
        generation = 0
    generation += 1
    with open(path, "w") as handle:
        handle.write(str(generation))
        handle.flush()
        os.fsync(handle.fileno())
    return generation


class _WorkerState:
    """One worker's engine plus (optionally) its durability plumbing."""

    def __init__(
        self,
        machine: MachineConfig,
        config: Optional[DurabilityConfig] = None,
    ) -> None:
        self.durability = config
        self.calls_since_checkpoint = 0
        if config is None:
            self.log = JournaledEngine(
                GateCallEngine(config=machine), RECENT_CALLS
            )
            self.worker_id = f"pid{os.getpid()}-t{threading.get_ident()}"
            self.slot: Optional[int] = None
            self.slot_dir = ""
            self.generation = 0
        else:
            self.slot, self.slot_dir = _claim_slot(config)
            self.worker_id = f"slot{self.slot}"
            self.generation = _bump_generation(self.slot_dir)
            recovery = recover_slot(self.slot_dir, config=machine)
            self.log = recovery.log
            self.log.journal = JournalWriter(
                os.path.join(self.slot_dir, JOURNAL_NAME),
                fsync_every=config.fsync_every,
            )
            # A clean pool shutdown must not lose acknowledged calls
            # still waiting in the journal's fsync batch: sync the
            # journal when this state is dropped, or when a pool child
            # exits (multiprocessing runs exit finalizers; a plain
            # exit of the child would discard the write buffer).
            multiprocessing.util.Finalize(
                self, self.log.journal.close, exitpriority=0
            )
            if recovery.replayed:
                # the journal tail beyond the last snapshot was
                # replayed; fold the recovered state into a fresh
                # checkpoint so the next crash replays from here instead
                self._checkpoint()
        self.engine = self.log.engine
        self.journal = self.log.journal

    def _checkpoint(self) -> None:
        self.log.checkpoint(
            os.path.join(self.slot_dir, SNAPSHOT_NAME),
            {"generation": self.generation},
        )
        self.calls_since_checkpoint = 0

    def execute(self, job: Dict[str, Any]) -> Dict[str, Any]:
        result = self.log.execute(job)
        if self.journal is not None and not result.get("deduplicated"):
            self.calls_since_checkpoint += 1
            if (
                self.calls_since_checkpoint
                >= self.durability.checkpoint_interval
            ):
                self._checkpoint()
        out = dict(result)
        if self.slot is not None:
            out["slot"] = self.slot
        return stamp_result(
            out,
            self.worker_id,
            self.generation,
            self.engine.machine,
            self.engine.calls,
            self.engine.total,
        )


def worker_state() -> Any:
    """This worker's state, built from its bound kind on first use: a
    ``_WorkerState`` for a classic worker, the shard's
    :class:`~repro.serve.sessions.SessionPool` for a session shard."""
    state = getattr(_LOCAL, "state", None)
    if state is None:
        kind = getattr(_LOCAL, "kind", None)
        if kind is None:
            raise ConfigurationError(
                "no worker kind is bound to this thread; run calls "
                "through a WorkerPool"
            )
        if isinstance(kind, tuple):
            state = _WorkerState(*kind)
        else:
            from .sessions import SessionPool

            state = SessionPool(kind, shard=_LOCAL.shard)
        _LOCAL.state = state
    return state


def worker_ping(token: int) -> Dict[str, Any]:
    """Liveness probe for either worker kind; also builds the worker's
    state (a classic worker's machine, recovering its slot under
    durability, or a shard's session pool)."""
    return {
        "worker": worker_state().worker_id,
        "token": token,
        "pid": os.getpid(),
    }


def execute_gate_call(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one gate call on this worker's persistent machine.

    See :meth:`GateCallEngine.run_job` for the result contract; on top
    of the core result this adds the worker identity fields (``worker``,
    ``pid``, ``generation``, ``slot`` under durability) and the
    cumulative ``worker_calls`` / ``worker_total`` the gateway
    cross-checks against.  Under durability the call is journaled, and
    a ``call_id`` seen before returns the journaled result instead of
    re-executing (``deduplicated: true``).
    """
    return worker_state().execute(job)


class WorkerPool:
    """A pool of serving workers of either kind.

    The kinds differ only in tenancy.  A classic pool (``sessions``
    unset) is one executor of ``workers`` workers, and any worker takes
    any call: each runs one machine built as ``machine``, shared by the
    processes of every user routed to it, and journaled into a slot
    under ``durability`` (see :class:`DurabilityConfig`).  A session
    pool is ``workers`` one-worker executors, one per shard, because a
    tenant's machine must live in exactly one process: each shard keeps
    private tenant machines, built as ``sessions.machine``, live or
    parked (:mod:`repro.serve.sessions`), and the gateway routes each
    user to one shard.  Every worker is bound by :func:`bind_worker`.

    ``backend`` is ``"process"`` (real parallelism) or ``"thread"``
    (GIL-bound but dependency-free).  The process backend is probed end
    to end on every executor before the pool is used; where process
    pools cannot be created or probed, the whole pool runs on threads
    with identical results, mirroring the fleet driver's serial
    fallback.  Durable
    slots, and the record of a session store, that are bound to a
    different machine are refused here, before any worker starts.
    """

    def __init__(
        self,
        workers: int = 4,
        backend: str = "process",
        durability: Optional[DurabilityConfig] = None,
        machine: MachineConfig = SERVING_MACHINE,
        sessions: Optional["SessionConfig"] = None,
    ):
        if workers <= 0:
            raise ConfigurationError("workers must be positive")
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown worker backend {backend!r}; expected one of "
                f"{BACKENDS}"
            )
        if sessions is None:
            kind: Any = (machine, durability)
            layout = [(workers, 0)]  # (workers, shard) per executor
        else:
            if durability is not None:
                raise ConfigurationError(
                    "a session pool keeps its durability in the session "
                    "store, not in worker slots"
                )
            kind = sessions
            machine = sessions.machine
            layout = [(1, shard) for shard in range(workers)]
            if sessions.store_dir:
                slot_config(sessions.store_dir, machine)
        if durability is not None:
            if durability.slots < workers:
                raise ConfigurationError(
                    "durability needs at least one slot per worker"
                )
            for slot in range(durability.slots):
                slot_config(slot_path(durability.dir, slot), machine)
        self.workers = workers
        self.backend = backend
        self.durability = durability
        self.machine = machine
        self._executors = self._build_executors(kind, layout)
        #: the first (for a classic pool, the only) executor
        self.executor = self._executors[0]

    def _build_executors(
        self, kind: Any, layout: List[Tuple[int, int]]
    ) -> List[Executor]:
        if self.backend == "process":
            executors: List[Executor] = []
            try:
                for size, shard in layout:
                    executors.append(
                        ProcessPoolExecutor(
                            max_workers=size,
                            initializer=bind_worker,
                            initargs=(kind, shard, True),
                        )
                    )
                # Probe each executor end to end: pool creation
                # succeeds on some hosts where the first real submit
                # then dies.
                probes = [
                    executor.submit(worker_ping, 0) for executor in executors
                ]
                for probe in probes:
                    probe.result(timeout=60)
                return executors
            except (OSError, PermissionError, BrokenExecutor):
                for executor in executors:
                    executor.shutdown(wait=False, cancel_futures=True)
                self.backend = "thread (process pool unavailable)"
        return [
            ThreadPoolExecutor(
                max_workers=size,
                thread_name_prefix=f"ringworker{shard}",
                initializer=bind_worker,
                initargs=(kind, shard),
            )
            for size, shard in layout
        ]

    def executor_for(self, shard: int) -> Executor:
        """The executor serving ``shard`` (0 for a classic pool)."""
        return self._executors[shard]

    def submit(self, shard: int, fn, *args):
        """Submit ``fn(*args)`` onto ``shard``'s executor."""
        return self._executors[shard].submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool; with ``wait`` the in-flight calls finish."""
        for executor in self._executors:
            executor.shutdown(wait=wait, cancel_futures=not wait)
        if wait and self.durability is not None:
            release_live_slots()
