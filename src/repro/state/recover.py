"""Recovery: rebuild a worker machine from snapshot + journal replay.

The simulated machine is deterministic, so a slot's state is fully
determined by the machine it runs and the sequence of gate calls it
executed — which is exactly what the slot's config record and journal
hold.  Recovery therefore has two modes:

* **resume** (:func:`recover_slot`): restore the newest intact snapshot
  and replay only the journal records past it — what a replacement
  worker does when it claims a crashed worker's slot;
* **verify** (:func:`replay_journal` with ``verify=True``): replay from
  a fresh machine through the *entire* journal, holding every replayed
  result to the replica contract record by record.  Because the
  structural checks (snapshot sha256, journal CRCs, sequence numbers)
  can be forged together, the replay cross-check is the last line of
  defence: any divergence raises
  :class:`~repro.errors.ReplayDivergenceError`.

Both drive :class:`~repro.serve.workers.JournaledEngine` — the same
primitive the serving workers, session tenants and replicas use —
imported lazily to keep :mod:`repro.state` importable without the
serving stack.

The **config record** (:func:`slot_config`) is the first thing a slot
gets: the :class:`~repro.sim.config.MachineConfig` its journal is
written by.  Resume, from-scratch replay and replicas build the slot's
engine from it, and a worker or standby configured for a different
machine is refused instead of replaying the journal onto it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Optional

from ..errors import SnapshotError
from ..sim.config import MachineConfig
from .journal import read_journal
from .snapshot import publish_once, read_snapshot_file

#: file names inside a worker slot directory
SNAPSHOT_NAME = "snapshot.json"
JOURNAL_NAME = "journal.bin"
CONFIG_NAME = "machine.json"


def slot_path(root: str, slot: int) -> str:
    """Where durability slot ``slot`` lives under the directory ``root``."""
    return os.path.join(root, "slots", f"slot-{slot}")


def _snapshot_config(slot_dir: str) -> Optional[MachineConfig]:
    """The machine the slot's newest intact snapshot was taken on: how
    a slot written before config records existed names its machine."""
    for name in (SNAPSHOT_NAME, SNAPSHOT_NAME + ".prev"):
        try:
            snap = read_snapshot_file(os.path.join(slot_dir, name))
        except SnapshotError:
            continue
        return MachineConfig.from_dict(snap["config"])
    return None


def slot_config(
    slot_dir: str, config: Optional[MachineConfig] = None
) -> MachineConfig:
    """The machine config recorded for the slot in ``slot_dir``.

    With ``config``, a slot without a record is bound to it (the first
    binder wins a race, and every other one is checked against the
    winner), and a slot recorded with a different machine raises
    :class:`~repro.errors.ConfigurationError`.  A slot that predates
    config records is checked against its snapshot before it is bound.
    Without ``config`` the record is only read; a slot that has none
    runs its snapshot's machine, or the serving default.
    """
    path = os.path.join(slot_dir, CONFIG_NAME)
    try:
        with open(path, "r") as handle:
            recorded: Optional[MachineConfig] = MachineConfig.from_dict(
                json.load(handle)
            )
    except FileNotFoundError:
        recorded = None
    if config is None:
        return (
            recorded or _snapshot_config(slot_dir) or MachineConfig.serving()
        )
    if recorded is None:
        legacy = _snapshot_config(slot_dir)
        if legacy is not None:
            config.require_architecture(legacy, f"slot {slot_dir!r}")
        os.makedirs(slot_dir, exist_ok=True)
        data = publish_once(
            path, json.dumps(config.as_dict(), sort_keys=True).encode("utf-8")
        )
        recorded = MachineConfig.from_dict(json.loads(data))
    config.require_architecture(recorded, f"slot {slot_dir!r} ({path})")
    return config


@dataclass
class ReplayReport:
    """What :func:`replay_journal` or :func:`recover_slot` did."""

    log: Any  # JournaledEngine
    replayed: int = 0
    verified: int = 0
    skipped: int = 0  # records at or below the log's starting seq
    snapshot_source: str = "none"  # recover_slot: "current"|"prev"|"none"
    snapshot_seq: int = 0


def replay_journal(
    journal_path: str,
    log: Any = None,
    verify: bool = False,
    strict: bool = False,
) -> ReplayReport:
    """Apply a journal's records past ``log.last_seq`` to ``log``.

    Without ``log``, a fresh one is built from the config record next
    to the journal, which replays the slot's entire history.
    ``verify`` holds every replayed result to the replica contract;
    ``strict`` refuses a torn journal tail instead of dropping it.
    """
    from ..serve.workers import RECENT_CALLS, GateCallEngine, JournaledEngine

    if log is None:
        config = slot_config(os.path.dirname(os.path.abspath(journal_path)))
        log = JournaledEngine(GateCallEngine(config=config), RECENT_CALLS)
    report = ReplayReport(log=log)
    for record in read_journal(journal_path, strict=strict):
        if log.apply(record, verify=verify):
            report.replayed += 1
        else:
            report.skipped += 1
    if verify:
        report.verified = report.replayed
    return report


def recover_slot(
    slot_dir: str,
    verify: bool = False,
    config: Optional[MachineConfig] = None,
) -> ReplayReport:
    """Rebuild a worker slot's engine: newest intact snapshot + replay.

    ``config`` is checked against (or becomes) the slot's config record
    first.  Tries ``snapshot.json`` then ``snapshot.json.prev`` (the
    previous checkpoint survives until the next one replaces it, so a
    crash mid-checkpoint at worst lengthens the replay); with neither
    intact, replays the whole journal on a fresh machine built from the
    record.  A snapshot taken on a different machine than the record's
    is refused, not restored.  A missing journal is an empty one — a
    brand-new slot recovers to a fresh engine.
    """
    from ..serve.workers import RECENT_CALLS, GateCallEngine, JournaledEngine

    config = slot_config(slot_dir, config)
    log = None
    source = "none"
    snapshot_path = os.path.join(slot_dir, SNAPSHOT_NAME)
    for path, label in (
        (snapshot_path, "current"),
        (snapshot_path + ".prev", "prev"),
    ):
        try:
            snap = read_snapshot_file(path)
            config.require_architecture(
                MachineConfig.from_dict(snap["config"]), f"snapshot {path!r}"
            )
            engine = GateCallEngine.from_snapshot(snap)
        except SnapshotError:
            continue
        extra = snap.get("extra", {})
        log = JournaledEngine(
            engine,
            RECENT_CALLS,
            last_seq=int(extra.get("last_seq", 0)),
            recent=extra.get("recent_calls", []),
        )
        source = label
        break
    if log is None:
        log = JournaledEngine(GateCallEngine(config=config), RECENT_CALLS)
    snapshot_seq = log.last_seq
    report = replay_journal(
        os.path.join(slot_dir, JOURNAL_NAME), log, verify=verify
    )
    report.snapshot_source = source
    report.snapshot_seq = snapshot_seq
    return report
