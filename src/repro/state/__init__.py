"""Durability: machine snapshots, the gate-call journal, and recovery.

The paper's central design move — making *all* protection state explicit
machine state (DBR, SDWs, ring brackets, per-ring stacks) — has a
consequence it never needed to exploit: the whole machine is a
serializable value.  This package exploits it.

* :mod:`repro.state.snapshot` — versioned, sha256-hashed serialization
  of a complete :class:`~repro.sim.machine.Machine`, restorable
  bit-identically in every architectural figure;
* :mod:`repro.state.journal` — an append-only, CRC-framed write-ahead
  log of committed gate calls, so any machine state is reconstructible
  as ``snapshot + deterministic replay``;
* :mod:`repro.state.recover` — the replay engine, with a verification
  mode that cross-checks replayed outcomes against the journaled ones
  record by record;
* :mod:`repro.state.replication` — the journal as a replication log:
  live tailing, CRC-reusing ship frames, and warm replica appliers
  with hot failover promotion.

The gateway (:mod:`repro.serve`) builds worker crash recovery and
WAL-shipping replication out of these pieces; the ``repro checkpoint``
/ ``repro restore`` / ``repro replay`` / ``repro journal`` CLI verbs
expose them directly.
"""

from .journal import (
    JournalReader,
    JournalWriter,
    read_journal,
)
from .recover import (
    ReplayReport,
    recover_slot,
    replay_journal,
)
from .replication import (
    Frame,
    JournalTailer,
    ReplicaApplier,
    decode_frame,
    encode_frame,
    read_frames,
)
from .snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    read_snapshot_file,
    restore_machine,
    snapshot_digest,
    snapshot_machine,
    write_snapshot_file,
)

__all__ = [
    "Frame",
    "JournalReader",
    "JournalTailer",
    "JournalWriter",
    "ReplicaApplier",
    "decode_frame",
    "encode_frame",
    "read_frames",
    "read_journal",
    "ReplayReport",
    "recover_slot",
    "replay_journal",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "read_snapshot_file",
    "restore_machine",
    "snapshot_digest",
    "snapshot_machine",
    "write_snapshot_file",
]
