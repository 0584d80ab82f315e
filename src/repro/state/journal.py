"""The append-only write-ahead journal of committed gate calls.

Binary framing, one file per worker machine::

    +--------+  8-byte magic: b"RPJRNL1\\n"
    | header |
    +--------+
    | record |  <length:u32le> <crc32(payload):u32le> <payload bytes>
    | record |  payload: UTF-8 JSON with a monotonically increasing
    |  ...   |  "seq" field (1, 2, 3, ...)
    +--------+

Why CRC framing rather than trusting JSON to fail loudly: a torn write
at the tail (the process died mid-append) must be *distinguishable*
from corruption in the committed prefix.  The rules, enforced by
:func:`read_journal`:

* an incomplete header or payload at end-of-file is a **torn tail** —
  silently dropped in recovery mode, an error in strict mode;
* a CRC mismatch on the **final** record is treated the same way (the
  length prefix may itself be garbage from a torn write);
* a CRC mismatch with committed records *after* it can never be a torn
  write and always raises :class:`repro.errors.JournalError`, as does a
  sequence-number gap — the prefix was tampered with or the medium is
  failing, and replaying around it would silently lose calls.

:class:`JournalWriter` truncates a torn tail on open, then appends;
``fsync_every`` batches the fsync so the gateway can trade a bounded
loss window (at most ``fsync_every - 1`` acknowledged calls) for
throughput.  The gateway's recovery protocol is at-least-once, so the
trade is availability, not correctness.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Any, Dict, Iterator, List, Tuple
from zlib import crc32

from ..errors import ConfigurationError, JournalError

MAGIC = b"RPJRNL1\n"

_FRAME = struct.Struct("<II")


def _encode_record(record: Dict[str, Any]) -> bytes:
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return _FRAME.pack(len(payload), crc32(payload)) + payload


def _scan(
    data: bytes, path: str, strict: bool
) -> Tuple[List[Dict[str, Any]], int]:
    """Parse journal bytes; returns ``(records, good_length)``.

    ``good_length`` is the byte offset one past the last intact record —
    what a recovery-mode writer truncates the file to.
    """
    if len(data) < len(MAGIC) or data[: len(MAGIC)] != MAGIC:
        if not data and not strict:
            return [], 0
        raise JournalError(f"{path!r} has no journal magic header")
    records: List[Dict[str, Any]] = []
    offset = len(MAGIC)
    last_seq = 0
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            if strict:
                raise JournalError(
                    f"{path!r}: torn record header at byte {offset}"
                )
            break
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(data):
            if strict:
                raise JournalError(
                    f"{path!r}: torn record payload at byte {offset}"
                )
            break
        payload = data[start:end]
        if crc32(payload) != crc:
            if strict or end < len(data):
                # bytes after a bad CRC mean the damage is not a torn
                # tail: refuse in every mode
                raise JournalError(
                    f"{path!r}: CRC mismatch in record at byte {offset}"
                )
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except ValueError:
            raise JournalError(
                f"{path!r}: record at byte {offset} passed its CRC but "
                "is not valid JSON"
            ) from None
        seq = record.get("seq")
        if seq != last_seq + 1:
            raise JournalError(
                f"{path!r}: sequence gap — record at byte {offset} has "
                f"seq {seq!r}, expected {last_seq + 1}"
            )
        last_seq = seq
        records.append(record)
        offset = end
    return records, offset


def read_journal(path: str, strict: bool = False) -> List[Dict[str, Any]]:
    """Read every intact record of a journal.

    Recovery mode (default) drops a torn tail; ``strict`` raises
    :class:`repro.errors.JournalError` for *any* imperfection.  A
    missing file is an empty journal in recovery mode.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        if strict:
            raise JournalError(f"no journal at {path!r}") from None
        return []
    records, _ = _scan(data, path, strict)
    return records


class JournalReader:
    """Iterate journal records lazily (CLI replay of large journals)."""

    def __init__(self, path: str, strict: bool = False):
        self.path = path
        self.strict = strict

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(read_journal(self.path, strict=self.strict))


class JournalWriter:
    """Append records; recovers from (and truncates) a torn tail on open.

    ``fsync_every`` = N flushes + fsyncs once every N appends (and on
    :meth:`sync`/:meth:`close`); 1 is the fully durable default.
    """

    def __init__(self, path: str, fsync_every: int = 1):
        if fsync_every < 1:
            raise ConfigurationError("fsync_every must be >= 1")
        self.path = path
        self.fsync_every = fsync_every
        self._pending_syncs = 0
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = b""
        records, good_length = _scan(data, path, strict=False)
        self.last_seq = records[-1]["seq"] if records else 0
        self._handle = open(path, "r+b" if data else "wb")
        if not data:
            self._handle.write(MAGIC)
            good_length = len(MAGIC)
        elif good_length < len(data):
            self._handle.truncate(good_length)
        self._handle.seek(good_length)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, record: Dict[str, Any]) -> int:
        """Append one record; returns the sequence number it received.

        The writer owns the ``seq`` field — callers must not set it.
        """
        if "seq" in record:
            raise ConfigurationError(
                "the journal writer assigns seq; do not set it"
            )
        seq = self.last_seq + 1
        framed = _encode_record({**record, "seq": seq})
        self._handle.write(framed)
        self.last_seq = seq
        self._pending_syncs += 1
        if self._pending_syncs >= self.fsync_every:
            self.sync()
        return seq

    def sync(self) -> None:
        """Flush and fsync everything appended so far."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._pending_syncs = 0

    def close(self) -> None:
        """Sync and close the file (idempotent)."""
        if self._handle.closed:
            return
        self.sync()
        self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
