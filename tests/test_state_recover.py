"""Slot recovery and verified replay over real worker journals."""

import json
from pathlib import Path
from zlib import crc32

import pytest

import repro.serve.workers as workers
from repro.errors import JournalError, ReplayDivergenceError
from repro.serve.workers import DurabilityConfig, _WorkerState
from repro.state.journal import MAGIC, _FRAME, read_journal
from repro.state.recover import JOURNAL_NAME, recover_slot, replay_journal


@pytest.fixture
def durable_worker(tmp_path):
    """A fresh worker bound to slot 0 under ``tmp_path``; releases its
    claim afterwards."""

    def build(checkpoint_interval=4, fsync_every=1):
        config = DurabilityConfig(
            dir=str(tmp_path),
            slots=2,
            checkpoint_interval=checkpoint_interval,
            fsync_every=fsync_every,
        )
        return _WorkerState(workers.SERVING_MACHINE, config)

    yield build
    workers.release_live_slots()


def job(i, call_id=None, **overrides):
    base = {
        "user": "alice",
        "ring": 4,
        "program": "call_loop",
        "args": {"count": 1 + i % 3},
        "call_id": call_id or f"call-{i}",
    }
    base.update(overrides)
    return base


def rewrite_journal(journal, records):
    """Re-frame ``records`` with correct CRCs: a forgery only the replay
    cross-check can catch."""
    forged = MAGIC
    for record in records:
        payload = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode()
        forged += _FRAME.pack(len(payload), crc32(payload)) + payload
    journal.write_bytes(forged)


def crash(state):
    """Abandon a worker as a crash would: journal synced (the calls were
    acknowledged), claim released (the pid is gone)."""
    state.journal.sync()
    (Path(state.slot_dir) / "claim").unlink()
    workers.release_live_slots()


class TestSlotRecovery:
    def test_snapshot_plus_replay_resumes_totals(self, durable_worker, tmp_path):
        state = durable_worker(checkpoint_interval=4)
        for i in range(10):  # 2 checkpoints + a 2-call journal tail
            state.execute(job(i))
        crash(state)

        successor = durable_worker()
        assert successor.slot == 0
        assert successor.generation == state.generation + 1
        assert successor.engine.calls == state.engine.calls
        assert successor.engine.total == state.engine.total

    def test_recover_slot_reports_source_and_replay(self, durable_worker, tmp_path):
        state = durable_worker(checkpoint_interval=4)
        for i in range(6):
            state.execute(job(i))
        state.journal.sync()
        recovery = recover_slot(str(tmp_path / "slots" / "slot-0"))
        assert recovery.snapshot_source == "current"
        assert recovery.snapshot_seq == 4
        assert recovery.replayed == 2
        assert recovery.log.last_seq == 6
        assert recovery.log.engine.total == state.engine.total

    def test_previous_snapshot_is_the_fallback(self, durable_worker, tmp_path):
        state = durable_worker(checkpoint_interval=2)
        slot_dir = tmp_path / "slots" / "slot-0"
        for i in range(6):  # checkpoints at 2, 4, 6
            state.execute(job(i))
        state.journal.sync()
        (slot_dir / "snapshot.json").write_text("garbage")
        recovery = recover_slot(str(slot_dir))
        assert recovery.snapshot_source == "prev"
        assert recovery.snapshot_seq == 4
        assert recovery.replayed == 2
        assert recovery.log.engine.total == state.engine.total

    def test_no_snapshot_replays_everything(self, durable_worker, tmp_path):
        state = durable_worker(checkpoint_interval=100)  # never checkpoints
        slot_dir = tmp_path / "slots" / "slot-0"
        for i in range(5):
            state.execute(job(i))
        state.journal.sync()
        recovery = recover_slot(str(slot_dir))
        assert recovery.snapshot_source == "none"
        assert recovery.replayed == 5
        assert recovery.log.engine.total == state.engine.total

    def test_duplicate_call_id_answers_from_journal(self, durable_worker, tmp_path):
        state = durable_worker()
        first = state.execute(job(0, call_id="dup"))
        calls_after = state.engine.calls
        crash(state)

        successor = durable_worker()
        again = successor.execute(job(0, call_id="dup"))
        assert again["deduplicated"] is True
        assert again["payload"] == first["payload"]
        assert again["metrics"] == first["metrics"]
        assert successor.engine.calls == calls_after  # not re-executed

    def test_errored_calls_are_journaled_and_replayed(self, durable_worker, tmp_path):
        state = durable_worker()
        state.execute(job(0))
        bad = state.execute(job(1, program="no_such_program"))
        assert "error" in bad
        state.execute(job(2))
        crash(state)

        successor = durable_worker()
        assert successor.engine.calls == 2  # errors don't count as calls
        assert successor.engine.total == state.engine.total
        journal = tmp_path / "slots" / "slot-0" / JOURNAL_NAME
        recorded = [r["result"] for r in read_journal(str(journal))]
        assert "error" in recorded[1]


class TestVerifiedReplay:
    def build_journal(self, durable_worker, tmp_path, n=5):
        state = durable_worker(checkpoint_interval=100)
        for i in range(n):
            state.execute(job(i))
        state.journal.sync()
        return tmp_path / "slots" / "slot-0" / JOURNAL_NAME

    def test_clean_journal_verifies(self, durable_worker, tmp_path):
        journal = self.build_journal(durable_worker, tmp_path)
        report = replay_journal(str(journal), verify=True)
        assert report.verified == report.replayed == 5

    def test_tampered_payload_with_valid_crc_diverges(
        self, durable_worker, tmp_path
    ):
        journal = self.build_journal(durable_worker, tmp_path)
        data = journal.read_bytes()
        offset = len(MAGIC)
        records = []
        while offset < len(data):
            length, _ = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size
            records.append(json.loads(data[start : start + length]))
            offset = start + length
        # forge record 3: lie about the A register, re-frame with a
        # correct CRC so only the replay cross-check can catch it
        records[2]["result"]["payload"]["a"] += 1
        forged = MAGIC
        for record in records:
            payload = json.dumps(
                record, sort_keys=True, separators=(",", ":")
            ).encode()
            forged += _FRAME.pack(len(payload), crc32(payload)) + payload
        journal.write_bytes(forged)

        report = replay_journal(str(journal))  # structurally fine
        assert report.replayed == 5
        with pytest.raises(ReplayDivergenceError) as excinfo:
            replay_journal(str(journal), verify=True)
        assert excinfo.value.seq == 3
        assert excinfo.value.field == "payload"

    def test_tampered_cycles_with_valid_crc_diverges(
        self, durable_worker, tmp_path
    ):
        # an architectural counter is held to the record verbatim, even
        # though host-tier counters are not
        journal = self.build_journal(durable_worker, tmp_path)
        records = read_journal(str(journal))
        records[3]["result"]["metrics"]["cycles"] += 1
        rewrite_journal(journal, records)
        with pytest.raises(ReplayDivergenceError) as excinfo:
            replay_journal(str(journal), verify=True)
        assert excinfo.value.seq == 4
        assert excinfo.value.field == "metrics.cycles"

    def test_journal_spanning_checkpoints_verifies(
        self, durable_worker, tmp_path
    ):
        # one tenant past the default checkpoint interval: the live
        # worker drops its host caches at every checkpoint, so its
        # host-tier counters differ from a from-scratch replay's — and
        # verification must not call that a divergence
        state = durable_worker(checkpoint_interval=64)
        for i in range(70):
            assert "error" not in state.execute(job(i))
        state.journal.sync()
        journal = tmp_path / "slots" / "slot-0" / JOURNAL_NAME
        report = replay_journal(str(journal), verify=True)
        assert report.verified == report.replayed == 70
        assert report.log.engine.total.architectural() == (
            state.engine.total.architectural()
        )

    def test_flipped_crc_byte_raises_journal_error(
        self, durable_worker, tmp_path
    ):
        journal = self.build_journal(durable_worker, tmp_path)
        data = bytearray(journal.read_bytes())
        data[len(MAGIC) + _FRAME.size + 1] ^= 0xFF
        journal.write_bytes(bytes(data))
        with pytest.raises(JournalError):
            replay_journal(str(journal), verify=True)

    def test_truncated_record_fails_strict_verification(
        self, durable_worker, tmp_path
    ):
        journal = self.build_journal(durable_worker, tmp_path)
        journal.write_bytes(journal.read_bytes()[:-4])
        report = replay_journal(str(journal), verify=True)  # tail dropped
        assert report.replayed == 4
        with pytest.raises(JournalError):
            replay_journal(str(journal), verify=True, strict=True)
