"""The replication mechanism layer: frames, appliers, promotion.

Everything here is synchronous and in-process — the journal written by
a real durable worker is tailed, shipped through the wire codec, and
applied onto a warm replica, which is then promoted and recovered
from.  The network half (standby server, shippers, gateway failover)
is covered in tests/test_serve_standby.py.
"""

import json

import pytest

from repro.errors import JournalError, ReplayDivergenceError
from repro.serve import workers
from repro.sim.metrics import MetricsSnapshot
from repro.state.journal import JournalWriter
from repro.state.recover import JOURNAL_NAME, recover_slot
from repro.state.replication import (
    Frame,
    JournalTailer,
    ReplicaApplier,
    check_replica_result,
    decode_frame,
    encode_frame,
    read_frames,
)


@pytest.fixture
def durable_state(tmp_path):
    """A real durable worker on a fresh slot; yields (state, slot_dir)."""
    state = workers._WorkerState(
        workers.SERVING_MACHINE,
        workers.DurabilityConfig(
            dir=str(tmp_path), slots=1, checkpoint_interval=10_000,
            fsync_every=1,
        ),
    )
    yield state
    workers.release_live_slots()


def run_jobs(state, jobs):
    results = []
    for job in jobs:
        out = state.execute(job)
        assert "error" not in out, out
        results.append(out)
    state.journal.sync()
    return results


def make_jobs(count, user="alice", program="call_loop", args=None):
    return [
        {
            "user": user,
            "ring": 4,
            "program": program,
            "args": dict(args or {"count": 2}),
            "call_id": f"call-{user}-{i}",
        }
        for i in range(count)
    ]


class TestWireFrames:
    def test_round_trip_preserves_record_and_crc(self, durable_state):
        run_jobs(durable_state, make_jobs(3))
        frames = read_frames(
            str(durable_state.slot_dir) + "/" + JOURNAL_NAME
        )
        assert [f.seq for f in frames] == [1, 2, 3]
        for frame in frames:
            # through the wire's own JSON layer and back
            entry = json.loads(json.dumps(encode_frame(frame)))
            decoded = decode_frame(entry)
            assert decoded == frame

    def test_tampered_record_fails_its_crc(self, durable_state):
        run_jobs(durable_state, make_jobs(1))
        (frame,) = read_frames(
            str(durable_state.slot_dir) + "/" + JOURNAL_NAME
        )
        entry = encode_frame(frame)
        entry["record"] = dict(entry["record"], call_id="forged")
        with pytest.raises(JournalError, match="CRC"):
            decode_frame(entry)

    def test_seq_envelope_mismatch_is_rejected(self, durable_state):
        run_jobs(durable_state, make_jobs(1))
        (frame,) = read_frames(
            str(durable_state.slot_dir) + "/" + JOURNAL_NAME
        )
        entry = encode_frame(frame)
        entry["seq"] = 99
        with pytest.raises(JournalError, match="seq"):
            decode_frame(entry)


class TestReplicaResultCheck:
    def test_architectural_divergence_is_fatal(self):
        metrics = MetricsSnapshot.zero().as_dict()
        other = dict(metrics, cycles=7)
        with pytest.raises(ReplayDivergenceError, match="cycles"):
            check_replica_result(
                1,
                {"payload": {}, "metrics": metrics},
                {"payload": {}, "metrics": other},
            )

    def test_host_tier_differences_are_tolerated(self):
        # the primary drops its host caches at checkpoint boundaries
        # the replica cannot observe: PTLB/icache/block/trace figures
        # legitimately differ, architectural figures may not
        metrics = MetricsSnapshot.zero().as_dict()
        warm = dict(metrics, ptlb_hits=40, icache_hits=22, jit_hits=3)
        check_replica_result(
            1,
            {"payload": {}, "metrics": metrics},
            {"payload": {}, "metrics": warm},
        )

    def test_error_and_payload_are_verbatim(self):
        with pytest.raises(ReplayDivergenceError, match="detail"):
            check_replica_result(
                1,
                {"error": "machine_fault", "detail": "a"},
                {"error": "machine_fault", "detail": "b"},
            )


class TestReplicaApplier:
    def test_applies_and_verifies_shipped_frames(self, durable_state):
        run_jobs(durable_state, make_jobs(5))
        frames = JournalTailer(
            str(durable_state.slot_dir) + "/" + JOURNAL_NAME
        ).poll()
        applier = ReplicaApplier(workers.SERVING_MACHINE)
        for frame in frames:
            assert applier.apply(frame) is True
        assert applier.log.last_seq == 5
        assert applier.log.engine.calls == 5
        # the warm replica holds the primary's architectural figures
        assert (
            applier.log.engine.total.architectural()
            == durable_state.engine.total.architectural()
        )

    def test_reshipped_frames_skip_idempotently(self, durable_state):
        run_jobs(durable_state, make_jobs(3))
        frames = JournalTailer(
            str(durable_state.slot_dir) + "/" + JOURNAL_NAME
        ).poll()
        applier = ReplicaApplier(workers.SERVING_MACHINE)
        for frame in frames:
            applier.apply(frame)
        for frame in frames:  # an at-least-once redelivery
            assert applier.apply(frame) is False
        assert applier.applied == 3
        assert applier.skipped == 3
        assert applier.log.engine.calls == 3

    def test_gap_above_applied_seq_is_fatal(self, durable_state):
        run_jobs(durable_state, make_jobs(3))
        frames = JournalTailer(
            str(durable_state.slot_dir) + "/" + JOURNAL_NAME
        ).poll()
        applier = ReplicaApplier(workers.SERVING_MACHINE)
        applier.apply(frames[0])
        with pytest.raises(JournalError, match="gap"):
            applier.apply(frames[2])

    def test_divergent_result_is_fatal(self, durable_state):
        run_jobs(durable_state, make_jobs(1))
        (frame,) = JournalTailer(
            str(durable_state.slot_dir) + "/" + JOURNAL_NAME
        ).poll()
        record = dict(frame.record)
        record["result"] = dict(record["result"])
        record["result"]["payload"] = dict(
            record["result"]["payload"], a=424242
        )
        applier = ReplicaApplier(workers.SERVING_MACHINE)
        with pytest.raises(ReplayDivergenceError):
            applier.apply_record(record)

    def test_lookup_serves_the_journaled_result(self, durable_state):
        results = run_jobs(durable_state, make_jobs(2))
        frames = JournalTailer(
            str(durable_state.slot_dir) + "/" + JOURNAL_NAME
        ).poll()
        applier = ReplicaApplier(workers.SERVING_MACHINE)
        for frame in frames:
            applier.apply(frame)
        hit = applier.lookup("call-alice-1")
        assert hit is not None
        assert hit["payload"] == results[1]["payload"]
        assert applier.lookup("never-seen") is None


class TestPromotion:
    def test_promotion_replays_only_the_unshipped_tail(self, durable_state):
        run_jobs(durable_state, make_jobs(8))
        slot_dir = durable_state.slot_dir
        frames = JournalTailer(slot_dir + "/" + JOURNAL_NAME).poll()
        applier = ReplicaApplier(workers.SERVING_MACHINE)
        for frame in frames[:5]:  # shipping lag: 3 records behind
            applier.apply(frame)
        report = applier.promote(slot_dir)
        assert report["replayed_tail"] == 3
        assert report["applied_seq"] == 8
        assert applier.promotions == 1

    def test_successor_recovers_from_the_promotion_snapshot(
        self, durable_state
    ):
        run_jobs(durable_state, make_jobs(6))
        slot_dir = durable_state.slot_dir
        primary_arch = durable_state.engine.total.architectural()
        frames = JournalTailer(slot_dir + "/" + JOURNAL_NAME).poll()
        applier = ReplicaApplier(workers.SERVING_MACHINE)
        for frame in frames[:4]:
            applier.apply(frame)
        applier.promote(slot_dir)
        recovery = recover_slot(slot_dir)
        # an empty tail: the promotion snapshot already folds in every
        # journaled record, so the successor replays nothing
        assert recovery.replayed == 0
        assert recovery.log.engine.calls == 6
        assert recovery.log.engine.total.architectural() == primary_arch
        # the replica's dedup cache rode along into the snapshot
        assert "call-alice-5" in recovery.log.recent

    def test_empty_tail_promotion_replays_nothing(self, durable_state):
        run_jobs(durable_state, make_jobs(4))
        slot_dir = durable_state.slot_dir
        frames = JournalTailer(slot_dir + "/" + JOURNAL_NAME).poll()
        applier = ReplicaApplier(workers.SERVING_MACHINE)
        for frame in frames:  # fully caught up before the crash
            applier.apply(frame)
        report = applier.promote(slot_dir)
        assert report["replayed_tail"] == 0
        recovery = recover_slot(slot_dir)
        assert recovery.replayed == 0
        assert recovery.log.engine.calls == 4

    def test_promotion_of_a_never_used_slot(self, tmp_path):
        # a slot whose worker died before executing anything: the
        # journal may not even exist; promotion still writes a uniform
        # (fresh-machine) snapshot the successor can recover from
        slot_dir = tmp_path / "slot-0"
        slot_dir.mkdir()
        applier = ReplicaApplier(workers.SERVING_MACHINE)
        report = applier.promote(str(slot_dir))
        assert report["replayed_tail"] == 0
        recovery = recover_slot(str(slot_dir))
        assert recovery.replayed == 0
        assert recovery.log.engine.calls == 0


class TestJournalDumpCli:
    def test_json_dump_lists_every_record(self, durable_state, capsys):
        from repro.cli import main

        run_jobs(durable_state, make_jobs(3))
        assert main(["journal", "dump", durable_state.slot_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 3
        assert payload["last_seq"] == 3
        assert [r["seq"] for r in payload["records"]] == [1, 2, 3]
        assert all("crc" in r and "call_id" in r for r in payload["records"])
        assert all("metrics" in r["result"] for r in payload["records"])

    def test_human_dump_shows_seq_crc_and_outcome(
        self, durable_state, capsys
    ):
        from repro.cli import main

        run_jobs(durable_state, make_jobs(2))
        assert main(["journal", "dump", durable_state.slot_dir]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out
        assert "call-alice-0" in out
        assert "call_loop" in out
        assert "ok" in out

    def test_limit_truncates(self, durable_state, capsys):
        from repro.cli import main

        run_jobs(durable_state, make_jobs(4))
        assert (
            main(
                [
                    "journal",
                    "dump",
                    durable_state.slot_dir,
                    "--json",
                    "--limit",
                    "2",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2
