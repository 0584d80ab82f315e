"""Session virtualization: the LRU live-slot pool, park/hydrate paging,
and the exactness contract that makes paging architecturally invisible.

The properties pinned here are the ones the serving design leans on:

* LRU discipline — eviction order follows recency of use, and the
  live set never exceeds ``max_live``;
* park idempotence — park, hydrate, park again (with no intervening
  call) stores byte-identical blobs, so re-parking a clean tenant
  never rewrites the store;
* the hydrated-cold contract — a hydrated machine's attach memo is
  invalid, its first gate call re-fetches descriptors (SDW misses
  reappear) and lands exactly on the fresh-machine cold vector, and
  the next call is warm again;
* journal-tail dedup — a call journaled to the per-tenant tail but
  lost with a crashed live incarnation replays on hydrate, so the
  client's retry deduplicates against the replayed result;
* parked deltas stay small — the delta-vs-base encoding keeps a
  parked call_loop tenant under 10% of its full snapshot;
* the restore-equivalence matrix extends to park/hydrate cycles under
  every host-cache/jit knob combination.
"""

import os

import pytest

import repro.serve.sessions as sessions_module
import repro.state.snapshot as snapshot_module
from repro.cpu.processor import TIERS
from repro.errors import SnapshotError
from repro.serve.sessions import (
    SessionConfig,
    SessionPool,
    SessionStore,
    TENANT_MEMORY_WORDS,
)
from repro.serve.workers import GateCallEngine
from repro.sim.machine import Machine
from repro.sim.metrics import MetricsSnapshot
from repro.state.snapshot import (
    _apply_node,
    apply_delta,
    canonical_bytes,
    decode_delta,
    encode_delta,
    snapshot_digest,
    snapshot_machine,
    write_snapshot_file,
)


def make_pool(tmp_path, max_live=2, store=None, **overrides):
    config = SessionConfig(
        max_live=max_live,
        store_dir=str(tmp_path / "store"),
        fsync_every=1,
        **overrides,
    )
    return SessionPool(config, store=store)


def job(user, call_id, count=3):
    return {
        "user": user,
        "ring": 4,
        "program": "call_loop",
        "args": {"count": count},
        "call_id": call_id,
    }


def reference_vectors(count=3):
    """(M_cold, M_warm) on a fresh, identically-configured engine."""
    engine = GateCallEngine(
        Machine(
            services=False,
            tier="jit",
            fast_gate=True,
            memory_words=TENANT_MEMORY_WORDS,
        )
    )
    cold = engine.run_job(job("ref", "r0", count))["metrics"]
    warm = engine.run_job(job("ref", "r1", count))["metrics"]
    return cold, warm


class TestLruPool:
    def test_eviction_follows_recency(self, tmp_path):
        pool = make_pool(tmp_path, max_live=2)
        pool.execute(job("a", "a0"))
        pool.execute(job("b", "b0"))
        assert list(pool.live) == ["a", "b"]

        # admitting c evicts the least recently used: a
        pool.execute(job("c", "c0"))
        assert list(pool.live) == ["b", "c"]
        assert pool.store.get("a") is not None
        assert pool.counters["evictions"] == 1

        # touching b makes c the LRU; admitting d evicts c
        pool.execute(job("b", "b1"))
        pool.execute(job("d", "d0"))
        assert list(pool.live) == ["b", "d"]
        assert pool.store.get("c") is not None
        assert pool.counters["evictions"] == 2

    def test_live_set_never_exceeds_max_live(self, tmp_path):
        pool = make_pool(tmp_path, max_live=3)
        for i in range(10):
            pool.execute(job(f"u{i}", f"c{i}"))
            assert len(pool.live) <= 3
        assert pool.counters["created"] == 10
        assert pool.counters["parks"] == 7

    def test_reuse_hydrates_parked_tenant(self, tmp_path):
        pool = make_pool(tmp_path, max_live=1)
        pool.execute(job("a", "a0"))
        pool.execute(job("b", "b0"))  # parks a
        out = pool.execute(job("a", "a1"))  # hydrates a, parks b
        assert out["session"]["admitted"] == "hydrated"
        assert out["session"]["cold"] is True
        assert pool.counters["hydrated"] == 1


class TestParkIdempotence:
    def test_park_hydrate_park_is_byte_identical(self, tmp_path):
        pool = make_pool(tmp_path, max_live=1)
        pool.execute(job("a", "a0"))
        pool.execute(job("a", "a1"))
        assert pool.park_user("a")
        first = pool.store.get("a")

        # hydrate without running anything, then park again
        tenant, admitted = pool._admit("a")
        assert admitted == "hydrated"
        assert pool.park_user("a")
        second = pool.store.get("a")
        assert first == second

    def test_dirty_tenant_reparks_to_new_bytes(self, tmp_path):
        pool = make_pool(tmp_path, max_live=1)
        pool.execute(job("a", "a0"))
        assert pool.park_user("a")
        first = pool.store.get("a")
        pool.execute(job("a", "a1"))
        assert pool.park_user("a")
        assert pool.store.get("a") != first


class TestHydratedColdContract:
    def test_first_call_after_hydrate_refetches_descriptors(self, tmp_path):
        """Satellite regression: the fast-gate attach memo must not
        leak across a park/hydrate cycle — the hydrated machine's first
        call pays the full cold vector (descriptor re-fetch: SDW misses
        reappear), then goes warm again."""
        m_cold, m_warm = reference_vectors()
        assert m_cold["sdw_misses"] > 0
        assert m_warm["sdw_misses"] == 0

        pool = make_pool(tmp_path, max_live=1)
        first = pool.execute(job("t", "t0"))
        warm = pool.execute(job("t", "t1"))
        assert first["metrics"] == m_cold
        assert warm["metrics"] == m_warm
        assert pool.park_user("t")

        rehydrated = pool.execute(job("t", "t2"))
        assert rehydrated["session"]["admitted"] == "hydrated"
        assert rehydrated["session"]["cold"] is True
        # bit-for-bit the fresh-machine cold vector, misses included
        assert rehydrated["metrics"] == m_cold
        assert pool.execute(job("t", "t3"))["metrics"] == m_warm

    def test_cold_warm_counters_track_the_split(self, tmp_path):
        pool = make_pool(tmp_path, max_live=1)
        pool.execute(job("t", "t0"))
        pool.execute(job("t", "t1"))
        pool.park_user("t")
        pool.execute(job("t", "t2"))
        assert pool.counters["cold_calls"] == 2
        assert pool.counters["warm_calls"] == 1


class TestJournalTailDedup:
    def test_retried_call_racing_a_park_deduplicates(self, tmp_path):
        """A call journaled to the tenant tail but never parked (the
        live incarnation crashed) replays on hydrate; the client's
        retry of that call_id then dedups to the replayed result."""
        store = SessionStore(str(tmp_path / "store"))
        pool = make_pool(tmp_path, max_live=1, store=store)
        pool.execute(job("u", "u0"))
        pool.park_user("u")  # parked image includes u0

        # the tenant comes back, runs one more call (journaled to the
        # tail), and the shard dies before the next park
        original = pool.execute(job("u", "u1"))
        assert original["session"]["admitted"] == "hydrated"
        del pool

        # a replacement shard hydrates: parked image + tail replay
        fresh = make_pool(tmp_path, max_live=1, store=store)
        retry = fresh.execute(job("u", "u1"))
        assert retry["deduplicated"] is True
        assert retry["payload"] == original["payload"]
        assert retry["metrics"] == original["metrics"]
        assert fresh.counters["replayed_tail_calls"] == 1
        assert fresh.counters["deduplicated"] == 1

    def test_clean_park_fences_the_old_tail(self, tmp_path):
        store = SessionStore(str(tmp_path / "store"))
        pool = make_pool(tmp_path, max_live=1, store=store)
        pool.execute(job("u", "u0"))
        pool.park_user("u")
        fresh = make_pool(tmp_path, max_live=1, store=store)
        out = fresh.execute(job("u", "u1"))
        # the parked image already contains u0 — nothing replays
        assert fresh.counters["replayed_tail_calls"] == 0
        assert not out.get("deduplicated")


    def test_deduplicated_call_opens_no_tail(self, tmp_path):
        store = SessionStore(str(tmp_path / "store"))
        pool = make_pool(tmp_path, max_live=1, store=store)
        pool.execute(job("u", "u0"))
        pool.park_user("u")
        fresh = make_pool(tmp_path, max_live=1, store=store)
        retry = fresh.execute(job("u", "u0"))
        assert retry["deduplicated"] is True
        tenant = fresh.live["u"]
        assert tenant.log.journal is None
        assert not os.path.exists(store.tail_path("u", tenant.tail_epoch))


class TestParkedDeltaSize:
    def test_parked_delta_under_ten_percent_of_full(self, tmp_path):
        pool = make_pool(tmp_path, max_live=2)
        for i in range(8):
            user = f"u{i % 4}"
            pool.execute(job(user, f"c{i}"))
        pool.park_all()
        stats = pool.stats()
        assert stats["parks"] >= 4
        assert 0 < stats["park_size_ratio"] < 0.10


class TestHydrateKnobMatrix:
    def test_park_hydrate_equivalent_under_every_knob_combo(self, tmp_path):
        """Extend the restore-equivalence matrix to park/hydrate: a
        parked tenant hydrated under any host-cache knob combination
        continues to bit-identical *architectural* figures (host-tier
        counters differ across combos by design — that's what the
        knobs toggle)."""

        def architectural(metrics):
            return {
                key: metrics[key] for key in MetricsSnapshot.ARCHITECTURAL
            }

        pool = make_pool(tmp_path / "paged", max_live=1)
        pool.execute(job("m", "m0"))
        pool.execute(job("m", "m1"))
        pool.park_user("m")
        blob = pool.store.get("m")
        envelope = decode_delta(blob)
        base = pool.store.base_by_digest(envelope["base_sha256"])
        snap = apply_delta(base, envelope["base_sha256"], envelope)

        # the canonical continuation: hydrate with the snapshot's own
        # tier configuration, run two more calls (cold, then warm)
        reference = GateCallEngine.from_snapshot(snap)
        expected = [
            architectural(reference.run_job(job("m", call_id))["metrics"])
            for call_id in ("m2", "m3")
        ]

        for tier in TIERS:
            engine = GateCallEngine.from_snapshot(snap, tier=tier)
            got = [
                architectural(engine.run_job(job("m", call_id))["metrics"])
                for call_id in ("m2", "m3")
            ]
            assert got == expected, f"divergence on tier {tier}"


class TestBaseSharing:
    def test_parked_tenants_share_one_base_image(self, tmp_path):
        pool = make_pool(tmp_path, max_live=1)
        for user in ("a", "b", "c"):
            pool.execute(job(user, f"{user}0"))
        pool.park_all()
        digests = set()
        for user in ("a", "b", "c"):
            digests.add(decode_delta(pool.store.get(user))["base_sha256"])
        assert len(digests) == 1

    def test_totals_survive_eviction(self, tmp_path):
        pool = make_pool(tmp_path, max_live=1)
        total = MetricsSnapshot.zero()
        for i in range(4):
            out = pool.execute(job(f"u{i}", f"c{i}"))
            total = total.plus(MetricsSnapshot.from_dict(out["metrics"]))
        assert pool.total == total
        assert pool.calls == 4


def store_pool(tmp_path, on_disk, max_live=2):
    """A pool over an on-disk store, or over a memory-only one."""
    if on_disk:
        return make_pool(tmp_path, max_live=max_live)
    return SessionPool(SessionConfig(max_live=max_live))


class TestCachedDigestIntegrity:
    """Parks and hydrates take each base's digest from the store, which
    verified the base once, when it was elected or read.  None of that
    trust lets a wrong image hydrate."""

    @pytest.mark.parametrize("on_disk", [True, False])
    def test_delta_naming_an_unknown_base_is_refused(self, tmp_path, on_disk):
        pool = store_pool(tmp_path, on_disk, max_live=1)
        pool.execute(job("a", "a0"))
        pool.park_user("a")
        delta = decode_delta(pool.store.get("a"))
        delta["base_sha256"] = "0" * 64
        pool.store.put("a", encode_delta(delta))
        with pytest.raises(SnapshotError):
            pool.execute(job("a", "a1"))

    def test_base_file_under_a_wrong_name_is_refused(self, tmp_path):
        pool = make_pool(tmp_path, max_live=1)
        pool.execute(job("a", "a0"))
        pool.park_user("a")
        digest = decode_delta(pool.store.get("a"))["base_sha256"]
        # a valid snapshot file, of another machine, under the base's name
        write_snapshot_file(
            snapshot_machine(Machine(services=False, memory_words=1 << 12)),
            pool.store._base_path(digest),
        )
        fresh = make_pool(tmp_path, max_live=1)
        with pytest.raises(SnapshotError):
            fresh.execute(job("a", "a1"))

    @pytest.mark.parametrize("on_disk", [True, False])
    def test_mutated_cached_base_fails_the_reconstruction(
        self, tmp_path, on_disk
    ):
        pool = store_pool(tmp_path, on_disk, max_live=1)
        pool.execute(job("a", "a0"))
        pool.execute(job("b", "b0"))  # parks a, electing the base
        digest = decode_delta(pool.store.get("a"))["base_sha256"]
        base = pool.store.base_by_digest(digest)
        chunk = next(iter(base["memory"]["chunks"].values()))
        chunk[0] ^= 1
        with pytest.raises(SnapshotError):
            pool.execute(job("a", "a1"))

    @pytest.mark.parametrize("on_disk", [True, False])
    def test_every_stored_delta_names_its_reconstruction(
        self, tmp_path, on_disk
    ):
        pool = store_pool(tmp_path, on_disk)
        users = [f"u{i}" for i in range(5)]
        for n in range(15):
            pool.execute(job(users[n * 3 % 5], f"c{n}", count=n % 4 + 1))
        pool.park_all()
        for user in users:
            delta = decode_delta(pool.store.get(user))
            base = pool.store.base_by_digest(delta["base_sha256"])
            assert snapshot_digest(base) == delta["base_sha256"]
            rebuilt = _apply_node(base, delta["delta"])
            assert snapshot_digest(rebuilt) == delta["sha256"]

    def test_park_byte_counters_match_a_fresh_encoding(
        self, tmp_path, monkeypatch
    ):
        parked = []
        real = sessions_module.delta_snapshot

        def recording(*args):
            delta = real(*args)
            parked.append((args[0], delta))
            return delta

        monkeypatch.setattr(sessions_module, "delta_snapshot", recording)
        pool = make_pool(tmp_path, max_live=1)
        for n, user in enumerate("abcab"):
            pool.execute(job(user, f"c{n}"))
        pool.park_all()
        assert len(parked) == pool.counters["parks"] == 5
        assert pool.counters["park_full_bytes"] == sum(
            len(canonical_bytes(snap)) for snap, _ in parked
        )
        assert pool.counters["park_delta_bytes"] == sum(
            len(canonical_bytes(delta)) for _, delta in parked
        )


class TestParkHydrateCost:
    @pytest.mark.parametrize("on_disk", [True, False])
    def test_churn_call_encodes_two_full_snapshots(
        self, tmp_path, monkeypatch, on_disk
    ):
        """One steady-state churn call — hydrate one tenant, park
        another — encodes a full snapshot once for each."""
        pool = store_pool(tmp_path, on_disk)
        for user in "abc":  # c parks a, electing the shape's base
            pool.execute(job(user, f"{user}0"))
        encoded = []
        real = snapshot_module._canonical

        def counting(obj):
            if isinstance(obj, dict) and "memory" in obj:
                encoded.append(obj)
            return real(obj)

        monkeypatch.setattr(snapshot_module, "_canonical", counting)
        out = pool.execute(job("a", "a1"))
        assert out["session"]["admitted"] == "hydrated"
        assert pool.counters["parks"] == 2
        assert len(encoded) == 2
        pool.park_all()  # closes the live tenants' tails


class TestPrefetch:
    def test_prefetch_fills_free_slots_most_recent_first(self, tmp_path):
        pool = make_pool(tmp_path, max_live=3)
        for user in ("a", "b", "c"):
            pool.execute(job(user, f"{user}0"))
        pool.park_all()
        assert pool.prefetch(limit=2) == 2
        # c was parked last (park_all drains LRU-first), so it is the
        # best prediction; never more than the free-slot budget
        assert list(pool.live) == ["b", "c"]
        assert pool.counters["prefetch_hydrated"] == 2

    def test_prefetch_never_evicts_live_work(self, tmp_path):
        pool = make_pool(tmp_path, max_live=1)
        pool.execute(job("a", "a0"))
        pool.execute(job("b", "b0"))  # parks a; b live, pool full
        assert pool.prefetch(limit=4) == 0
        assert list(pool.live) == ["b"]

    def test_prefetched_tenant_counts_a_hit_then_behaves_normally(
        self, tmp_path
    ):
        m_cold, _ = reference_vectors()
        pool = make_pool(tmp_path, max_live=2)
        pool.execute(job("a", "a0"))
        pool.park_user("a")
        assert pool.prefetch(limit=1) == 1
        out = pool.execute(job("a", "a1"))
        assert out["session"]["prefetch_hit"] is True
        # prefetch hydration is exact: the call still pays (exactly)
        # the cold vector, it just pays it without the hydrate stall
        assert out["session"]["cold"] is True
        assert out["metrics"] == m_cold
        assert pool.counters["prefetch_hits"] == 1

    def test_prefetched_tenants_are_first_out(self, tmp_path):
        pool = make_pool(tmp_path, max_live=2)
        pool.execute(job("a", "a0"))
        pool.park_user("a")
        pool.execute(job("b", "b0"))
        assert pool.prefetch(limit=1) == 1  # a re-enters at the LRU head
        assert list(pool.live) == ["a", "b"]
        pool.execute(job("c", "c0"))  # evicts the prefetched a, not b
        assert list(pool.live) == ["b", "c"]


class TestBasePointerRace:
    def test_loser_never_reads_a_half_published_pointer(
        self, tmp_path, monkeypatch
    ):
        """Two shards park their first tenant of one shape at once.

        The losing shard runs at the instant the shape's pointer file
        first exists — however the winner creates it — and must adopt
        the winner's whole digest, never an empty or partial pointer.
        """
        winner = SessionStore(str(tmp_path))
        loser = SessionStore(str(tmp_path))
        first, second = (
            snapshot_machine(
                Machine(services=False, memory_words=1 << 12),
                extra={"candidate": n},
            )
            for n in (1, 2)
        )
        raced = {}

        def race():
            if not raced:
                raced["base"] = None
                raced["base"] = loser.base_for_shape(
                    "shape", second, snapshot_digest(second)
                )[1]

        real_open, real_link = os.open, os.link

        def racing_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            if str(path).endswith(".ptr"):
                race()
            return fd

        def racing_link(src, dst, *args, **kwargs):
            real_link(src, dst, *args, **kwargs)
            if str(dst).endswith(".ptr"):
                race()

        monkeypatch.setattr(os, "open", racing_open)
        monkeypatch.setattr(os, "link", racing_link)
        _, base = winner.base_for_shape(
            "shape", first, snapshot_digest(first)
        )
        assert raced["base"] is not None
        assert snapshot_digest(raced["base"]) == snapshot_digest(first)
        assert snapshot_digest(base) == snapshot_digest(first)
