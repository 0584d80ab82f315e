"""The trace-compile tier: engagement, coherence edges, and exactness.

The jit tier (`repro.cpu.jit`) compiles hot superblock heads into
specialized Python closures with batched counter accounting.  Like the
tiers below it, it may never change what the simulated machine *does*.
These tests pin the coherence edges the issue calls out — a
self-modifying write landing inside a compiled trace, SDW eviction
under associative-memory churn, timer/event expiry at every offset
around a trace-iteration boundary — plus snapshot/restore parity with
the tier enabled, the fast-gate entry path, and the
``REPRO_JIT_PARITY`` co-execution backstop.
"""

import pytest

from tests.helpers import BareMachine, asm_inst, halt_word
from tests.test_cpu_access_cache import build_call_loop
from repro.cpu.faults import Fault, FaultCode
from repro.cpu.isa import Op
from repro.cpu.jit import (
    HOT_THRESHOLD,
    MAX_TRACE_LEN,
    TraceCache,
    WARMUP_CHUNK,
)
from repro.state.snapshot import restore_machine, snapshot_machine

#: Enough call-loop iterations that the head passes warm-up (four
#: dispatches of up to WARMUP_CHUNK superblock instructions each) and
#: the compiled trace then carries the bulk of the run.
HOT_COUNT = 2000


def figures(result):
    """Everything that must be identical across the host tiers."""
    return (
        result.a,
        result.q,
        result.ring,
        result.halted,
        result.metrics.architectural(),
    )


def run_call_loop(count=HOT_COUNT, **machine_kwargs):
    machine, process = build_call_loop(count=count, **machine_kwargs)
    result = machine.run(process, "caller$main", ring=4)
    return machine, result


ALL_TIERS = [
    {"tier": "jit"},
    {},
    {"tier": "fast_path"},
    {"tier": "interp"},
]


class TestEngagement:
    def test_call_loop_compiles_and_carries_the_run(self):
        machine, result = run_call_loop(tier="jit")
        assert result.halted
        stats = machine.processor.jit_cache.stats()
        assert stats["compiled"] >= 1
        assert stats["hits"] >= 1
        # The trace executed the bulk of the workload, not a sliver.
        assert stats["jit_instructions"] > result.instructions // 2

    def test_block_tier_still_runs_during_warmup(self):
        machine, result = run_call_loop(tier="jit")
        assert machine.processor.block_cache.stats()["hits"] > 0

    def test_jit_requires_block_tier(self):
        """The trace tier records through superblock dispatch, so the
        jit tier always runs the block tier too."""
        machine, _ = build_call_loop(tier="jit")
        assert machine.processor.block_cache.enabled

    def test_disabled_by_default(self):
        machine, result = run_call_loop(count=64)
        assert machine.processor.jit_cache.stats() == {
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "compiled": 0,
            "jit_instructions": 0,
            "entries": 0,
        }


class TestNeutrality:
    """Architectural figures are bit-identical across all four tiers."""

    WORKLOADS = [
        {},
        {"paged": True},
        {"hardware_rings": False},
        {"sdw_cache_enabled": False},
        {"stack_rule": "simple"},
        {"lazy_linking": True},
    ]

    @pytest.mark.parametrize(
        "kwargs", WORKLOADS, ids=lambda kw: ",".join(kw) or "default"
    )
    def test_call_loop_neutral(self, kwargs):
        results = []
        for tier in ALL_TIERS:
            machine, result = run_call_loop(**tier, **kwargs)
            assert result.halted
            results.append(figures(result))
            if machine.processor.jit_cache.enabled and not kwargs:
                assert machine.processor.jit_cache.stats()["hits"] > 0
        assert all(r == results[0] for r in results[1:])

    @pytest.mark.parametrize("count", [1, 2, 3, 100, HOT_COUNT])
    def test_every_count_matches_block_tier(self, count):
        jit = run_call_loop(count=count, tier="jit")[1]
        block = run_call_loop(count=count)[1]
        assert figures(jit) == figures(block)


class TestSelfModifyingCode:
    """A store landing inside an already-compiled trace."""

    def smc_loop(self, count):
        """Every iteration rewrites word 4 — which sits inside the
        loop body the trace compiles — with the SBA already there, so
        the *figures* never change but the coherence machinery fires
        on every pass: each compiled execution must stop right after
        its own invalidating store."""
        return [
            asm_inst(Op.LDA, offset=count, immediate=True),
            asm_inst(Op.LDQ, offset=7),  # loop: load the patch word
            asm_inst(Op.STQ, offset=4),  # rewrite word 4, mid-trace
            asm_inst(Op.NOP),
            asm_inst(Op.SBA, offset=1, immediate=True),  # the target
            asm_inst(Op.TNZ, offset=1),
            halt_word(),
            asm_inst(Op.SBA, offset=1, immediate=True),  # the patch
        ]

    def run_smc(self, count=400, **proc_kwargs):
        bm = BareMachine(**proc_kwargs)
        bm.add_segment(8, words=self.smc_loop(count), r1=4)
        bm.start(8, 0, ring=4)
        bm.run(max_steps=20000)
        assert bm.proc.halted
        return bm

    def observed(self, bm):
        return (
            bm.regs.a,
            bm.regs.q,
            bm.proc.stats.instructions,
            bm.proc.cycles,
            bm.proc.memory.reads,
            bm.proc.memory.writes,
            bm.proc.sdw_cache.hits,
            bm.proc.sdw_cache.misses,
        )

    def test_store_inside_trace_invalidates_and_figures_match(self):
        jit = self.run_smc(tier="jit")
        stats = jit.proc.jit_cache.stats()
        assert stats["compiled"] >= 1
        assert stats["invalidations"] >= 1  # its own store tore it down
        tiers = {
            "block": self.run_smc(),
            "fast": self.run_smc(tier="fast_path"),
            "slow": self.run_smc(tier="interp"),
        }
        for name, bm in tiers.items():
            assert self.observed(jit) == self.observed(bm), name

    def test_patch_takes_effect_next_pass(self):
        """A genuinely mutating patch (NOP -> SBA) halves the
        iterations from the second pass; all tiers agree."""

        def program(count):
            words = self.smc_loop(count)
            words[4] = asm_inst(Op.NOP)  # starts as NOP, becomes SBA
            return words

        def run(**proc_kwargs):
            bm = BareMachine(**proc_kwargs)
            bm.add_segment(8, words=program(400), r1=4)
            bm.start(8, 0, ring=4)
            bm.run(max_steps=20000)
            assert bm.proc.halted
            return self.observed(bm)

        assert run(tier="jit") == run() == run(tier="fast_path")


class TestSdwEviction:
    """Associative-memory churn pauses traces for the evicted segment."""

    @pytest.mark.parametrize("slots", [2, 4])
    def test_two_slot_cache_churn_matches_block_tier(self, slots):
        jit = run_call_loop(
            sdw_cache_slots=slots, tier="jit"
        )[1]
        block = run_call_loop(sdw_cache_slots=slots)[1]
        assert figures(jit) == figures(block)


class TestTimerAndEventBoundaries:
    """Expiry at every offset around a trace-iteration boundary."""

    def spin_program(self):
        return [
            asm_inst(Op.LDA, offset=0, immediate=True),
            asm_inst(Op.ADA, offset=1, immediate=True),  # loop
            asm_inst(Op.NOP),
            asm_inst(Op.NOP),
            asm_inst(Op.TRA, offset=1),
        ]

    def outcome(self, bm):
        return (
            bm.proc.stats.instructions,
            bm.proc.cycles,
            bm.regs.a,
            bm.regs.ipr.wordno,
        )

    def run_with_timer(self, ticks, **proc_kwargs):
        bm = BareMachine(**proc_kwargs)
        bm.add_segment(8, words=self.spin_program(), r1=4)
        bm.start(8, 0, ring=4)
        bm.proc.set_timer(ticks)
        with pytest.raises(Fault) as excinfo:
            bm.run(max_steps=20000)
        assert excinfo.value.code is FaultCode.TIMER
        return self.outcome(bm)

    # The compiled spin trace is 4 instructions per iteration; well
    # past warm-up, cover each landing offset within an iteration plus
    # the warm-up edge itself.
    TICKS = [
        WARMUP_CHUNK * HOT_THRESHOLD - 1,
        WARMUP_CHUNK * HOT_THRESHOLD,
        2000, 2001, 2002, 2003,
    ]

    @pytest.mark.parametrize("ticks", TICKS)
    def test_timer_expiry_identical_across_tiers(self, ticks):
        jit = self.run_with_timer(ticks, tier="jit")
        block = self.run_with_timer(ticks)
        slow = self.run_with_timer(
            ticks, tier="interp"
        )
        assert jit == block == slow
        assert jit[0] == ticks

    @pytest.mark.parametrize("after", [2000, 2001, 2002, 2003])
    def test_event_expiry_identical_across_tiers(self, after):
        def run(**proc_kwargs):
            bm = BareMachine(**proc_kwargs)
            bm.add_segment(8, words=self.spin_program(), r1=4)
            bm.start(8, 0, ring=4)
            bm.proc.schedule_event(after, FaultCode.IO_COMPLETION, "t")
            with pytest.raises(Fault) as excinfo:
                bm.run(max_steps=20000)
            assert excinfo.value.code is FaultCode.IO_COMPLETION
            return self.outcome(bm)

        jit = run(tier="jit")
        assert jit == run() == run(tier="interp")
        assert jit[0] == after

    @pytest.mark.parametrize("budget", [2000, 2001, 2002, 2003])
    def test_budget_runout_mid_trace_identical(self, budget):
        from repro.errors import ConfigurationError

        def run(**proc_kwargs):
            bm = BareMachine(**proc_kwargs)
            bm.add_segment(8, words=self.spin_program(), r1=4)
            bm.start(8, 0, ring=4)
            with pytest.raises(ConfigurationError):
                bm.run(max_steps=budget)  # spin loop never halts
            return self.outcome(bm)

        jit = run(tier="jit")
        assert jit == run() == run(tier="interp")
        assert jit[0] == budget


class TestSnapshotRestore:
    """Snapshots round-trip jit machines: caches drop, then rewarm."""

    def test_roundtrip_preserves_figures_and_config(self):
        machine, first = run_call_loop(tier="jit", fast_gate=True)
        assert machine.processor.jit_cache.stats()["entries"] > 0
        snap = snapshot_machine(machine)
        assert snap["config"]["tier"] == "jit"
        assert snap["config"]["fast_gate"] is True
        restored = restore_machine(snap)
        proc = restored.processor
        assert proc.jit_cache.enabled
        assert restored.fast_gate
        # Counters round-trip; trace contents do not (cold caches).
        assert proc.jit_cache.stats()["entries"] == 0
        assert proc.jit_cache.hits == machine.processor.jit_cache.hits
        assert (
            proc.jit_cache.instructions
            == machine.processor.jit_cache.instructions
        )

    def test_checkpoint_discipline_keeps_full_metrics_identical(self):
        """Dropping host caches at the checkpoint (what the serve
        workers do) makes a continued live machine and a restored
        successor agree in *every* counter, host tiers included."""
        machine, process = build_call_loop(
            count=HOT_COUNT, tier="jit", fast_gate=True
        )
        first = machine.run(process, "caller$main", ring=4)
        machine.processor.drop_host_caches()
        snap = snapshot_machine(machine)
        restored = restore_machine(snap)
        rprocess = restored.supervisor.processes[0]

        live = machine.run(
            process, "caller$main", ring=4, reset_counters=True
        )
        replayed = restored.run(
            rprocess, "caller$main", ring=4, reset_counters=True
        )
        assert live.metrics == replayed.metrics

    def test_old_snapshots_default_the_new_knobs_off(self):
        machine, _ = run_call_loop(count=8, fast_gate=True)
        snap = snapshot_machine(machine)
        del snap["config"]["fast_gate"]
        restored = restore_machine(snap)
        assert not restored.fast_gate

    def test_block_override_clamps_inherited_jit(self):
        machine, _ = run_call_loop(count=8, tier="jit")
        snap = snapshot_machine(machine)
        restored = restore_machine(snap, tier="fast_path")
        assert not restored.processor.jit_cache.enabled
        assert not restored.processor.block_cache.enabled


class TestFastGate:
    """Repeat gate entry skips re-attach; traces survive between runs."""

    def test_repeat_run_reuses_traces(self):
        machine, process = build_call_loop(
            count=HOT_COUNT, tier="jit", fast_gate=True
        )
        first = machine.run(process, "caller$main", ring=4)
        assert machine.processor.jit_cache.stats()["compiled"] >= 1
        second = machine.run(process, "caller$main", ring=4)
        stats = machine.processor.jit_cache.stats()
        # No recompilation: the repeat call entered the surviving
        # trace directly (counters were reset between the runs).
        assert stats["compiled"] == 0
        assert stats["hits"] >= 1
        # The repeat call re-validated nothing: the SDW associative
        # memory stayed warm, so the descriptor fetches the first call
        # paid are gone and the figures got (slightly) cheaper — the
        # measured form of the paper's repeat-gate-call claim.
        assert (second.a, second.q, second.ring) == (
            first.a, first.q, first.ring,
        )
        assert second.instructions == first.instructions
        assert second.metrics.sdw_misses == 0
        assert second.cycles < first.cycles

    def test_default_gate_recompiles_after_reattach(self):
        machine, process = build_call_loop(
            count=HOT_COUNT, tier="jit"
        )
        first = machine.run(process, "caller$main", ring=4)
        second = machine.run(process, "caller$main", ring=4)
        # The DBR switch in attach flushed every host cache.
        assert machine.processor.jit_cache.stats()["compiled"] >= 1
        assert figures(second) == figures(first)


class TestParityBackstop:
    """REPRO_JIT_PARITY=1 co-executes every trace against per-step."""

    def test_parity_run_matches_plain_jit_run(self, monkeypatch):
        plain = run_call_loop(tier="jit")
        monkeypatch.setenv("REPRO_JIT_PARITY", "1")
        parity_machine, parity_result = run_call_loop()
        stats = parity_machine.processor.jit_cache.stats()
        assert parity_machine.processor.jit_cache.parity
        assert stats["hits"] >= 1
        assert figures(parity_result) == figures(plain[1])
        # Host-tier figures agree too: a parity run is bit-for-bit
        # indistinguishable from a non-parity jit run.
        assert parity_result.metrics == plain[1].metrics

    def test_parity_covers_smc_traces(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PARITY", "1")
        smc = TestSelfModifyingCode()
        bm = smc.run_smc(tier="jit")
        assert bm.proc.jit_cache.stats()["invalidations"] >= 1


class TestTraceCacheUnit:
    def test_install_evicts_at_capacity(self):
        cache = TraceCache(enabled=True, parity=False)

        class FakeTrace:
            def __init__(self, key):
                self.key = key
                self.valid = True
                self.words = {key[0]: {key[1]}}

        from repro.cpu.jit import MAX_TRACES

        for i in range(MAX_TRACES):
            cache.install(FakeTrace((i, 0, 4)))
        assert len(cache) == MAX_TRACES
        cache.install(FakeTrace((MAX_TRACES, 0, 4)))
        assert len(cache) == 1  # wholesale flush, then the newcomer

    def test_invalidate_word_applies_rebuild_backoff(self):
        cache = TraceCache(enabled=True, parity=False)

        class FakeTrace:
            key = (8, 0, 4)
            valid = True
            words = {8: {0, 1, 2}}

        cache.install(FakeTrace())
        cache.invalidate_word(8, 1)
        assert cache.get((8, 0, 4)) is None
        assert cache.invalidations == 1
        # Well more than HOT_THRESHOLD dispatches needed again.
        for _ in range(HOT_THRESHOLD):
            assert not cache.note_dispatch((8, 0, 4))

    def test_max_trace_len_bounds_recording(self):
        assert MAX_TRACE_LEN >= 4  # sanity: room for a call loop body
