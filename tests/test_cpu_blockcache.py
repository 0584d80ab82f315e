"""The superblock execution tier: building, coherence, and neutrality.

The block tier (`repro.cpu.blockcache`) may never change what the
simulated machine *does* — only how much host work one simulated
instruction costs.  These tests pin block construction and terminal
rules, the three coherence channels (self-modifying stores, SDW
eviction, wholesale invalidation), and bit-identical architectural
counters across block-on / fast-path-only / everything-off execution —
including under mid-block faults, timer runout, and asynchronous
events.
"""

import pytest

from tests.helpers import BareMachine, asm_inst, halt_word
from tests.test_cpu_access_cache import build_call_loop
from repro.cpu.blockcache import (
    HOT_THRESHOLD,
    K_CALL,
    K_EA,
    K_RETURN,
    K_SIMPLE,
    K_TERM_EA,
    K_XFER,
    MAX_BLOCK_LEN,
    Superblock,
    SuperblockCache,
    build_superblock,
)
from repro.cpu.faults import Fault, FaultCode
from repro.errors import ConfigurationError
from repro.cpu.isa import Op
from repro.cpu.processor import TIERS
from repro.cpu.registers import RegisterFile
from repro.sim.metrics import MetricsSnapshot


def figures(machine, result):
    """Everything that must be identical across the host tiers."""
    return (
        result.a,
        result.q,
        result.ring,
        result.metrics.architectural(),
    )


class TestBlockBuilding:
    def build(self, words, start=0, bound=None):
        return build_superblock(
            list(words), 0, start, bound if bound is not None else len(words)
        )

    def test_straight_line_ends_at_transfer_inclusive(self):
        block = self.build(
            [
                asm_inst(Op.NOP),
                asm_inst(Op.LDA, offset=1, immediate=True),
                asm_inst(Op.TRA, offset=0),
                asm_inst(Op.NOP),  # behind the transfer: not covered
            ]
        )
        assert [e[3] for e in block.entries] == [K_SIMPLE, K_SIMPLE, K_XFER]
        assert block.last == 2

    def test_call_and_return_are_terminal_kinds(self):
        block = self.build([asm_inst(Op.CALL, offset=5, pr=0)])
        assert [e[3] for e in block.entries] == [K_CALL]
        block = self.build([asm_inst(Op.RETURN, offset=0, pr=4)])
        assert [e[3] for e in block.entries] == [K_RETURN]

    def test_indirect_ea_is_terminal(self):
        block = self.build(
            [
                asm_inst(Op.LDA, offset=3, indirect=True),
                asm_inst(Op.NOP),
            ]
        )
        assert [e[3] for e in block.entries] == [K_TERM_EA]

    def test_direct_ea_is_not_terminal(self):
        block = self.build(
            [asm_inst(Op.LDA, offset=3), asm_inst(Op.TRA, offset=0)]
        )
        assert [e[3] for e in block.entries] == [K_EA, K_XFER]

    def test_stops_before_halt_and_privileged(self):
        block = self.build([asm_inst(Op.NOP), halt_word(), asm_inst(Op.NOP)])
        assert len(block.entries) == 1
        block = self.build([asm_inst(Op.NOP), asm_inst(Op.RCU)])
        assert len(block.entries) == 1

    def test_unbuildable_first_word_gives_negative_block(self):
        block = self.build([halt_word()])
        assert block.entries == []
        assert block.last == 0  # still occupies its address

    def test_bounded_by_segment_and_max_len(self):
        words = [asm_inst(Op.NOP)] * (MAX_BLOCK_LEN + 10)
        assert len(self.build(words).entries) == MAX_BLOCK_LEN
        assert len(self.build(words, bound=5).entries) == 5


class TestSuperblockCache:
    def block_at(self, start, n=2):
        return Superblock(
            start, build_superblock([asm_inst(Op.NOP)] * n, 0, 0, n).entries
        )

    def test_invalidate_word_flips_valid_and_applies_backoff(self):
        cache = SuperblockCache()
        block = build_superblock([asm_inst(Op.NOP)] * 4, 0, 0, 4)
        cache.install(8, block)
        cache.invalidate_word(8, 2)  # inside [0, 3]
        assert block.valid is False
        assert cache.get(8, 0) is None
        assert cache.invalidations == 1
        # The rebuild backoff: the address must be dispatched more than
        # HOT_THRESHOLD further times before note_dispatch says hot.
        for _ in range(HOT_THRESHOLD):
            assert not cache.note_dispatch(8, 0)

    def test_invalidate_word_outside_block_is_a_no_op(self):
        cache = SuperblockCache()
        block = build_superblock([asm_inst(Op.NOP)] * 4, 0, 0, 4)
        cache.install(8, block)
        cache.invalidate_word(8, 7)
        assert block.valid is True
        assert cache.get(8, 0) is block

    def test_pause_segment_drops_and_stops_all_blocks(self):
        cache = SuperblockCache()
        one = build_superblock([asm_inst(Op.NOP)] * 2, 0, 0, 2)
        cache.install(8, one)
        cache.install(9, build_superblock([asm_inst(Op.NOP)], 0, 0, 1))
        cache.pause_segment(8)
        assert one.valid is False
        assert cache.get(8, 0) is None
        assert cache.get(9, 0) is not None

    def test_wholesale_invalidate(self):
        cache = SuperblockCache()
        cache.install(8, build_superblock([asm_inst(Op.NOP)], 0, 0, 1))
        cache.install(9, build_superblock([asm_inst(Op.NOP)], 0, 0, 1))
        cache.invalidate(8)
        assert len(cache) == 1
        cache.invalidate()
        assert len(cache) == 0

    def test_note_dispatch_hotness(self):
        cache = SuperblockCache()
        assert not cache.note_dispatch(8, 0)
        assert cache.note_dispatch(8, 0)  # HOT_THRESHOLD == 2


class TestCycleNeutrality:
    """Simulated figures are bit-identical across all three tiers."""

    WORKLOADS = [
        {},
        {"paged": True},
        {"hardware_rings": False},
        {"sdw_cache_enabled": False},
        {"stack_rule": "simple"},
        {"lazy_linking": True},
    ]

    TIERS = [
        {"tier": "jit"},
        {},
        {"tier": "fast_path"},
        {"tier": "interp"},
    ]

    @pytest.mark.parametrize(
        "kwargs", WORKLOADS, ids=lambda kw: ",".join(kw) or "default"
    )
    def test_call_loop_neutral(self, kwargs):
        results = []
        for tier in self.TIERS:
            machine, process = build_call_loop(count=16, **tier, **kwargs)
            result = machine.run(process, "caller$main", ring=4)
            assert result.halted
            results.append(figures(machine, result))
            if machine.processor.block_cache.enabled and not kwargs:
                # The loop is hot: the tier actually ran, it did not
                # just fall back to per-step execution.  (Under paging
                # or with the SDW associative memory disabled the tier
                # correctly declines to engage — entry validation
                # requires an unpaged SDW identity — and per-step
                # execution takes over; the figures still match.)
                assert machine.processor.block_cache.stats()["hits"] > 0
        assert all(r == results[0] for r in results[1:])


class TestSelfModifyingCode:
    """A store into an already-hot superblock (the satellite workload)."""

    def smc_program(self, count):
        """A loop that patches an instruction inside its own block.

        Word 4 starts as NOP; every iteration stores ``SBA =1`` over it,
        so from the second pass the loop decrements A by 2 per trip.  A
        stale block would keep executing the NOP and double the
        iteration (and instruction) count — any divergence from per-step
        execution is loud.
        """
        return [
            asm_inst(Op.LDA, offset=count, immediate=True),
            asm_inst(Op.LDQ, offset=7),  # loop: load the patch word
            asm_inst(Op.STQ, offset=4),  # rewrite word 4, mid-block
            asm_inst(Op.SBA, offset=1, immediate=True),
            asm_inst(Op.NOP),  # becomes SBA =1
            asm_inst(Op.TNZ, offset=1),
            halt_word(),
            asm_inst(Op.SBA, offset=1, immediate=True),  # the patch word
        ]

    def run_smc(self, count=40, **proc_kwargs):
        bm = BareMachine(**proc_kwargs)
        # r1=4: ring 4 may execute (bracket [4, 7]) and write the segment.
        bm.add_segment(8, words=self.smc_program(count), r1=4)
        bm.start(8, 0, ring=4)
        bm.run(max_steps=5000)
        assert bm.proc.halted
        return bm

    def test_block_invalidated_and_figures_unchanged(self):
        tiers = {
            "block": self.run_smc(),
            "fast": self.run_smc(tier="fast_path"),
            "slow": self.run_smc(tier="interp"),
        }
        observed = {
            name: (
                bm.regs.a,
                bm.regs.q,
                bm.proc.cycles,
                bm.proc.stats.instructions,
                bm.proc.stats.faults,
                bm.memory.reads,
                bm.memory.writes,
                bm.proc.sdw_cache.stats(),
            )
            for name, bm in tiers.items()
        }
        assert observed["block"] == observed["fast"] == observed["slow"]
        stats = tiers["block"].proc.block_cache.stats()
        # The loop got hot (blocks executed) and the stores invalidated
        # the covering block rather than executing stale entries.
        assert stats["hits"] > 0
        assert stats["invalidations"] >= 1

    def test_patch_takes_effect(self):
        """The rewritten instruction really executes from trip one."""
        bm = self.run_smc(count=40)
        assert bm.regs.a == 0
        # The store lands before word 4 executes, so every trip
        # decrements A by 2: 20 trips of 5 instructions, plus LDA and
        # HALT.  A stale NOP would double the trip count.
        assert bm.proc.stats.instructions == 2 + 20 * 5


class TestFaultParity:
    """A fault from the middle of a hot block attributes identically."""

    def faulting_program(self, count):
        """A hot loop whose LDA goes out of bounds on the last trip.

        Word 7 holds an in-bounds offset; the loop overwrites it with an
        out-of-bounds one when A reaches zero... simpler: the loop reads
        through an index that eventually walks past the bound.
        """
        return [
            asm_inst(Op.LDA, offset=count, immediate=True),
            asm_inst(Op.ADA, offset=1, immediate=True),  # loop: A += 1
            asm_inst(Op.LDQ, offset=2, indexed=True),  # Q := word[2 + A]
            asm_inst(Op.TRA, offset=1),
        ]

    def run_until_fault(self, size=40, **proc_kwargs):
        bm = BareMachine(**proc_kwargs)
        bm.add_segment(
            8, words=self.faulting_program(0), size=size, r1=4
        )
        bm.start(8, 0, ring=4)
        with pytest.raises(Fault) as excinfo:
            bm.run(max_steps=5000)
        return bm, excinfo.value

    def test_out_of_bounds_fault_parity(self):
        tiers = {
            "block": self.run_until_fault(),
            "fast": self.run_until_fault(tier="fast_path"),
            "slow": self.run_until_fault(tier="interp"),
        }
        observed = {
            name: (
                fault.code,
                fault.at_segno,
                fault.at_wordno,
                fault.cur_ring,
                bm.proc.cycles,
                bm.proc.stats.instructions,
                bm.regs.a,
                bm.regs.ipr.wordno,
                bm.memory.reads,
            )
            for name, (bm, fault) in tiers.items()
        }
        assert observed["block"] == observed["fast"] == observed["slow"]
        assert observed["block"][0] is FaultCode.ACV_OUT_OF_BOUNDS
        bm, _ = tiers["block"]
        assert bm.proc.block_cache.stats()["hits"] > 0


class TestTimerAndEventParity:
    """Ticks land between the same instructions with blocks on or off."""

    def spin_program(self):
        return [
            asm_inst(Op.LDA, offset=0, immediate=True),
            asm_inst(Op.ADA, offset=1, immediate=True),  # loop
            asm_inst(Op.NOP),
            asm_inst(Op.NOP),
            asm_inst(Op.TRA, offset=1),
        ]

    def run_with_timer(self, ticks, **proc_kwargs):
        bm = BareMachine(**proc_kwargs)
        bm.add_code(8, self.spin_program(), ring=4)
        bm.start(8, 0, ring=4)
        bm.proc.set_timer(ticks)
        with pytest.raises(Fault) as excinfo:
            bm.run(max_steps=5000)
        assert excinfo.value.code is FaultCode.TIMER
        return (
            bm.proc.stats.instructions,
            bm.proc.cycles,
            bm.regs.a,
            bm.regs.ipr.wordno,
        )

    @pytest.mark.parametrize("ticks", [1, 2, 7, 50, 51, 52, 53])
    def test_timer_fires_after_exact_count(self, ticks):
        block = self.run_with_timer(ticks)
        fast = self.run_with_timer(ticks, tier="fast_path")
        slow = self.run_with_timer(ticks, tier="interp")
        assert block == fast == slow
        assert block[0] == ticks  # exactly `ticks` instructions retired

    @pytest.mark.parametrize("after", [1, 3, 49, 50, 51])
    def test_event_fires_after_exact_count(self, after):
        def run(**proc_kwargs):
            bm = BareMachine(**proc_kwargs)
            bm.add_code(8, self.spin_program(), ring=4)
            bm.start(8, 0, ring=4)
            bm.proc.schedule_event(after, FaultCode.IO_COMPLETION, "tick")
            with pytest.raises(Fault) as excinfo:
                bm.run(max_steps=5000)
            assert excinfo.value.code is FaultCode.IO_COMPLETION
            return (
                bm.proc.stats.instructions,
                bm.proc.cycles,
                bm.regs.a,
                bm.regs.ipr.wordno,
            )

        block = run()
        fast = run(tier="fast_path")
        slow = run(tier="interp")
        assert block == fast == slow
        assert block[0] == after


class TestRestoreControlUnit:
    """RCU reloads the registers the hot loops already hold."""

    @pytest.mark.parametrize("tier", TIERS)
    def test_rcu_inside_a_run_redirects_the_dispatcher(self, tier):
        bm = BareMachine(tier=tier)
        bm.add_segment(
            1,
            words=[
                asm_inst(Op.RCU),
                asm_inst(Op.ADA, offset=1, immediate=True),  # loop
                asm_inst(Op.TRA, offset=1),
            ],
            r1=0,
        )
        saved = RegisterFile()
        saved.ipr.set(0, 1, 1)
        bm.proc._save_stack.append(saved)
        bm.start(1, 0, ring=0)
        with pytest.raises(ConfigurationError, match="did not halt"):
            bm.run(max_steps=60)
        ipr = bm.regs.ipr
        # one RCU, then 59 alternating ADA/TRA steps ending on an ADA
        assert (ipr.ring, ipr.segno, ipr.wordno) == (0, 1, 2)
        assert bm.regs.a == 30
        assert bm.proc.stats.instructions == 60


class TestRunComposition:
    """``Machine.run(reset_counters=False)`` composes across runs."""

    def test_consecutive_runs_accumulate_and_attribute(self):
        machine, process = build_call_loop(count=8)
        first = machine.run(process, "caller$main", ring=4)
        second = machine.run(
            process, "caller$main", ring=4, reset_counters=False
        )
        # Cumulative counters kept growing...
        assert second.instructions == 2 * first.instructions
        assert second.cycles == 2 * first.cycles
        assert second.metrics.instructions == 2 * first.instructions
        # ...while the per-run delta attributes this run alone.
        assert second.run_metrics.instructions == first.instructions
        assert second.run_metrics.cycles == first.cycles
        # Architectural counters compose exactly; host-tier diagnostics
        # may also move during inter-run setup (block invalidations
        # from reloading the stack), so they are excluded.
        assert (
            second.metrics.architectural()
            == first.metrics.plus(second.run_metrics).architectural()
        )

    def test_reset_counters_default_still_isolates(self):
        machine, process = build_call_loop(count=8)
        first = machine.run(process, "caller$main", ring=4)
        second = machine.run(process, "caller$main", ring=4)
        assert second.instructions == first.instructions
        assert second.run_metrics == second.metrics

    def test_snapshot_arithmetic(self):
        zero = MetricsSnapshot.zero()
        one = zero.plus(zero)
        assert one == zero
        machine, process = build_call_loop(count=4)
        result = machine.run(process, "caller$main", ring=4)
        snap = result.metrics
        assert snap.minus(snap) == zero
        assert MetricsSnapshot.sum_of([snap, snap]) == snap.plus(snap)
        assert snap.minus(zero) == snap
