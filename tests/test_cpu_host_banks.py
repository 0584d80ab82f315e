"""Host-tier banks: a DBR switch swaps host caches instead of flushing.

Every descriptor segment keeps its own bank of PTLB entries, decoded
instructions, superblocks and compiled traces; a switch stores the
outgoing bank and restores the incoming one, while the SDW associative
memory is still cleared exactly as before.  Two groups of tests:

* **coherence** — a detached bank must never let the machine act on a
  stale view.  Code written, access revoked, or a segment deactivated
  while its process is switched out are all caught on the way back in,
  and time-sliced schedules land on the plain interpreter's figures;
* **contract** — what a switch leaves live, what switching back
  restores, the LRU bound, the checkpoint drop, SDW interning, and a
  trace that missed on a cold SDW memory hitting again in the same run.
"""

import pytest

from tests.helpers import BareMachine, asm_inst, halt_word
from repro.core.acl import AclEntry, RingBracketSpec
from repro.cpu.faults import Fault, FaultCode
from repro.cpu.isa import Op
from repro.cpu.processor import HANDLER_CONTINUE, MAX_BANKS
from repro.errors import MachineHalted
from repro.formats.sdw import SDW
from repro.mem.descriptor import DescriptorSegment
from repro.sim.machine import Machine
from repro.sim.metrics import MetricsSnapshot

USER_ACL = [AclEntry("*", RingBracketSpec.procedure(4))]
GATE_ACL = [AclEntry("*", RingBracketSpec.procedure(0, callable_from=5))]

#: call/return pairs per run: enough for the loop head to compile
COUNT = 300

CALLEE = """
        .seg    callee
        .gates  1
entry:: return  pr4|0
"""

CALLER = """
        .seg    caller
main::  lda     ={count}
loop:   eap4    back
        call    l_callee,*
back:   sba     =1
        tnz     loop
        ldq     l_data,*
        halt
l_callee: .its  callee$entry
l_data:   .its  data
"""

#: the host-tier configurations checked against the plain interpreter
TIERS = [
    {"tier": "jit"},
    {},
    {"tier": "fast_path"},
]
PLAIN = {"tier": "interp"}


def tier_id(tiers):
    return tiers.get("tier", "block")


def build_tenants(users=("alice", "bob"), count=COUNT, **machine_kwargs):
    """One machine, one process per user, all sharing one gate loop."""
    machine = Machine(services=False, **machine_kwargs)
    machine.store_program(">t>callee", CALLEE, acl=GATE_ACL)
    machine.store_program(
        ">t>caller", CALLER.format(count=count), acl=USER_ACL
    )
    machine.store_data(
        ">t>data", [77], acl=[AclEntry("*", RingBracketSpec.data(4))]
    )
    processes = {}
    for name in users:
        process = machine.login(machine.add_user(name))
        for path in (">t>caller", ">t>callee", ">t>data"):
            machine.initiate(process, path)
        processes[name] = process
    return machine, processes


def call(machine, process):
    """One run of the gate loop: everything that must match the
    plain interpreter."""
    result = machine.run(process, "caller$main", ring=4)
    return (
        result.a,
        result.q,
        result.ring,
        result.halted,
        result.faults,
        result.metrics.architectural(),
    )


def faulting_call(machine, process):
    """A run expected to abort: its fault code and the counters."""
    with pytest.raises(Fault) as excinfo:
        machine.run(process, "caller$main", ring=4)
    return (
        excinfo.value.code,
        MetricsSnapshot.collect(machine.processor).architectural(),
    )


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------


class TestSharedWriteWhileDetached:
    """B stores into a shared code segment A has a hot trace and blocks
    for; A re-attaches and executes the new words."""

    ITERATIONS = 2000

    def sequence(self, **proc_kwargs):
        bm = BareMachine(**proc_kwargs)
        proc = bm.proc
        bm.add_segment(
            8,
            words=[
                asm_inst(Op.LDA, offset=self.ITERATIONS, immediate=True),
                asm_inst(Op.SBA, offset=1, immediate=True),  # patched
                asm_inst(Op.TNZ, offset=1),
                halt_word(),
            ],
            r1=4,
        )
        # B's descriptor segment shares segment 8 and adds its patcher.
        dseg_b, dbr_b = DescriptorSegment.allocate(bm.memory, bound=64)
        dseg_b.set(8, bm.dseg.get(8))
        patcher = [
            asm_inst(Op.LDQ, offset=3),
            asm_inst(Op.STQ, offset=1, pr=1),  # into segment 8, word 1
            halt_word(),
            asm_inst(Op.SBA, offset=2, immediate=True),  # the new word
        ]
        block = bm.memory.allocate(len(patcher))
        bm.memory.load_image(block.addr, patcher)
        dseg_b.set(
            9,
            SDW(addr=block.addr, bound=len(patcher), r1=4, r2=4, r3=4,
                read=True, execute=True),
        )

        bm.start(8, 0, ring=4)
        bm.run(max_steps=10 * self.ITERATIONS)  # A: hot
        hot = (len(proc.jit_cache), len(proc.block_cache))
        proc.set_dbr(dbr_b)
        bm.start(9, 0, ring=4)
        bm.regs.prs[1].load(8, 0, 4)
        bm.run()  # B: patch A's loop body
        proc.set_dbr(bm.dbr)
        before = proc.stats.instructions
        bm.start(8, 0, ring=4)
        bm.run(max_steps=10 * self.ITERATIONS)  # A again
        executed = proc.stats.instructions - before
        observed = (
            executed,
            bm.regs.a,
            bm.regs.q,
            proc.cycles,
            proc.memory.reads,
            proc.memory.writes,
            proc.sdw_cache.hits,
            proc.sdw_cache.misses,
        )
        return observed, hot

    def test_new_words_execute_on_every_tier(self):
        jit, hot = self.sequence(tier="jit")
        assert hot[0] >= 1 and hot[1] >= 1  # A really had a trace and blocks
        # LDA, then half the iterations of SBA =2 / TNZ, then HALT
        assert jit[0] == 1 + self.ITERATIONS + 1
        plain, _ = self.sequence(tier="interp")
        assert jit == plain
        assert self.sequence()[0] == plain
        assert self.sequence(tier="fast_path")[0] == plain


class TestRevocationWhileDetached:
    """``update_access`` revokes A's gate while B is attached."""

    def sequence(self, **machine_kwargs):
        machine, procs = build_tenants(**machine_kwargs)
        alice, bob = procs["alice"], procs["bob"]
        out = [call(machine, alice) for _ in range(3)]
        out.append(call(machine, bob))
        changed = machine.supervisor.update_access(
            ">t>callee",
            machine.system_user,
            [AclEntry("bob", RingBracketSpec.procedure(0, callable_from=5))],
            processors=[machine.processor],
        )
        assert changed == 2
        out.append(faulting_call(machine, alice))
        out.append(call(machine, bob))
        return out

    @pytest.mark.parametrize("tiers", TIERS, ids=tier_id)
    def test_revoked_call_faults_as_on_the_plain_interpreter(self, tiers):
        observed = self.sequence(**tiers)
        assert observed[4][0] is FaultCode.MISSING_SEGMENT
        assert observed == self.sequence(**PLAIN)


class TestDeactivationWhileDetached:
    """A segment deactivated and reactivated while A is switched out."""

    def sequence(self, relocate, **machine_kwargs):
        machine, procs = build_tenants(**machine_kwargs)
        alice, bob = procs["alice"], procs["bob"]
        sup = machine.supervisor
        out = [call(machine, alice) for _ in range(3)]
        out.append(call(machine, bob))
        before = sup.active_by_name["callee"].placed.addr
        assert sup.deactivate(">t>callee", processors=[machine.processor])
        if relocate:
            # occupy the freed storage so reactivation lands elsewhere
            machine.store_data(
                ">t>filler", [0],
                acl=[AclEntry("*", RingBracketSpec.data(4))],
            )
            machine.initiate(bob, ">t>filler")
        out.append(call(machine, bob))  # B reactivates the callee
        moved = sup.active_by_name["callee"].placed.addr != before
        out.append(call(machine, alice))
        out.append(call(machine, alice))
        return out, moved

    @pytest.mark.parametrize("relocate", [False, True])
    @pytest.mark.parametrize("tiers", TIERS, ids=tier_id)
    def test_reactivated_segment_is_revalidated(self, tiers, relocate):
        observed, moved = self.sequence(relocate, **tiers)
        assert moved == relocate
        assert observed == self.sequence(relocate, **PLAIN)[0]


WORKER = """
        .seg    NAME
main::  lda     =COUNT
loop:   eap4    back
        call    l_callee,*
back:   aos     l_data,*
        sba     =1
        tnz     loop
        ldq     l_data,*
        halt
l_callee: .its  callee$entry
l_data:   .its  data
"""


def build_three_jobs(**machine_kwargs):
    """Three processes running different-length gate loops that all
    increment one shared data word."""
    machine, procs = build_tenants(
        users=("alice", "bob", "carol"), **machine_kwargs
    )
    refs = {}
    for n, (name, process) in enumerate(procs.items()):
        seg = f"w{name}"
        machine.store_program(
            f">t>{seg}",
            WORKER.replace("NAME", seg).replace("COUNT", str(40 + 25 * n)),
            acl=USER_ACL,
        )
        machine.initiate(process, f">t>{seg}")
        refs[name] = f"{seg}$main"
    return machine, procs, refs


class TestScheduler:
    """Round-robin schedules over three processes land on the plain
    interpreter's architectural counters."""

    def scheduled(self, quantum, **machine_kwargs):
        machine, procs, refs = build_three_jobs(**machine_kwargs)
        scheduler = machine.make_scheduler(quantum=quantum)
        jobs = [
            scheduler.add(process, refs[name], ring=4)
            for name, process in procs.items()
        ]
        scheduler.run()
        assert scheduler.all_halted
        return (
            [(job.instructions, job.cycles, job.quanta) for job in jobs],
            MetricsSnapshot.collect(machine.processor).architectural(),
            machine.processor.registers.q,
        )

    @pytest.mark.parametrize("quantum", [7, 50])
    @pytest.mark.parametrize("tiers", TIERS, ids=tier_id)
    def test_round_robin_matches_plain_interpreter(self, tiers, quantum):
        assert self.scheduled(quantum, **tiers) == self.scheduled(
            quantum, **PLAIN
        )

    def time_sliced(self, quantum, **machine_kwargs):
        """Switch processes from the TIMER handler, inside one
        ``Processor.run`` — the run loop's locals see every switch."""
        machine, procs, refs = build_three_jobs(**machine_kwargs)
        proc = machine.processor
        sup = machine.supervisor
        order = list(procs.values())
        saved = []
        for name, process in procs.items():
            machine.start(process, refs[name], ring=4)
            saved.append(proc.registers.snapshot())
        halted = set()
        current = [0]

        def load(index):
            # in place: the run loop holds the IPR object
            regs, state = proc.registers, saved[index]
            regs.ipr.set(state.ipr.ring, state.ipr.segno, state.ipr.wordno)
            for pr, value in zip(regs.prs, state.prs):
                pr.load(value.segno, value.wordno, value.ring)
            regs.a, regs.q, regs.crr = state.a, state.q, state.crr
            proc.set_dbr(order[index].dbr)
            proc.set_timer(quantum)
            current[0] = index

        def next_runnable():
            for step in range(1, len(order) + 1):
                index = (current[0] + step) % len(order)
                if index not in halted:
                    return index
            return None

        def handler(p, fault):
            if fault.code is not FaultCode.TIMER:
                return sup.handle_fault(p, order[current[0]], fault)
            saved[current[0]] = p.registers.snapshot()
            load(next_runnable())
            return HANDLER_CONTINUE

        results = []
        load(0)
        while True:
            proc.fault_handler = handler
            try:
                proc.run(max_steps=1_000_000)
            except MachineHalted:
                pass
            halted.add(current[0])
            results.append((current[0], proc.registers.a, proc.registers.q))
            index = next_runnable()
            if index is None:
                break
            load(index)
        return (
            results,
            MetricsSnapshot.collect(proc).architectural(),
        )

    @pytest.mark.parametrize("quantum", [13, 97])
    @pytest.mark.parametrize("tiers", TIERS, ids=tier_id)
    def test_timer_sliced_run_matches_plain_interpreter(self, tiers, quantum):
        assert self.time_sliced(quantum, **tiers) == self.time_sliced(
            quantum, **PLAIN
        )


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------


def live_sizes(proc):
    return (
        len(proc.access_cache),
        len(proc.inst_cache),
        len(proc.block_cache),
        len(proc.jit_cache),
    )


class TestSwitchContract:
    def warm(self, **machine_kwargs):
        machine, procs = build_tenants(tier="jit", **machine_kwargs)
        for _ in range(3):
            call(machine, procs["alice"])
        assert all(live_sizes(machine.processor))
        return machine, procs

    def test_switch_leaves_live_tiers_and_sdw_memory_empty(self):
        machine, procs = self.warm()
        proc = machine.processor
        proc.set_dbr(procs["bob"].dbr)
        assert live_sizes(proc) == (0, 0, 0, 0)
        assert not proc.sdw_cache._entries

    def test_switch_back_restores_the_bank(self):
        machine, procs = self.warm()
        proc = machine.processor
        warm = live_sizes(proc)
        proc.set_dbr(procs["bob"].dbr)
        proc.set_dbr(procs["alice"].dbr)
        assert live_sizes(proc) == warm
        assert not proc.sdw_cache._entries  # still cleared, as LDBR does
        call(machine, procs["alice"])
        stats = proc.jit_cache.stats()
        assert stats["hits"] >= 1
        assert stats["compiled"] == 0

    def test_reloading_the_same_dbr_keeps_its_contents(self):
        machine, procs = self.warm()
        proc = machine.processor
        warm = live_sizes(proc)
        proc.set_dbr(procs["alice"].dbr)
        assert live_sizes(proc) == warm
        assert not proc.sdw_cache._entries

    def test_ldbr_switches_banks_like_set_dbr(self):
        machine, procs = self.warm()
        proc = machine.processor
        warm = live_sizes(proc)
        proc.load_dbr_words(*procs["bob"].dbr.pack())
        assert live_sizes(proc) == (0, 0, 0, 0)
        proc.load_dbr_words(*procs["alice"].dbr.pack())
        assert live_sizes(proc) == warm

    @pytest.mark.parametrize("others", [MAX_BANKS - 1, MAX_BANKS])
    def test_least_recently_used_bank_is_evicted(self, others):
        bm = BareMachine(tier="jit")
        bm.add_segment(8, words=[asm_inst(Op.NOP), halt_word()], r1=4)
        bm.start(8, 0, ring=4)
        bm.run()
        warm = live_sizes(bm.proc)
        for _ in range(others):
            _, dbr = DescriptorSegment.allocate(bm.memory, bound=16)
            bm.proc.set_dbr(dbr)
        bm.proc.set_dbr(bm.dbr)
        if others < MAX_BANKS:  # MAX_BANKS descriptor segments in all
            assert live_sizes(bm.proc) == warm
        else:
            assert live_sizes(bm.proc) == (0, 0, 0, 0)

    def test_drop_host_caches_empties_every_bank(self):
        machine, procs = self.warm()
        call(machine, procs["bob"])
        proc = machine.processor
        proc.drop_host_caches()
        assert live_sizes(proc) == (0, 0, 0, 0)
        proc.set_dbr(procs["alice"].dbr)
        assert live_sizes(proc) == (0, 0, 0, 0)

    def test_invalidate_sdw_reaches_detached_banks(self):
        machine, procs = self.warm()
        proc = machine.processor
        callee = machine.supervisor.active_by_name["callee"].segno
        proc.set_dbr(procs["bob"].dbr)
        proc.invalidate_sdw(callee)
        proc.set_dbr(procs["alice"].dbr)
        assert all(key[0] != callee for key in proc.access_cache._entries)
        assert proc.inst_cache.get(callee, 0) is None
        assert proc.block_cache.get(callee, 0) is None
        assert callee not in proc.jit_cache._by_seg

    def test_trace_missing_on_cold_sdw_memory_hits_again_in_the_run(self):
        machine, procs = self.warm()
        call(machine, procs["bob"])
        figures = call(machine, procs["alice"])
        assert figures[5]["sdw_misses"] > 0  # the re-attach refetched
        stats = machine.processor.jit_cache.stats()
        assert stats["misses"] >= 1
        assert stats["hits"] >= 1
        assert stats["compiled"] == 0
        assert stats["jit_instructions"] > figures[5]["instructions"] // 2

    def test_identical_traces_share_one_code_object(self):
        machine, procs = self.warm()
        proc = machine.processor

        def code_objects():
            traces = proc.jit_cache._traces
            return {key: trace.fn.__code__ for key, trace in traces.items()}

        alice = code_objects()
        for _ in range(3):
            call(machine, procs["bob"])
        bob = code_objects()
        shared = set(alice) & set(bob)
        assert shared
        assert all(alice[key] is bob[key] for key in shared)


class TestSdwInterning:
    def test_same_descriptor_words_give_the_same_object(self):
        bm = BareMachine()
        bm.add_segment(8, words=[halt_word()])
        proc = bm.proc
        first = proc.fetch_sdw(8)
        proc.sdw_cache.invalidate(8)
        cycles, misses = proc.cycles, proc.sdw_cache.misses
        again = proc.fetch_sdw(8)
        assert again is first
        # the refetch is still charged and counted
        assert proc.cycles > cycles
        assert proc.sdw_cache.misses == misses + 1
        proc.warm_sdw_cache([8])
        assert proc.sdw_cache.peek(8) is first

    def test_changed_descriptor_gives_a_new_object(self):
        bm = BareMachine()
        old = bm.add_segment(8, words=[halt_word()])
        first = bm.proc.fetch_sdw(8)
        bm.dseg.set(8, old.with_flags(write=False))
        bm.proc.invalidate_sdw(8)
        changed = bm.proc.fetch_sdw(8)
        assert changed is not first
        assert not changed.write
