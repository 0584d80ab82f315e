"""The processor: instruction cycle, traps, and cycle accounting.

The instruction cycle follows the paper's narrative exactly:

1. **fetch** (Figure 4) — the next instruction's SDW is obtained and the
   ring of execution is matched against the execute bracket before the
   instruction word is read;
2. **effective address** (Figure 5) — when the instruction has an
   operand, the two-part address *and the effective ring* are formed in
   the TPR, validating each indirect-word retrieval on the way;
3. **perform** (Figures 6–9) — the operand reference is validated by
   group and the operation executed.

Any violation raises a :class:`~repro.cpu.faults.Fault`, "derailing the
instruction cycle": the processor charges the trap overhead, conceptually
switches to ring 0, and hands the fault to the installed supervisor
handler.  Without a handler (bare machine) the fault propagates to the
host caller — convenient for unit tests that assert on fault codes.

Cycle accounting is a deterministic cost model, not a timing claim: one
cycle per memory word moved (instruction words, operands, indirect
words, SDW fetches, page-table words) plus a per-instruction base cost
and a fixed trap overhead.  Relative costs — what the paper argues
about — are therefore meaningful.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import BracketOrderError, ConfigurationError, MachineHalted
from ..formats.instruction import Instruction
from ..hardening import AuthReturnStack, DomainMap, HardeningConfig
from ..formats.sdw import SDW, SDW_WORDS
from ..mem.descriptor import DBR
from ..mem.paging import PageFaultSignal, translate_paged
from ..mem.physical import PhysicalMemory
from ..words import HALF_MASK
from . import operations
from .access_cache import (
    DecodedInstructionCache,
    GROUP_EXECUTE,
    GROUP_READ,
    GROUP_WRITE,
    ValidatedTranslationCache,
)
from .address import form_effective_address
from .blockcache import (
    K_CALL,
    K_SIMPLE,
    SuperblockCache,
    build_superblock,
)
from .faults import Fault, FaultCode
from .isa import BY_NUMBER, Op
from .jit import (
    MISS_CHUNK as JIT_MISS_CHUNK,
    WARMUP_CHUNK as JIT_WARMUP_CHUNK,
    TraceCache,
    parity_requested,
)
from .registers import RegisterFile, STACK_PTR_PR, TPR
from .sdwcache import SDWCache
from .validate import validate_fetch, validate_read, validate_write

#: PTLB access-group -> slow-path validator (Figures 4 and 6).
_VALIDATORS = {
    GROUP_READ: validate_read,
    GROUP_WRITE: validate_write,
    GROUP_EXECUTE: validate_fetch,
}

#: Descriptor segments whose host-tier contents a processor keeps, the
#: live one included; the least recently loaded bank is dropped beyond.
MAX_BANKS = 64

#: Wholesale-flush ceiling on the table of interned SDWs.
MAX_INTERNED_SDWS = 4096

#: Action strings a fault handler may return.
HANDLER_RETRY = "retry"
HANDLER_CONTINUE = "continue"
HANDLER_ABORT = "abort"

#: Signature of a supervisor fault handler.
FaultHandler = Callable[["Processor", Fault], Optional[str]]


#: the execution tiers, slowest first: the plain interpreter (the
#: reference), the validated-translation fast path, superblocks, and
#: compiled traces.  Each tier runs on the ones before it, and every
#: tier produces the interpreter's architectural figures.
TIERS = ("interp", "fast_path", "block", "jit")


def resolve_tier(tier: Optional[str]) -> str:
    """The tier a machine built with ``tier`` runs: ``None`` picks
    ``"block"``, or ``"jit"`` when the ``REPRO_JIT_PARITY`` backstop
    asks for every trace to be co-executed."""
    if tier is None:
        return "jit" if parity_requested() else "block"
    if tier not in TIERS:
        raise ConfigurationError(
            f"unknown execution tier {tier!r}; expected one of {TIERS}"
        )
    return tier


@dataclass
class CostModel:
    """The deterministic cycle-cost parameters of the simulation.

    ``trap_overhead`` models what the hardware does on every trap —
    saving processor state, forcing ring 0, vectoring into the
    supervisor, and the eventual privileged restore — and is charged on
    top of whatever work the software handler itself performs.
    """

    #: cycles per word moved to or from memory
    memory_reference: int = 1
    #: base cycles per instruction, on top of its memory traffic
    instruction_base: int = 1
    #: cycles for trap entry + state save + restore instruction
    trap_overhead: int = 30
    #: extra cycles CALL/RETURN spend on ring bookkeeping (tiny: the
    #: paper stresses the "very small additional costs in hardware
    #: logic and processor speed", p. 39)
    ring_crossing_extra: int = 1
    #: cycles per MAC operation of the authenticated return stack
    #: (repro.hardening.authstack); charged once per downward CALL and
    #: once per verified upward RETURN when ``auth_return_stack`` is on
    auth_mac_cycles: int = 1


@dataclass
class ProcessorStats:
    """Counters the benchmarks and experiments read out."""

    instructions: int = 0
    faults: int = 0
    traps_delivered: int = 0
    calls: int = 0
    returns: int = 0
    ring_crossings: int = 0


class Processor:
    """One simulated processor attached to a physical memory.

    ``stack_rule`` selects the stack-segment selection rule for CALL:
    ``"simple"`` is the body-text rule (stack segno = new ring number);
    ``"dbr"`` is the footnote's refined rule (same-ring calls keep the
    current stack pointer's segment, cross-ring calls use
    ``DBR.STACK + new ring``).

    ``hardware_rings=False`` turns the processor into the Honeywell-645
    baseline: CALL and RETURN still run their full validation, but any
    ring change traps to the supervisor instead of being performed — the
    "before" machine of the paper's comparison.
    """

    def __init__(
        self,
        memory: PhysicalMemory,
        dbr: Optional[DBR] = None,
        cost: Optional[CostModel] = None,
        sdw_cache: Optional[SDWCache] = None,
        stack_rule: str = "dbr",
        hardware_rings: bool = True,
        nrings: int = 8,
        tier: Optional[str] = None,
        hardening: Optional[HardeningConfig] = None,
    ):
        if stack_rule not in ("simple", "dbr"):
            raise ConfigurationError(f"unknown stack rule {stack_rule!r}")
        if not 2 <= nrings <= 8:
            raise ConfigurationError(f"nrings must be in [2, 8], got {nrings}")
        #: the execution tier (one of :data:`TIERS`); each tier runs on
        #: top of the ones before it
        self.tier = resolve_tier(tier)
        level = TIERS.index(self.tier)
        fast_path, block_tier, jit_tier = level >= 1, level >= 2, level >= 3
        self.memory = memory
        self.dbr = dbr or DBR()
        self.cost = cost or CostModel()
        self.sdw_cache = sdw_cache or SDWCache()
        #: host-side fast path (see repro.cpu.access_cache): cycle
        #: accounting is identical with these on or off
        self.access_cache = ValidatedTranslationCache(enabled=fast_path)
        self.inst_cache = DecodedInstructionCache(enabled=fast_path)
        #: superblock execution tier (see repro.cpu.blockcache): also
        #: architecturally invisible, also an ablation knob
        self.block_cache = SuperblockCache(enabled=block_tier)
        #: trace-compile execution tier (see repro.cpu.jit): compiled
        #: traces above the superblocks, architecturally invisible
        self.jit_cache = TraceCache(
            enabled=jit_tier, parity=parity_requested()
        )
        if block_tier:
            # An SDW capacity eviction must stop any mid-flight block
            # or compiled trace of the victim segment: per-step
            # execution would pay (and charge) an SDW refetch at its
            # next instruction fetch.
            self.sdw_cache.on_evict = self._on_sdw_evict
        #: the host tiers in use, each with the same bank protocol
        #: (swap_out / swap_in / forget) and ``invalidate``
        self._host_tiers = tuple(
            tier
            for tier in (
                self.access_cache,
                self.inst_cache,
                self.block_cache,
                self.jit_cache,
            )
            if tier.enabled
        )
        #: (addr, bound, stack) of a detached descriptor segment -> its
        #: host-tier contents, one per tier, least recently loaded first
        self._banks: "OrderedDict[tuple, list]" = OrderedDict()
        #: (w0, w1) -> SDW: one object per descriptor value, so identity
        #: guards keyed to an SDW pass again after the SDW memory refills
        self._sdws: Dict[Tuple[int, int], SDW] = {}
        self.stack_rule = stack_rule
        self.hardware_rings = hardware_rings
        self.nrings = nrings
        #: hardening extensions (repro.hardening): each off by default
        self.hardening = hardening or HardeningConfig()
        self.auth_stack: Optional[AuthReturnStack] = (
            AuthReturnStack(self.hardening.auth_key_seed)
            if self.hardening.auth_return_stack
            else None
        )
        self.domains: Optional[DomainMap] = (
            DomainMap(self.hardening.domains)
            if self.hardening.ring_domains
            else None
        )
        self.nx_brackets = self.hardening.nx_brackets
        self.registers = RegisterFile()
        self.cycles = 0
        self.stats = ProcessorStats()
        self.fault_handler: Optional[FaultHandler] = None
        self.io_handler: Optional[Callable[["Processor", int], None]] = None
        self.trace_hook: Optional[Callable[[str], None]] = None
        #: snapshots pushed by trap delivery, popped by RCU
        self._save_stack: List[RegisterFile] = []
        self.halted = False
        #: scratch TPR the block executor's in-line EA formation reuses
        #: (handlers copy its fields and never retain the object)
        self._block_tpr = TPR()
        #: interval timer: instructions until a TIMER fault (None = off)
        self.timer: Optional[int] = None
        #: pending asynchronous events: [countdown, code, detail]
        self._events: List[list] = []

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------

    def charge(self, cycles: int) -> None:
        """Advance the simulated clock."""
        self.cycles += cycles

    def reset_counters(self) -> None:
        """Zero the clock and statistics (benchmark hygiene).

        Covers every counter a benchmark can read: the clock, the
        processor stats, memory traffic, and the hit/miss/invalidation
        statistics of the SDW associative memory and both fast-path
        tiers — otherwise warm-up runs pollute the measured figures.
        Cache *contents* survive, exactly like real hardware across a
        counter reset.
        """
        self.cycles = 0
        self.stats = ProcessorStats()
        self.memory.reset_counters()
        self.sdw_cache.reset_stats()
        self.access_cache.reset_stats()
        self.inst_cache.reset_stats()
        self.block_cache.reset_stats()
        self.jit_cache.reset_stats()

    def _on_sdw_evict(self, segno: int) -> None:
        """SDW capacity eviction: stop both upper execution tiers."""
        self.block_cache.pause_segment(segno)
        if self.jit_cache.enabled:
            self.jit_cache.pause_segment(segno)

    def drop_host_caches(self) -> None:
        """Empty every host-side cache and bank; counters and SDWs survive.

        Checkpoint hook: a snapshot never records host-tier contents, so
        a worker that keeps running past a checkpoint must continue from
        the same cold host caches a restored successor would start with
        — that is what keeps a snapshot-resumed replay bit-identical in
        *every* counter, host tiers included.
        """
        self._invalidate_host_tiers(None)

    def _invalidate_host_tiers(self, segno: Optional[int]) -> None:
        """Drop ``segno``'s host-tier entries (everything when None)
        from the live tiers and from every bank.

        Segment numbers are global across processes, so a segment's
        entries in a detached bank describe the same segment.
        """
        tiers = self._host_tiers
        for tier in tiers:
            tier.invalidate(segno)
        if segno is None:
            self._banks.clear()
            return
        for bank in self._banks.values():
            for tier, contents in zip(tiers, bank):
                tier.forget(contents, segno)

    def _sdw_of(self, w0: int, w1: int) -> SDW:
        """The interned SDW for one descriptor value.

        Raises :class:`~repro.errors.BracketOrderError` for corrupted
        descriptor words, exactly like :meth:`SDW.unpack`.
        """
        key = (w0, w1)
        sdw = self._sdws.get(key)
        if sdw is None:
            if len(self._sdws) >= MAX_INTERNED_SDWS:
                self._sdws.clear()
            sdw = self._sdws[key] = SDW.unpack(w0, w1)
        return sdw

    def warm_sdw_cache(self, segnos: List[int]) -> None:
        """Refill the SDW associative memory from descriptor memory.

        Restore hook for :mod:`repro.state.snapshot`: a snapshot records
        only which segment numbers were cached (in fill order), never the
        SDW bits — descriptor memory is authoritative.  The refill is
        uncharged and uncounted (no cycles, no memory traffic, no
        hit/miss accounting) so a restored machine continues with exactly
        the cycle and counter stream of the uninterrupted one.
        """
        self.sdw_cache._entries.clear()
        for segno in segnos:
            if segno >= self.dbr.bound:
                continue
            base = self.dbr.sdw_addr(segno)
            sdw = self._sdw_of(*self.memory.peek_block(base, SDW_WORDS))
            if sdw.present:
                self.sdw_cache._entries[segno] = sdw

    # ------------------------------------------------------------------
    # address translation and memory access
    # ------------------------------------------------------------------

    def fetch_sdw(self, segno: int, wordno: Optional[int] = None) -> SDW:
        """Obtain the SDW for ``segno``, via the associative memory.

        Faults when the segment number exceeds the descriptor bound or
        the segment is missing (present bit clear).  ``wordno`` is pure
        fault context: the word number the reference was aimed at (the
        linkage-fault machinery reads the link id out of it).
        """
        if segno >= self.dbr.bound:
            raise Fault(
                FaultCode.ACV_SEGNO_BOUND,
                segno=segno,
                wordno=wordno,
                cur_ring=self.registers.ipr.ring,
                detail=f"descriptor bound is {self.dbr.bound}",
            )
        sdw = self.sdw_cache.lookup(segno)
        if sdw is None:
            self.charge(self.cost.memory_reference * SDW_WORDS)
            base = self.dbr.sdw_addr(segno)
            w0 = self.memory.read(base)
            w1 = self.memory.read(base + 1)
            try:
                sdw = self._sdw_of(w0, w1)
            except BracketOrderError as exc:
                # Corrupted descriptor memory is a machine event, not a
                # host bug: trap so the supervisor can decide.
                raise Fault(
                    FaultCode.INVALID_SDW,
                    segno=segno,
                    cur_ring=self.registers.ipr.ring,
                    detail=str(exc),
                ) from None
            if sdw.present:
                self.sdw_cache.fill(segno, sdw)
        if not sdw.present:
            raise Fault(
                FaultCode.MISSING_SEGMENT,
                segno=segno,
                wordno=wordno,
                cur_ring=self.registers.ipr.ring,
            )
        return sdw

    def translate(self, sdw: SDW, segno: int, wordno: int) -> int:
        """Two-part address -> absolute address (transparent paging)."""
        if not sdw.paged:
            return sdw.addr + wordno
        self.charge(self.cost.memory_reference)  # the PTW fetch
        try:
            return translate_paged(self.memory, sdw.addr, wordno)
        except PageFaultSignal as sig:
            raise Fault(
                FaultCode.MISSING_PAGE,
                segno=segno,
                wordno=wordno,
                cur_ring=self.registers.ipr.ring,
                detail=f"page {sig.page_index}",
            ) from None

    def validate_access(
        self, segno: int, ring: int, wordno: int, group: str
    ) -> Tuple[SDW, Optional[FaultCode]]:
        """``fetch_sdw`` + Figure 4/6 validation, memoized in the PTLB.

        Returns ``(sdw, code)`` with ``code`` None on success; raises
        :class:`~repro.cpu.faults.Fault` exactly like :meth:`fetch_sdw`
        for descriptor-bound and missing-segment conditions.

        A PTLB entry is honoured only while the SDW associative memory
        still holds the identical SDW object, so any eviction, refetch,
        or supervisor invalidation retires it automatically; the bound
        check is repeated per word because the word number is not part
        of the key.  On a hit the counters a slow-path reference would
        have bumped (an SDW-cache hit) are mirrored and no cycles are
        charged — exactly what the slow path does when the SDW is in
        the associative memory, which the identity check guarantees.

        With ``ring_domains`` on, the domain check runs *before* the
        PTLB consult on every reference: the PTLB key carries no
        executing segment, so a validation cached for code in one
        domain must not be honoured for code in another.  Ring 0 is
        outside the domain system — domains compartmentalize the
        non-privileged rings the way LOTRx86's domains partition user
        mode, and the supervisor must reach every compartment to
        service it.  With ``nx_brackets`` on, an execute validation of
        a segment that is also writable fails with ``ACV_NX`` (W^X);
        the check lives on the slow path only, which is sound because
        failed validations are never cached.
        """
        domains = self.domains
        if domains is not None:
            ipr = self.registers.ipr
            if ipr.ring != 0:
                target_domain = domains.by_segno.get(segno)
                if target_domain is not None and target_domain != (
                    domains.by_segno.get(ipr.segno)
                ):
                    raise Fault(
                        FaultCode.ACV_DOMAIN,
                        segno=segno,
                        wordno=wordno,
                        ring=ring,
                        cur_ring=ipr.ring,
                        detail=f"target domain {target_domain!r}",
                    )
        cache = self.access_cache
        if cache.enabled:
            sdw = cache._entries.get((segno, ring, group))
            if (
                sdw is not None
                and self.sdw_cache._entries.get(segno) is sdw
                and wordno < sdw.bound
            ):
                cache.hits += 1
                self.sdw_cache.hits += 1
                return sdw, None
            cache.misses += 1
        sdw = self.fetch_sdw(segno, wordno)
        if (
            self.nx_brackets
            and group is GROUP_EXECUTE
            and sdw.execute
            and sdw.write
        ):
            return sdw, FaultCode.ACV_NX
        code = _VALIDATORS[group](sdw, ring, wordno)
        if code is None and cache.enabled:
            cache._entries[(segno, ring, group)] = sdw
        return sdw, code

    def read_word(self, sdw: SDW, segno: int, wordno: int) -> int:
        """Charged, translated read of one virtual word (pre-validated)."""
        addr = self.translate(sdw, segno, wordno)
        self.charge(self.cost.memory_reference)
        return self.memory.read(addr)

    def write_word(self, sdw: SDW, segno: int, wordno: int, value: int) -> None:
        """Charged, translated write of one virtual word (pre-validated)."""
        addr = self.translate(sdw, segno, wordno)
        self.charge(self.cost.memory_reference)
        self.memory.write(addr, value)
        # Self-modifying code: drop the decoded entry and any superblock
        # covering the written word (writes the processor cannot see are
        # caught by the word-compare backstops on the next fetch or
        # block entry).
        if self.inst_cache.enabled:
            self.inst_cache.invalidate_word(segno, wordno)
        if self.block_cache.enabled:
            self.block_cache.invalidate_word(segno, wordno)
        if self.jit_cache.enabled:
            self.jit_cache.invalidate_word(segno, wordno)

    # ------------------------------------------------------------------
    # instruction cycle
    # ------------------------------------------------------------------

    def fetch_instruction(self) -> tuple:
        """Figure 4: validate, retrieve, and decode the next instruction.

        Returns the decoded-instruction-cache entry tuple
        ``(word, op, inst, needs_ea, handler)``; see
        :class:`~repro.cpu.access_cache.DecodedInstructionCache`.  The
        instruction word is always read (and charged) through the
        normal translated path; only the host-side decode work is
        memoized, and a cached decode is used only when the word just
        read equals the word it was decoded from.
        """
        ipr = self.registers.ipr
        segno, wordno, ring = ipr.segno, ipr.wordno, ipr.ring
        sdw, code = self.validate_access(segno, ring, wordno, GROUP_EXECUTE)
        if code is not None:
            raise Fault(
                code,
                segno=segno,
                wordno=wordno,
                ring=ring,
                cur_ring=ring,
                detail="instruction fetch",
            )
        word = self.read_word(sdw, segno, wordno)
        icache = self.inst_cache
        if icache.enabled:
            seg = icache._entries.get(segno)
            if seg is not None:
                entry = seg.get(wordno)
                if entry is not None and entry[0] == word:
                    icache.hits += 1
                    return entry
            icache.misses += 1
        inst = Instruction.unpack(word)
        op = BY_NUMBER.get(inst.opcode)
        if op is None:
            raise Fault(
                FaultCode.ILLEGAL_OPCODE,
                segno=segno,
                wordno=wordno,
                cur_ring=ring,
                detail=f"opcode {inst.opcode:#o}",
            )
        entry = (
            word,
            op,
            inst,
            operations.needs_effective_address(op, inst),
            operations.resolve_handler(op, inst),
        )
        if icache.enabled:
            icache.fill(segno, wordno, entry)
        return entry

    def step(self) -> None:
        """Execute one instruction, delivering any fault it raises."""
        ipr = self.registers.ipr
        at = (ipr.ring, ipr.segno, ipr.wordno)
        try:
            self.charge(self.cost.instruction_base)
            _, op, inst, needs_ea, handler = self.fetch_instruction()
            if op.privileged and ipr.ring != 0:
                raise Fault(
                    FaultCode.ACV_PRIVILEGED,
                    segno=ipr.segno,
                    wordno=ipr.wordno,
                    cur_ring=ipr.ring,
                    detail=op.name,
                )
            self.registers.ipr.advance()
            tpr: Optional[TPR] = None
            if needs_ea:
                tpr = form_effective_address(self, inst)
            before_ring = self.registers.ipr.ring
            try:
                if handler is not None:
                    handler(self, inst, tpr)
                else:
                    operations.execute(self, op, inst, tpr)
            except MachineHalted:
                self.stats.instructions += 1
                raise
            # Completed instructions only: a CALL that faulted (e.g. for
            # demand initiation) and is retried must not double-count.
            if op is Op.CALL:
                self.stats.calls += 1
            elif op is Op.RETURN:
                self.stats.returns += 1
            if self.registers.ipr.ring != before_ring:
                self.stats.ring_crossings += 1
                self.charge(self.cost.ring_crossing_extra)
            self.stats.instructions += 1
            if self.trace_hook is not None:
                self.trace_hook(
                    f"({at[0]},{at[1]},{at[2]}) {op.name} "
                    f"-> ring {self.registers.ipr.ring}"
                )
        except Fault as fault:
            fault.at_segno, fault.at_wordno = at[1], at[2]
            if fault.cur_ring is None:
                fault.cur_ring = at[0]
            self._deliver_fault(fault, at)
            return
        # Only completed instructions advance the interval timer and the
        # event countdowns; both are delivered *between* instructions so
        # the interrupted computation is resumable.
        self._tick_timer()
        self._tick_events()

    def set_timer(self, instructions: Optional[int]) -> None:
        """Arm (or disarm with None) the interval timer.

        When the count reaches zero a TIMER fault fires *between*
        instructions — the interrupted computation is resumable exactly
        where it stopped, which is what makes the timer usable for
        preemption and runaway control.
        """
        if instructions is not None and instructions <= 0:
            raise ConfigurationError("timer count must be positive")
        self.timer = instructions

    def schedule_event(
        self, after_instructions: int, code: FaultCode, detail: str = ""
    ) -> None:
        """Arrange an asynchronous event (I/O completion and the like).

        After ``after_instructions`` further completed instructions a
        fault of ``code`` is delivered between instructions — the
        device-interrupt model: the running program is oblivious, the
        supervisor fields the event and returns control.
        """
        if after_instructions <= 0:
            raise ConfigurationError("event delay must be positive")
        self._events.append([after_instructions, code, detail])

    @property
    def pending_events(self) -> int:
        """Number of scheduled events that have not yet fired."""
        return len(self._events)

    def _tick_events(self) -> None:
        if not self._events:
            return
        due = []
        for event in self._events:
            event[0] -= 1
            if event[0] <= 0:
                due.append(event)
        for event in due:
            self._events.remove(event)
            ipr = self.registers.ipr
            fault = Fault(
                event[1],
                cur_ring=ipr.ring,
                at_segno=ipr.segno,
                at_wordno=ipr.wordno,
                detail=event[2],
            )
            self._deliver_fault(fault, (ipr.ring, ipr.segno, ipr.wordno))

    def _tick_timer(self) -> None:
        if self.timer is None:
            return
        self.timer -= 1
        if self.timer > 0:
            return
        self.timer = None
        ipr = self.registers.ipr
        fault = Fault(
            FaultCode.TIMER,
            cur_ring=ipr.ring,
            at_segno=ipr.segno,
            at_wordno=ipr.wordno,
            detail="interval timer runout",
        )
        # Delivered between instructions: "retry" and "continue" agree.
        self._deliver_fault(fault, (ipr.ring, ipr.segno, ipr.wordno))

    def run(self, max_steps: int = 1_000_000) -> int:
        """Run until HALT; returns the number of instructions executed.

        Raises :class:`~repro.errors.ConfigurationError` if the step
        budget is exhausted (runaway program) and propagates unhandled
        faults when no supervisor is installed.  With the superblock
        tier enabled the loop dispatches through discovered blocks; the
        simulated figures are bit-identical either way.
        """
        self.halted = False
        if self.block_cache.enabled:
            return self._run_blocks(max_steps)
        for _ in range(max_steps):
            try:
                self.step()
            except MachineHalted:
                self.halted = True
                return self.stats.instructions
        self._runaway(max_steps)

    def _runaway(self, max_steps: int) -> None:
        raise ConfigurationError(
            f"program did not halt within {max_steps} steps "
            f"(at ring {self.registers.ipr.ring}, segment "
            f"{self.registers.ipr.segno}, word {self.registers.ipr.wordno})"
        )

    # ------------------------------------------------------------------
    # superblock execution tier (see repro.cpu.blockcache)
    # ------------------------------------------------------------------

    def _run_blocks(self, max_steps: int) -> int:
        """The block-dispatch run loop.

        Each iteration either executes one superblock (consuming as many
        step slots as instructions attempted), builds a block at a hot
        address (free: pure host work), or falls back to one
        :meth:`step`.  Tracing disables block dispatch so the per-step
        hook fires for every instruction.
        """
        blocks = self.block_cache
        table = blocks._blocks
        jit = self.jit_cache
        jit_on = jit.enabled
        traces = jit._traces
        ipr = self.registers.ipr
        remaining = max_steps
        while remaining > 0:
            if self.trace_hook is None:
                segno = ipr.segno
                wordno = ipr.wordno
                seg = table.get(segno)
                block_budget = remaining
                if jit_on:
                    # The trace tier dispatches above the blocks: a
                    # compiled trace at this (segno, wordno, ring) runs
                    # first; a hot trace-less head records one (the
                    # recording itself single-steps, so it is exact).
                    # While a head is still warming toward a trace the
                    # superblock budget below is clamped — block chains
                    # would otherwise swallow the whole run in a single
                    # dispatch and the head could never get hot.  The
                    # clamp also keeps the block tier executing (and
                    # its diagnostic counters meaningful) before the
                    # first trace records.
                    tkey = (segno, wordno, ipr.ring)
                    trace = traces.get(tkey)
                    if trace is not None:
                        consumed = jit.execute(self, trace, remaining)
                        if consumed:
                            remaining -= consumed
                            continue
                        # The entry guard missed — typically on a cold
                        # SDW memory after a re-attach.  Clamp the
                        # blocks so the head re-dispatches soon.
                        block_budget = min(remaining, JIT_MISS_CHUNK)
                    elif jit.note_dispatch(tkey):
                        consumed, halted = jit.record_and_compile(
                            self, remaining
                        )
                        if halted:
                            self.halted = True
                            return self.stats.instructions
                        if consumed:
                            remaining -= consumed
                            continue
                    elif jit.warming(tkey):
                        block_budget = min(remaining, JIT_WARMUP_CHUNK)
                block = None if seg is None else seg.get(wordno)
                if block is None:
                    if blocks.note_dispatch(segno, wordno) and self._build_block(
                        segno, wordno
                    ):
                        continue
                elif block.entries:
                    consumed = self._enter_block(block, block_budget)
                    if consumed:
                        remaining -= consumed
                        continue
                blocks.misses += 1
            try:
                self.step()
            except MachineHalted:
                self.halted = True
                return self.stats.instructions
            remaining -= 1
        self._runaway(max_steps)

    def _build_block(self, segno: int, wordno: int) -> bool:
        """Decode and install the superblock starting at ``wordno``.

        Requires the segment's SDW to be in the associative memory
        already (the prior per-step executions that made the address hot
        guarantee it) and the segment to be unpaged — paged code keeps
        per-word translation on the per-step path.  Returns True when a
        non-empty block is now installed.
        """
        sdw = self.sdw_cache._entries.get(segno)
        if sdw is None or sdw.paged or wordno >= sdw.bound:
            return False
        block = build_superblock(
            self.memory._words, sdw.addr, wordno, sdw.bound
        )
        self.block_cache.install(segno, block)
        return bool(block.entries)

    def _enter_block(self, block, budget: int) -> int:
        """Validate and execute superblocks; returns steps consumed.

        Returns 0 (and touches nothing) when the entry conditions fail
        and the dispatcher must fall back to :meth:`step`.  Otherwise
        executes up to ``budget`` entries — further bounded by the
        nearest pending timer/event countdown so every tick still lands
        *between* instructions — **chaining** into the next discovered
        block whenever a terminal leaves the IPR in the same segment at
        the same ring (the one validation covers any block of that
        ``(segno, ring)``; only the bound and word-compare checks rerun
        per chained block).  Applies, in batch, exactly the counter
        updates per-step execution would have made: cycles, memory
        reads, SDW/PTLB/icache hit mirrors, and the interval
        decrements.  A fault mid-block is delivered with the identical
        context (and identical partial charges) per-step delivery would
        have produced.
        """
        ipr = self.registers.ipr
        segno = ipr.segno
        ring = ipr.ring
        cache = self.access_cache
        # One validation covers the whole block: the PTLB entry proves
        # (segno, ring, execute) passed against this exact SDW, and the
        # bound check on the last word covers every word of the block.
        sdw = cache._entries.get((segno, ring, GROUP_EXECUTE))
        if (
            sdw is None
            or self.sdw_cache._entries.get(segno) is not sdw
            or sdw.paged
            or block.last >= sdw.bound
        ):
            return 0
        # Blocks are bounded by the nearest pending timer/event
        # countdown: at most (countdown - 1) instructions execute here,
        # so the batch decrement below can never reach zero mid-block
        # and the tick fires between instructions on the per-step path.
        limit = budget
        timer = self.timer
        if timer is not None:
            if timer <= 1:
                return 0
            if timer - 1 < limit:
                limit = timer - 1
        events = self._events
        if events:
            soonest = min(event[0] for event in events)
            if soonest <= 1:
                return 0
            if soonest - 1 < limit:
                limit = soonest - 1
        # Word-compare backstop: each word about to execute must equal
        # the word it was decoded from (catches supervisor load_image
        # patches that announce no invalidation).
        blocks = self.block_cache
        words = self.memory._words
        seg_addr = sdw.addr
        bound = sdw.bound
        entries = block.entries
        n = len(entries)
        if n > limit:
            n = limit
        base = seg_addr + block.start
        block_words = block.words
        if words[base : base + n] != (
            block_words if n == len(block_words) else block_words[:n]
        ):
            blocks.discard(segno, block)
            return 0
        regs = self.registers
        prs = regs.prs
        scratch = self._block_tpr
        stats = self.stats
        cost = self.cost
        fetch_cycles = cost.instruction_base + cost.memory_reference
        crossing_extra = cost.ring_crossing_extra
        seg_table = blocks._blocks.get(segno) or {}
        start = block.start
        cycles_acc = 0
        executed = 0
        idx = 0
        blocks.hits += 1
        try:
            while True:
                entry = entries[idx]
                kind = entry[3]
                # Per-step order: charge base + fetch, advance, form the
                # effective address, perform.  The fetch's counters are
                # accumulated locally and flushed on every exit path.
                cycles_acc += fetch_cycles
                ipr.wordno = (start + idx + 1) & HALF_MASK
                if kind == K_SIMPLE:
                    entry[2](self, entry[1], None)
                else:
                    _, inst, handler, _, indirect, offset, indexed, prflag, prnum = entry
                    if indirect:
                        tpr = form_effective_address(self, inst)
                    else:
                        # In-line direct EA (form_effective_address's
                        # non-indirect fast case with ipr.ring == ring
                        # and ipr.segno == segno, both loop invariants).
                        # The scratch TPR is safe to reuse: handlers
                        # copy its fields and never retain the object.
                        if indexed:
                            offset = (offset + (regs.a & HALF_MASK)) & HALF_MASK
                        tpr = scratch
                        if prflag:
                            pr = prs[prnum]
                            pring = pr.ring
                            tpr.ring = pring if pring > ring else ring
                            tpr.segno = pr.segno
                            tpr.wordno = (pr.wordno + offset) & HALF_MASK
                        else:
                            tpr.ring = ring
                            tpr.segno = segno
                            tpr.wordno = offset
                    handler(self, inst, tpr)
                    if kind >= K_CALL:  # CALL / RETURN bookkeeping
                        if kind == K_CALL:
                            stats.calls += 1
                        else:
                            stats.returns += 1
                        if ipr.ring != ring:
                            stats.ring_crossings += 1
                            cycles_acc += crossing_extra
                executed += 1
                idx += 1
                if not block.valid:
                    break  # the block rewrote itself: stop trusting it
                if idx < n:
                    continue
                if executed >= limit:
                    break
                # Chain into the next discovered block.  Same segment,
                # same ring: the entry validation still covers it, only
                # the bound and word checks rerun.  A CALL, RETURN, or
                # cross-segment transfer changed (segno, ring): rerun
                # the full PTLB validation for the new pair, exactly
                # the dispatch-time entry check.
                new_segno = ipr.segno
                new_ring = ipr.ring
                if new_segno != segno or new_ring != ring:
                    sdw = cache._entries.get(
                        (new_segno, new_ring, GROUP_EXECUTE)
                    )
                    if (
                        sdw is None
                        or self.sdw_cache._entries.get(new_segno) is not sdw
                        or sdw.paged
                    ):
                        break
                    seg_table = blocks._blocks.get(new_segno)
                    if seg_table is None:
                        break
                    segno = new_segno
                    ring = new_ring
                    seg_addr = sdw.addr
                    bound = sdw.bound
                nxt = seg_table.get(ipr.wordno)
                if (
                    nxt is None
                    or not nxt.valid
                    or not nxt.entries
                    or nxt.last >= bound
                ):
                    break
                m = len(nxt.entries)
                remaining = limit - executed
                if m > remaining:
                    m = remaining
                base = seg_addr + nxt.start
                block_words = nxt.words
                if words[base : base + m] != (
                    block_words if m == len(block_words) else block_words[:m]
                ):
                    blocks.discard(segno, nxt)
                    break
                block = nxt
                entries = nxt.entries
                start = nxt.start
                n = m
                idx = 0
                blocks.hits += 1
        except Fault as fault:
            # The faulting attempt charged its fetch (base + word read +
            # mirrored validation hits) before derailing, exactly like
            # fetch_instruction does per-step.
            attempts = executed + 1
            self.cycles += cycles_acc
            self.memory.reads += attempts
            self.sdw_cache.hits += attempts
            cache.hits += attempts
            self.inst_cache.hits += attempts
            stats.instructions += executed
            blocks.block_instructions += executed
            if timer is not None:
                self.timer = timer - executed
            for event in events:
                event[0] -= executed
            at = (ring, segno, start + idx)
            fault.at_segno, fault.at_wordno = at[1], at[2]
            if fault.cur_ring is None:
                fault.cur_ring = ring
            self._deliver_fault(fault, at)
            return attempts
        self.cycles += cycles_acc
        self.memory.reads += executed
        self.sdw_cache.hits += executed
        cache.hits += executed
        self.inst_cache.hits += executed
        stats.instructions += executed
        blocks.block_instructions += executed
        if timer is not None:
            self.timer = timer - executed
        for event in events:
            event[0] -= executed
        return executed

    # ------------------------------------------------------------------
    # traps
    # ------------------------------------------------------------------

    def _deliver_fault(self, fault: Fault, at: Tuple[int, int, int]) -> None:
        """Trap: save state, force ring 0, invoke the supervisor handler.

        With no handler installed the fault propagates to the host (the
        bare-machine mode unit tests rely on).
        """
        self.stats.faults += 1
        if self.fault_handler is None:
            raise fault
        self.stats.traps_delivered += 1
        self.charge(self.cost.trap_overhead)
        depth = len(self._save_stack)
        self._save_stack.append(self.registers.snapshot())
        # The handler conceptually executes in ring 0 at the trap vector.
        action = self.fault_handler(self, fault)
        if action == HANDLER_ABORT:
            # The aborted program is done with: discard everything this
            # trap pushed, or an attack that faults repeatedly would
            # grow the save stack without bound (and leak the aborted
            # registers into snapshots).
            del self._save_stack[depth:]
            raise fault
        if action == HANDLER_RETRY:
            ring, segno, wordno = at
            self.registers.ipr.set(ring, segno, wordno)
        # HANDLER_CONTINUE (or None after the handler rewrote the IPR):
        # execution proceeds wherever the registers now point.  Pop our
        # frame only if the handler did not already consume it via RCU.
        if len(self._save_stack) > depth:
            self._save_stack.pop()

    def restore_control_unit(self) -> None:
        """RCU: reload the register state saved at the last trap."""
        if not self._save_stack:
            raise Fault(
                FaultCode.ILLEGAL_OPCODE,
                cur_ring=self.registers.ipr.ring,
                detail="RCU with no saved state",
            )
        self.registers.restore(self._save_stack.pop())

    # ------------------------------------------------------------------
    # instruction support (called from repro.cpu.operations)
    # ------------------------------------------------------------------

    def stack_segno_for_call(self, new_ring: int, old_ring: int) -> int:
        """The stack-segment selection rule (paper p. 30 + footnote)."""
        if self.stack_rule == "simple":
            return new_ring
        if new_ring == old_ring:
            return self.registers.pr(STACK_PTR_PR).segno
        return self.dbr.stack_segno(new_ring)

    def load_dbr_words(self, w0: int, w1: int) -> None:
        """LDBR: install a new DBR and clear the SDW associative memory.

        The host tiers switch banks exactly as in :meth:`set_dbr`.
        """
        self.set_dbr(DBR.unpack(w0, w1))

    def set_dbr(self, dbr: DBR) -> None:
        """Switch descriptor segments (process dispatch, and LDBR).

        The SDW associative memory is cleared, as the hardware does: its
        misses are charged, so what it holds is part of the simulated
        timing.  The host tiers — PTLB, decoded instructions,
        superblocks and traces, with their hotness tables — are banked
        instead: the live contents are stored under the outgoing
        descriptor segment's ``(addr, bound, stack)`` and the incoming
        one's bank is made live, or the tiers start empty.  Reloading
        the descriptor segment already loaded keeps its contents live.

        Banking is architecturally invisible.  A restored entry is used
        only after its guards pass — PTLB and trace entries pin SDWs by
        identity (interned by descriptor words, so an unchanged
        descriptor refetched into the SDW memory is the same object),
        and decodes, blocks and traces compare their code words with
        memory — so stores and descriptor changes made while a bank was
        detached are caught on the way back in.  Contents are swapped
        in place: the run loop holds the live tables in locals, and a
        fault handler may switch processes between its slices.
        """
        old = self.dbr
        self.dbr = dbr
        self.sdw_cache.invalidate()
        old_key = (old.addr, old.bound, old.stack)
        new_key = (dbr.addr, dbr.bound, dbr.stack)
        if new_key == old_key or not self._host_tiers:
            return
        banks = self._banks
        banks[old_key] = [tier.swap_out() for tier in self._host_tiers]
        bank = banks.pop(new_key, None)
        if bank is not None:
            for tier, contents in zip(self._host_tiers, bank):
                tier.swap_in(contents)
        while len(banks) >= MAX_BANKS:  # the live bank counts too
            banks.popitem(last=False)

    def connect_io(self, word: int) -> None:
        """CIOC: hand a channel-program word to the attached I/O system."""
        if self.io_handler is not None:
            self.io_handler(self, word)

    def invalidate_sdw(self, segno: Optional[int] = None) -> None:
        """Supervisor notification that SDWs changed in memory.

        Clears the affected entries in the SDW associative memory and
        in every host tier and bank, making the change immediately
        effective (paper p. 9): the next reference revalidates against
        the descriptor segment's current contents.
        """
        self.sdw_cache.invalidate(segno)
        self._invalidate_host_tiers(segno)
