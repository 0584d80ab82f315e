"""The ring-0 supervisor.

This is the software the paper assumes around its hardware: the trap
handler, the segment-activation machinery (file system -> virtual
memory), and the I/O hook behind the privileged CIOC instruction.

It is implemented as host-Python "firmware" invoked by the processor's
trap machinery rather than as simulated ring-0 assembly; the cost model
charges the trap overhead and per-service work so that timing-shaped
experiments remain meaningful, and the *gate services* user programs
call explicitly (see :mod:`repro.krnl.services`) are genuine ring-0
machine code reached through genuine hardware gates — the part the
paper is about is never short-circuited.

Segment numbering: active segments receive globally unique segment
numbers (shared across processes).  Real Multics allows per-process
numbering and pays with per-process linkage sections; the global scheme
is a documented simplification (DESIGN.md) that affects no ring
mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cpu.faults import Fault, FaultCode
from ..cpu.processor import (
    HANDLER_ABORT,
    HANDLER_CONTINUE,
    HANDLER_RETRY,
    Processor,
)
from ..errors import AccessDenied, ConfigurationError, LinkError
from ..formats.sdw import SDW
from ..mem.physical import PhysicalMemory
from ..mem.segment import SegmentImage
from .baseline645 import SoftwareRingAssist
from .callret import UpwardCallAssist
from .filesystem import FileSystem
from .loader import Loader, PlacedSegment
from .process import FIRST_FREE_SEGNO, Process
from .users import User, UserRegistry

#: Cycles charged for servicing a missing page in software.
PAGE_SERVICE_CYCLES = 40

#: Cycles charged for demand-initiating a missing segment.
SEGMENT_SERVICE_CYCLES = 80

#: Instructions between starting an asynchronous I/O and its completion.
IO_LATENCY = 25

#: Cycles charged for fielding one I/O-completion event.
IO_COMPLETION_CYCLES = 15

#: Most recent aborted faults retained for post-mortems.  Long-lived
#: serving machines field an unbounded stream of (expected) attack
#: faults; the diagnostic log must not grow with them.
ABORT_LOG_LIMIT = 64


@dataclass
class ActiveSegment:
    """A file-system segment currently placed in physical memory."""

    path: str
    segno: int
    placed: PlacedSegment
    image: SegmentImage
    links_resolved: bool = False


@dataclass
class ConsoleRecord:
    """One CIOC console transmission."""

    word: int
    ring: int


class Supervisor:
    """Owns the shared system state and fields all traps."""

    def __init__(
        self,
        memory: PhysicalMemory,
        filesystem: Optional[FileSystem] = None,
        users: Optional[UserRegistry] = None,
    ):
        self.memory = memory
        self.fs = filesystem or FileSystem()
        self.users = users or UserRegistry()
        self.loader = Loader(memory)
        self.active: Dict[str, ActiveSegment] = {}
        self.active_by_name: Dict[str, ActiveSegment] = {}
        self.active_by_segno: Dict[int, ActiveSegment] = {}
        self._next_segno = FIRST_FREE_SEGNO
        self.processes: List[Process] = []
        self.console: List[ConsoleRecord] = []
        self.console_chars: List[str] = []
        self._io_in_flight: List[ConsoleRecord] = []
        self._assists: Dict[int, UpwardCallAssist] = {}
        self._soft_rings: Dict[int, SoftwareRingAssist] = {}
        #: faults the supervisor refused to handle, for post-mortems
        #: (bounded: only the most recent ABORT_LOG_LIMIT are retained)
        self.aborted_faults: List[Fault] = []
        #: use paged storage for newly activated segments
        self.paged = False
        #: defer inter-segment link resolution to linkage faults
        self.lazy_linking = False
        #: arm the interval timer with this count at attach time
        self.timer_quantum: Optional[int] = None
        #: abort a process after this many timer runouts (None = never)
        self.timer_limit: Optional[int] = None
        self._timer_counts: Dict[int, int] = {}
        #: segment numbers pinned by deactivation for later reactivation
        self._reserved_segnos: Dict[str, int] = {}
        #: sole-occupant registry: (process id, ring) -> owner name
        self._ring_occupants: Dict[tuple, str] = {}
        #: rings subject to the sole-occupant rule (the protected
        #: subsystem rings of the paper's layering, p. 36)
        self.subsystem_rings = (2, 3)
        #: the process most recently attached to a processor (what a
        #: machine snapshot must re-attach so fault/io handlers exist)
        self.attached_process: Optional[Process] = None
        #: the processor's DomainMap when ring_domains is on (set by
        #: Machine): initiation binds segment numbers to their
        #: configured domains as segments become known
        self.domains = None
        from .linkage import LinkageManager

        self.linkage = LinkageManager(self.loader)

    # ------------------------------------------------------------------
    # segment numbering
    # ------------------------------------------------------------------

    def next_segno(self) -> int:
        """Allocate a fresh global segment number."""
        segno = self._next_segno
        self._next_segno += 1
        return segno

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def create_process(
        self,
        user: User,
        descriptor_bound: int = 128,
        stack_base_segno: int = 0,
    ) -> Process:
        """Log a user in: build their process and virtual memory.

        ``stack_base_segno`` relocates the eight per-ring stacks (only
        meaningful with the DBR stack-selection rule; see experiment A1).
        """
        # Relocated stacks occupy segment numbers the global allocator
        # must never hand out.
        from .process import STACK_SEGMENTS

        if stack_base_segno + STACK_SEGMENTS > self._next_segno:
            self._next_segno = stack_base_segno + STACK_SEGMENTS
        process = Process.create(
            self.memory,
            user,
            descriptor_bound=descriptor_bound,
            stack_base_segno=stack_base_segno,
        )
        self.processes.append(process)
        self._assists[id(process)] = UpwardCallAssist(
            process, gate_segno=self.next_segno()
        )
        self._soft_rings[id(process)] = SoftwareRingAssist(process)
        return process

    def assist_for(self, process: Process) -> UpwardCallAssist:
        """The upward-call machinery of one process."""
        return self._assists[id(process)]

    # ------------------------------------------------------------------
    # activation: file system -> physical memory
    # ------------------------------------------------------------------

    def activate(self, path: str) -> ActiveSegment:
        """Place a stored segment in memory (idempotent) and link it.

        Link targets are activated recursively; mutual references are
        broken by assigning the segment number before resolving.
        """
        if path in self.active:
            return self.active[path]
        node = self.fs.get(path)
        placed = self.loader.place(node.image, paged=self.paged)
        segno = self._reserved_segnos.pop(path, None)
        if segno is None:
            segno = self.next_segno()
        active = ActiveSegment(
            path=path,
            segno=segno,
            placed=placed,
            image=node.image,
        )
        self.active[path] = active
        if node.image.name in self.active_by_name:
            raise ConfigurationError(
                f"segment name {node.image.name!r} already active "
                f"(from {self.active_by_name[node.image.name].path!r})"
            )
        self.active_by_name[node.image.name] = active
        self.active_by_segno[active.segno] = active

        if self.lazy_linking:
            self.linkage.place_unresolved(placed, active.segno)
        else:
            self.loader.resolve(placed, active.segno, self._name_resolver)
            active.links_resolved = True
        return active

    def _name_resolver(self, name: str):
        """Loader-facing resolver: name -> (segno, entries), activating."""
        target = self.resolve_name(name)
        return target.segno, target.image.entries

    def resolve_name(self, name: str) -> ActiveSegment:
        """Segment *name* -> active segment, activating from the store.

        The search rule is simple: an already active segment wins;
        otherwise the file system is scanned for a unique basename
        match.
        """
        if name in self.active_by_name:
            return self.active_by_name[name]
        matches = [
            path for path in self.fs.list_dir(">") if path.split(">")[-1] == name
        ]
        if not matches:
            raise LinkError(f"no stored segment named {name!r}")
        if len(matches) > 1:
            raise LinkError(
                f"segment name {name!r} is ambiguous: {matches}"
            )
        return self.activate(matches[0])

    # ------------------------------------------------------------------
    # initiation: memory -> a process's virtual memory
    # ------------------------------------------------------------------

    def initiate(
        self,
        process: Process,
        path: str,
        name: Optional[str] = None,
    ) -> int:
        """Add a stored segment to a process's virtual memory.

        The ACL of the segment is consulted with the process's user
        name; the matching entry supplies every access field of the SDW
        (paper p. 16).  Raises :class:`repro.errors.AccessDenied` when
        no entry matches.
        """
        entry = self.fs.check_access(path, process.user)
        spec = entry.spec
        self._check_sole_occupant(process, path, spec)
        active = self.activate(path)
        gate = spec.gate if spec.gate else active.image.gate_count
        sdw = SDW(
            addr=active.placed.addr,
            bound=active.placed.bound,
            paged=active.placed.paged,
            r1=spec.r1,
            r2=spec.r2,
            r3=spec.r3,
            read=spec.read,
            write=spec.write,
            execute=spec.execute,
            gate=gate,
        )
        known_name = name or active.image.name
        process.make_known(
            known_name,
            active.segno,
            sdw,
            entries=active.image.entries,
            path=path,
            gate_count=gate,
        )
        if self.domains is not None:
            # ring_domains: the segment acquires its configured domain
            # the moment it becomes known (demand initiation included).
            self.domains.register(active.segno, known_name)
        return active.segno

    def deactivate(
        self,
        path: str,
        processors: Optional[List[Processor]] = None,
    ) -> bool:
        """Evict an active segment from physical memory.

        Every process's SDW for the segment is marked missing and the
        storage freed; the *known-segment table entries stay*, so the
        next reference takes a missing-segment trap and the supervisor
        transparently re-activates from the backing store — the
        segment-level virtual-memory cycle.  Returns False when the
        segment was not active.

        Paged segments are not evicted here (their unit of residence is
        the page, handled by the page-fault path).
        """
        active = self.active.get(path)
        if active is None or active.placed.paged:
            return False
        if self.linkage.has_pending_for(active.placed):
            # unsnapped links would later patch freed storage
            return False
        # write the current contents back to the image (dirty data!)
        words = self.memory.peek_block(active.placed.addr, active.placed.bound)
        active.image.words[: len(words)] = words
        for process in self.processes:
            if active.segno in process.by_segno:
                process.dseg.clear(active.segno)
                # drop the stale known entry so demand initiation re-adds
                known = process.by_segno.pop(active.segno)
                del process.known[known.name]
        if active.placed.allocation is not None:
            self.memory.free(active.placed.allocation)
        del self.active[path]
        del self.active_by_name[active.image.name]
        del self.active_by_segno[active.segno]
        # Global numbering: reactivation must reuse the same segment
        # number, or link words elsewhere would dangle.
        self._reserved_segnos[path] = active.segno
        for proc in processors or []:
            proc.invalidate_sdw(active.segno)
        return True

    def update_access(
        self,
        path: str,
        requester: User,
        entries: List,
        requester_ring: int = 0,
        processors: Optional[List[Processor]] = None,
    ) -> int:
        """Change a segment's ACL and make it *immediately* effective.

        The paper (p. 9): changing the finer constraints recorded in the
        SDW is expected to be immediately effective.  This service
        rewrites the ACL, then rebuilds the SDW in every process that
        has the segment initiated (revoking it outright where no entry
        matches any more) and invalidates the affected associative-memory
        entries on the given processors.  Returns the number of
        processes whose SDW changed.
        """
        self.fs.set_acl(path, requester, entries, requester_ring)
        active = self.active.get(path)
        if active is None:
            return 0
        changed = 0
        for process in self.processes:
            known = process.by_segno.get(active.segno)
            if known is None:
                continue
            entry = self.fs.get(path).match(process.user.name)
            if entry is None:
                process.dseg.clear(active.segno)
            else:
                spec = entry.spec
                gate = spec.gate if spec.gate else active.image.gate_count
                process.dseg.set(
                    active.segno,
                    SDW(
                        addr=active.placed.addr,
                        bound=active.placed.bound,
                        paged=active.placed.paged,
                        r1=spec.r1,
                        r2=spec.r2,
                        r3=spec.r3,
                        read=spec.read,
                        write=spec.write,
                        execute=spec.execute,
                        gate=gate,
                    ),
                )
            changed += 1
        for proc in processors or []:
            proc.invalidate_sdw(active.segno)
        return changed

    def _check_sole_occupant(self, process: Process, path: str, spec) -> None:
        """Enforce the sole-occupant property (paper pp. 37-38).

        "Although a given ring may simultaneously protect different
        subsystems in different processes, each ring of each process can
        protect only one subsystem at a time."  A subsystem is
        identified by its owner: initiating executable segments whose
        execute bracket begins in a protected-subsystem ring records the
        owner as that ring's occupant for this process; a different
        owner claiming the same ring of the same process is refused.
        """
        if not spec.execute or spec.r1 not in self.subsystem_rings:
            return
        owner = self.fs.get(path).owner.name
        key = (id(process), spec.r1)
        occupant = self._ring_occupants.get(key)
        if occupant is None:
            self._ring_occupants[key] = owner
        elif occupant != owner:
            raise AccessDenied(
                f"ring {spec.r1} of {process.user.name}'s process already "
                f"protects a subsystem of {occupant!r}; {owner!r} cannot "
                "co-occupy it (sole-occupant rule)"
            )

    def ring_occupant(self, process: Process, ring: int) -> Optional[str]:
        """The subsystem owner occupying ``ring`` of ``process``, if any."""
        return self._ring_occupants.get((id(process), ring))

    # ------------------------------------------------------------------
    # attaching a processor
    # ------------------------------------------------------------------

    def attach(self, processor: Processor, process: Process) -> None:
        """Point a processor at a process and install trap handling."""
        self.attached_process = process
        processor.set_dbr(process.dbr)
        processor.fault_handler = self._make_fault_handler(process)
        processor.io_handler = self._io_handler
        if self.timer_quantum is not None:
            processor.set_timer(self.timer_quantum)

    def _io_handler(self, proc: Processor, word: int) -> None:
        """CIOC dispatch.

        Channel 1: console — transmit the A register.
        Channel 3: calendar clock — load A with the cycle counter's low
        half (the ring-0 ``clock`` gate service exposes this to users).
        """
        channel = word & 0o777
        if channel == 1:
            self.console.append(
                ConsoleRecord(word=proc.registers.a, ring=proc.registers.ipr.ring)
            )
        elif channel == 2:
            self.console_chars.append(chr(proc.registers.a & 0o177))
        elif channel == 3:
            proc.registers.set_a(proc.cycles & ((1 << 18) - 1))
        elif channel == 4:
            # asynchronous console write: the word is latched now, the
            # transfer completes IO_LATENCY instructions later and is
            # announced by an I/O-completion event (paper p. 31 lists
            # I/O completions among the trap sources)
            self._io_in_flight.append(
                ConsoleRecord(word=proc.registers.a, ring=proc.registers.ipr.ring)
            )
            proc.schedule_event(
                IO_LATENCY, FaultCode.IO_COMPLETION, detail="console channel"
            )

    def console_values(self) -> List[int]:
        """The words written to the console so far."""
        return [record.word for record in self.console]

    def console_text(self) -> str:
        """The character stream written via the character channel."""
        return "".join(self.console_chars)

    # ------------------------------------------------------------------
    # trap handling
    # ------------------------------------------------------------------

    def _record_abort(self, fault: Fault) -> None:
        """Log a fault the supervisor refused to handle, keeping only
        the most recent ``ABORT_LOG_LIMIT`` entries."""
        self.aborted_faults.append(fault)
        if len(self.aborted_faults) > ABORT_LOG_LIMIT:
            del self.aborted_faults[: -ABORT_LOG_LIMIT]

    def _make_fault_handler(self, process: Process):
        def handler(proc: Processor, fault: Fault) -> str:
            return self.handle_fault(proc, process, fault)

        return handler

    def handle_fault(
        self, proc: Processor, process: Process, fault: Fault
    ) -> str:
        """Dispatch one trap; returns the handler action."""
        assist = self._assists[id(process)]
        soft = self._soft_rings[id(process)]

        if fault.code is FaultCode.TRAP_UPWARD_CALL:
            return assist.perform_upward_call(proc, fault)

        if assist.matches_downward_return(fault):
            action = assist.perform_downward_return(proc, fault)
            if action == "abort":
                self._record_abort(fault)
            return action

        if soft.handles(fault):
            return soft.perform(proc, fault)

        if fault.code is FaultCode.MISSING_PAGE:
            return self._service_missing_page(proc, fault)

        if fault.code is FaultCode.MISSING_SEGMENT:
            return self._service_missing_segment(proc, process, fault)

        if self.linkage.matches(fault):
            action = self.linkage.snap(proc, fault, self._name_resolver)
            if action == "abort":
                self._record_abort(fault)
            return action

        if fault.code is FaultCode.TIMER:
            return self._service_timer(proc, process, fault)

        if fault.code is FaultCode.IO_COMPLETION:
            if self._io_in_flight:
                self.console.append(self._io_in_flight.pop(0))
            proc.charge(IO_COMPLETION_CYCLES)
            return HANDLER_CONTINUE

        self._record_abort(fault)
        return HANDLER_ABORT

    def _service_missing_segment(
        self, proc: Processor, process: Process, fault: Fault
    ) -> str:
        """Demand initiation: a known-to-the-system segment was touched.

        Link words may point at segments the process has not initiated
        yet; the first reference traps here, the supervisor performs the
        ACL check and builds the SDW, and the instruction is retried —
        the classic segment-fault path.  An ACL mismatch leaves the
        fault unhandled: the reference really is illegal for this user.
        """
        assert fault.segno is not None
        active = self.active_by_segno.get(fault.segno)
        if active is None:
            # a deactivated segment keeps its number reserved; touch it
            # and it transparently comes back from the backing store
            for path, segno in self._reserved_segnos.items():
                if segno == fault.segno:
                    active = self.activate(path)
                    break
        if active is None or fault.segno in process.by_segno:
            self._record_abort(fault)
            return HANDLER_ABORT
        try:
            self.initiate(process, active.path)
        except AccessDenied:
            self._record_abort(fault)
            return HANDLER_ABORT
        proc.charge(SEGMENT_SERVICE_CYCLES)
        proc.invalidate_sdw(fault.segno)
        return HANDLER_RETRY

    def _service_timer(
        self, proc: Processor, process: Process, fault: Fault
    ) -> str:
        """Interval-timer runout: runaway control.

        Each runout is counted against the process.  Within its budget
        the timer is simply re-armed and execution continues (the
        interrupted computation resumes exactly where it stopped); past
        the budget the fault is left unhandled — the runaway program is
        stopped, the utility's other users protected.
        """
        key = id(process)
        self._timer_counts[key] = self._timer_counts.get(key, 0) + 1
        if (
            self.timer_limit is not None
            and self._timer_counts[key] > self.timer_limit
        ):
            self._record_abort(fault)
            return HANDLER_ABORT
        if self.timer_quantum is not None:
            proc.set_timer(self.timer_quantum)
        return HANDLER_CONTINUE

    def timer_runouts(self, process: Process) -> int:
        """How many timer runouts a process has accumulated."""
        return self._timer_counts.get(id(process), 0)

    def _service_missing_page(self, proc: Processor, fault: Fault) -> str:
        """Allocate and map a frame for a missing page, then retry."""
        assert fault.segno is not None and fault.wordno is not None
        active = self.active_by_segno.get(fault.segno)
        if active is None or active.placed.page_table is None:
            self._record_abort(fault)
            return HANDLER_ABORT
        from ..mem.paging import PAGE_BITS, PAGE_WORDS

        table = active.placed.page_table
        page_index = fault.wordno >> PAGE_BITS
        frame = self.memory.allocate(PAGE_WORDS)
        table.map_page(page_index, frame.addr)
        # Page the content back in from the backing store (the image).
        start = page_index << PAGE_BITS
        content = active.image.words[start : start + PAGE_WORDS]
        if content:
            self.memory.load_image(frame.addr, content)
        proc.charge(PAGE_SERVICE_CYCLES)
        proc.invalidate_sdw(fault.segno)
        return HANDLER_RETRY
