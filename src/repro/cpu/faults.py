"""Simulated faults and traps.

Every condition in Figures 4–9 that "generates a trap, derailing the
instruction cycle" (paper p. 25) is represented by a :class:`FaultCode`.
A :class:`Fault` is raised inside the simulated instruction cycle and is
fielded by the processor's trap machinery: the processor forces ring 0,
saves state, and hands control to the configured supervisor — or, when
no supervisor is installed (bare-machine unit tests), propagates the
fault to the host caller.

Fault codes are grouped into :class:`FaultClass` because the paper
distinguishes *access violations* (program errors: the reference is
simply illegal) from *software-assist traps* (legal operations the
hardware chose not to implement: upward calls, downward returns, missing
segments and pages) and *events* (I/O completion and the like).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class FaultClass(enum.Enum):
    """Coarse classification of fault codes."""

    #: Illegal reference; the supervisor normally aborts or signals.
    ACCESS_VIOLATION = "access violation"
    #: Legal operation requiring supervisor completion, then resumption.
    SOFTWARE_ASSIST = "software assist"
    #: Environmental event, unrelated to the running program's behaviour.
    EVENT = "event"
    #: Program malformation (bad opcode and the like).
    ILLEGAL = "illegal"


class FaultCode(enum.Enum):
    """Every trap condition the simulated hardware can raise."""

    # -- access violations: permission flags (Figures 4, 6) --
    ACV_NO_READ = ("segment not readable", FaultClass.ACCESS_VIOLATION)
    ACV_NO_WRITE = ("segment not writable", FaultClass.ACCESS_VIOLATION)
    ACV_NO_EXECUTE = ("segment not executable", FaultClass.ACCESS_VIOLATION)

    # -- access violations: ring brackets (Figures 4, 6) --
    ACV_READ_BRACKET = ("ring above read bracket", FaultClass.ACCESS_VIOLATION)
    ACV_WRITE_BRACKET = ("ring above write bracket", FaultClass.ACCESS_VIOLATION)
    ACV_EXECUTE_BRACKET = (
        "ring outside execute bracket",
        FaultClass.ACCESS_VIOLATION,
    )

    # -- access violations: addressing --
    ACV_OUT_OF_BOUNDS = ("word number above segment bound", FaultClass.ACCESS_VIOLATION)
    ACV_SEGNO_BOUND = (
        "segment number above descriptor bound",
        FaultClass.ACCESS_VIOLATION,
    )

    # -- access violations: transfers, CALL and RETURN (Figures 7-9) --
    ACV_TRANSFER_RING = (
        "plain transfer may not change the ring",
        FaultClass.ACCESS_VIOLATION,
    )
    ACV_NOT_GATE = ("call target is not a gate", FaultClass.ACCESS_VIOLATION)
    ACV_OUTSIDE_CALL_BRACKET = (
        "ring above gate extension",
        FaultClass.ACCESS_VIOLATION,
    )
    ACV_RING_RAISED = (
        "effective ring above ring of execution on CALL",
        FaultClass.ACCESS_VIOLATION,
    )

    # -- access violations: privilege --
    ACV_PRIVILEGED = (
        "privileged instruction outside ring 0",
        FaultClass.ACCESS_VIOLATION,
    )

    # -- access violations: hardening extensions (repro.hardening) --
    ACV_AUTH_RETURN = (
        "return target fails authenticated-return-stack verification",
        FaultClass.ACCESS_VIOLATION,
    )
    ACV_DOMAIN = (
        "cross-domain reference without a domain gate",
        FaultClass.ACCESS_VIOLATION,
    )
    ACV_NX = (
        "execute on a writable segment (NX bracket mode)",
        FaultClass.ACCESS_VIOLATION,
    )

    # -- software-assist traps --
    TRAP_UPWARD_CALL = ("upward call", FaultClass.SOFTWARE_ASSIST)
    TRAP_DOWNWARD_RETURN = ("downward return", FaultClass.SOFTWARE_ASSIST)
    MISSING_SEGMENT = ("missing segment", FaultClass.SOFTWARE_ASSIST)
    MISSING_PAGE = ("missing page", FaultClass.SOFTWARE_ASSIST)
    GATE_SERVICE = ("supervisor gate service", FaultClass.SOFTWARE_ASSIST)

    # -- 645-baseline-only traps (see repro.krnl.baseline645) --
    TRAP_RING_CROSS_CALL = (
        "software-ring crossing on call (645 baseline)",
        FaultClass.SOFTWARE_ASSIST,
    )
    TRAP_RING_CROSS_RETURN = (
        "software-ring crossing on return (645 baseline)",
        FaultClass.SOFTWARE_ASSIST,
    )

    # -- events --
    IO_COMPLETION = ("I/O completion", FaultClass.EVENT)
    TIMER = ("timer runout", FaultClass.EVENT)

    # -- malformation --
    ILLEGAL_OPCODE = ("illegal opcode", FaultClass.ILLEGAL)
    INVALID_SDW = (
        "malformed SDW in descriptor segment (bracket order violated)",
        FaultClass.ILLEGAL,
    )

    def __init__(self, label: str, fclass: FaultClass):
        self.label = label
        self.fclass = fclass

    @property
    def is_access_violation(self) -> bool:
        return self.fclass is FaultClass.ACCESS_VIOLATION

    @property
    def is_software_assist(self) -> bool:
        return self.fclass is FaultClass.SOFTWARE_ASSIST


@dataclass
class Fault(Exception):
    """A simulated trap, carrying the context the supervisor needs.

    ``segno``/``wordno`` locate the offending reference; ``ring`` is the
    validation ring in force (``TPR.RING``); ``cur_ring`` is the ring of
    execution when the fault fired; ``detail`` is free text for traces.
    """

    code: FaultCode
    segno: Optional[int] = None
    wordno: Optional[int] = None
    ring: Optional[int] = None
    cur_ring: Optional[int] = None
    detail: str = ""
    #: filled in by the processor when the fault derails an instruction
    at_segno: Optional[int] = None
    at_wordno: Optional[int] = None

    def __post_init__(self) -> None:
        super().__init__(self.describe())

    def describe(self) -> str:
        """One-line human-readable account of the fault."""
        where = ""
        if self.segno is not None:
            where = f" target=({self.segno},{self.wordno})"
        rings = ""
        if self.ring is not None:
            rings = f" eff-ring={self.ring}"
        if self.cur_ring is not None:
            rings += f" cur-ring={self.cur_ring}"
        at = ""
        if self.at_segno is not None:
            at = f" at=({self.at_segno},{self.at_wordno})"
        tail = f" — {self.detail}" if self.detail else ""
        return f"{self.code.name}: {self.code.label}{where}{rings}{at}{tail}"
