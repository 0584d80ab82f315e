"""Processor registers (Figure 3, right-hand side).

* :class:`IPR` — instruction pointer: current ring of execution plus the
  two-part address of the next instruction;
* :class:`PointerRegister` — PR0–PR7: a two-part address plus a ring
  number used as a validation level;
* :class:`TPR` — the temporary pointer register in which every effective
  address (including its effective ring) is formed; not program
  accessible;
* :class:`RegisterFile` — the full program-visible register state, plus
  the accumulators A and Q used by the data instructions.

The central machine invariant — ``PRn.RING >= IPR.RING`` for every n,
maintained because PRs are loadable only by EAP-type instructions and
RETURN raises them on upward returns — is checkable at any time with
:meth:`RegisterFile.check_ring_invariant`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..errors import ConfigurationError
from ..formats.pointerfmt import PackedPointer
from ..words import HALF_MASK, SEGNO_MASK, WORD_MASK, check_field

#: Number of pointer registers.
NUM_PR = 8

#: The PR that CALL loads with the new ring's stack base (paper p. 30).
STACK_BASE_PR = 0

#: The PR conventionally used as the stack pointer by software.
STACK_PTR_PR = 6

#: The PR conventionally holding the argument-list pointer ("PRa", p. 32).
ARG_PTR_PR = 1


@dataclass
class PointerRegister:
    """One program-accessible pointer register."""

    segno: int = 0
    wordno: int = 0
    ring: int = 0

    def load(self, segno: int, wordno: int, ring: int) -> None:
        """Replace all three fields (EAP-type instructions only)."""
        # In-line width guard on the hot path (EAP, CALL's stack base);
        # the check_field calls below carry the real error reporting.
        if not (
            segno.__class__ is int
            and wordno.__class__ is int
            and ring.__class__ is int
            and 0 <= segno < 0o40000
            and 0 <= wordno < 0o1000000
            and 0 <= ring < 8
        ):
            check_field("PR.SEGNO", segno, 14)
            check_field("PR.WORDNO", wordno, 18)
            check_field("PR.RING", ring, 3)
        self.segno = segno
        self.wordno = wordno
        self.ring = ring

    def raise_ring(self, floor: int) -> None:
        """RETURN's upward adjustment: ``ring := max(ring, floor)``."""
        if floor > self.ring:
            self.ring = floor

    def packed(self) -> PackedPointer:
        """The memory image SPR stores."""
        return PackedPointer(segno=self.segno, wordno=self.wordno, ring=self.ring)

    def copy(self) -> "PointerRegister":
        """An independent copy (trap save areas, schedulers)."""
        return PointerRegister(self.segno, self.wordno, self.ring)


@dataclass
class IPR:
    """Instruction pointer register: ring of execution + next instruction."""

    ring: int = 0
    segno: int = 0
    wordno: int = 0

    def set(self, ring: int, segno: int, wordno: int) -> None:
        """Replace the ring of execution and the next-instruction address."""
        # In-line width guard: this runs once per transfer, call, and
        # return; check_field below carries the real error reporting.
        if not (
            ring.__class__ is int
            and segno.__class__ is int
            and wordno.__class__ is int
            and 0 <= ring < 8
            and 0 <= segno < 0o40000
            and 0 <= wordno < 0o1000000
        ):
            check_field("IPR.RING", ring, 3)
            check_field("IPR.SEGNO", segno, 14)
            check_field("IPR.WORDNO", wordno, 18)
        self.ring = ring
        self.segno = segno
        self.wordno = wordno

    def advance(self) -> None:
        """Step to the next sequential instruction."""
        self.wordno = (self.wordno + 1) & HALF_MASK

    def copy(self) -> "IPR":
        """An independent copy."""
        return IPR(self.ring, self.segno, self.wordno)


@dataclass
class TPR:
    """Temporary pointer register: the effective address under formation.

    Not program accessible; the processor rebuilds it for every virtual
    memory reference.  ``ring`` is the effective ring with respect to
    which the reference will be validated.
    """

    ring: int = 0
    segno: int = 0
    wordno: int = 0

    def set(self, ring: int, segno: int, wordno: int) -> None:
        """Replace all three fields (masked to their widths)."""
        self.ring = ring & 0o7
        self.segno = segno & SEGNO_MASK
        self.wordno = wordno & HALF_MASK

    def raise_ring(self, value: int) -> None:
        """The Figure 5 max rule: the effective ring only ever increases."""
        if value > self.ring:
            self.ring = value

    def copy(self) -> "TPR":
        """An independent copy."""
        return TPR(self.ring, self.segno, self.wordno)


@dataclass
class RegisterFile:
    """Complete register state of one simulated processor."""

    ipr: IPR = field(default_factory=IPR)
    prs: List[PointerRegister] = field(
        default_factory=lambda: [PointerRegister() for _ in range(NUM_PR)]
    )
    a: int = 0
    q: int = 0
    #: caller-ring register: CALL records the pre-call ring of execution
    #: here — the "program accessible register" of paper p. 19
    crr: int = 0

    def pr(self, n: int) -> PointerRegister:
        """Pointer register ``n`` (0–7)."""
        if not 0 <= n < NUM_PR:
            raise ConfigurationError(f"no pointer register {n}")
        return self.prs[n]

    def set_a(self, value: int) -> None:
        """Load the A accumulator (truncated to a word)."""
        self.a = value & WORD_MASK

    def set_q(self, value: int) -> None:
        """Load the Q accumulator (truncated to a word)."""
        self.q = value & WORD_MASK

    def raise_pr_rings(self, floor: int) -> None:
        """RETURN's upward sweep over every pointer register (Figure 9)."""
        for pr in self.prs:
            if floor > pr.ring:
                pr.ring = floor

    def check_ring_invariant(self) -> bool:
        """True when every ``PRn.RING >= IPR.RING`` (paper p. 31)."""
        return all(pr.ring >= self.ipr.ring for pr in self.prs)

    def snapshot(self) -> "RegisterFile":
        """Deep copy for the trap save area."""
        copy = RegisterFile(
            ipr=self.ipr.copy(),
            prs=[pr.copy() for pr in self.prs],
            a=self.a,
            q=self.q,
            crr=self.crr,
        )
        return copy

    def restore(self, saved: "RegisterFile") -> None:
        """Reload all register state from a snapshot (RCU instruction).

        The IPR and pointer registers are reloaded in place: the
        execution tiers hold them in locals across a run.
        """
        ipr = saved.ipr
        self.ipr.set(ipr.ring, ipr.segno, ipr.wordno)
        for pr, old in zip(self.prs, saved.prs):
            pr.load(old.segno, old.wordno, old.ring)
        self.a = saved.a
        self.q = saved.q
        self.crr = saved.crr
