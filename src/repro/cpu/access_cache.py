"""The two-tier interpreter fast path: PTLB and decoded-instruction cache.

The paper's descriptor associative memory keeps recently used SDWs next
to the processor so validation "does not cost two extra memory
references per virtual reference".  Real hardware descendants go one
step further and cache the *outcome* of the permission check alongside
the translation (per-ring protection bits in the TLB).  This module is
that generalisation for the simulator's host-side hot loop:

* :class:`ValidatedTranslationCache` (the "PTLB") is keyed by
  ``(segno, ring, access-group)`` and remembers that a reference of that
  group, validated at that ring, against that exact SDW, succeeded.  A
  hit skips the SDW fetch, the permission-flag test, and the bracket
  comparison; only the per-word bound check remains (it depends on the
  word number, which is deliberately not part of the key).

* :class:`DecodedInstructionCache` is keyed by ``(segno, wordno)`` and
  remembers the result of decoding one instruction word —
  ``Instruction.unpack``, the opcode dispatch, the
  ``needs_effective_address`` decision, and the pre-resolved execute
  handler.

Both tiers are **host-side only**: simulated cycles, memory-traffic
counters, and SDW-cache hit/miss accounting are charged identically on
hit and miss (the processor mirrors the counters a slow-path reference
would have bumped).  Architecturally the caches are invisible.

Coherence — the paper's "immediately effective" promise about SDW
changes (p. 9) — is maintained two ways:

1. **Precise invalidation.**  The supervisor's existing notification
   (:meth:`Processor.invalidate_sdw`) drops the affected entries, and
   every store through the processor drops the decoded entry for the
   written word (self-modifying code).

2. **Validity checks as backstop.**  A PTLB entry is honoured only while
   the SDW associative memory still holds the *identical* SDW object —
   the processor interns SDWs by their descriptor words, so a changed
   descriptor, an eviction, or an invalidation silently retires
   dependent PTLB entries.  A decoded entry is honoured only when the
   word just read from memory equals the word it was decoded from, so
   even mutation channels the processor cannot observe (supervisor
   ``load_image`` patches, stores made while another descriptor segment
   was loaded) can never execute a stale decode.

A DBR switch does not flush either tier: the processor swaps the live
contents out as the outgoing descriptor segment's **bank** and swaps
the incoming one's bank in (see :meth:`Processor.set_dbr`).  Every
tier implements the same three bank operations — ``swap_out``,
``swap_in`` and ``forget`` — so the processor fans switches and
invalidations out with one loop.  The SDW associative memory itself is
still cleared on every switch: its misses are charged, so it is part
of the timing the simulation reports.

The processor reads ``_entries`` directly on the hot path; the mappings
are private to the ``repro.cpu`` package by convention.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..formats.sdw import SDW

#: PTLB access-group keys, matching the paper's three reference kinds
#: (Figures 4 and 6).  Values are the validator names for readability in
#: stats dumps and traces.
GROUP_READ = "read"
GROUP_WRITE = "write"
GROUP_EXECUTE = "execute"


class ValidatedTranslationCache:
    """Memoized validation outcomes keyed by ``(segno, ring, group)``.

    An entry records that the permission flag and ring bracket of
    ``group`` passed at ``ring`` against the stored SDW.  Entries are
    filled only on successful slow-path validation and consulted only
    while the SDW associative memory still holds the identical SDW
    object (checked by the processor), so a stale entry can never grant
    access the current descriptor would refuse.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._entries: Dict[Tuple[int, int, str], SDW] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def fill(self, segno: int, ring: int, group: str, sdw: SDW) -> None:
        """Record one successful validation."""
        if self.enabled:
            self._entries[(segno, ring, group)] = sdw

    def get(self, segno: int, ring: int, group: str) -> Optional[SDW]:
        """The SDW a previous successful validation ran against, if any.

        Uncounted; the processor bumps ``hits``/``misses`` itself after
        it has also checked SDW identity and the bound.
        """
        return self._entries.get((segno, ring, group))

    def invalidate(self, segno: Optional[int] = None) -> None:
        """Drop all entries for ``segno``, or everything when None."""
        self.invalidations += 1
        if segno is None:
            self._entries.clear()
        else:
            self.forget(self._entries, segno)

    # -- banks (see Processor.set_dbr) ---------------------------------------

    def swap_out(self) -> dict:
        """Hand the live entries over as a bank; continue empty."""
        bank = self._entries.copy()
        self._entries.clear()
        return bank

    def swap_in(self, bank: dict) -> None:
        """Make a bank live again (the live table is empty)."""
        self._entries.update(bank)

    @staticmethod
    def forget(bank: dict, segno: int) -> None:
        """Drop ``segno``'s entries from a bank."""
        for key in [key for key in bank if key[0] == segno]:
            del bank[key]

    def __len__(self) -> int:
        return len(self._entries)

    def reset_stats(self) -> None:
        """Zero the counters (benchmark hygiene); entries survive."""
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss/invalidation counters for benchmarks and metrics."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
        }


class DecodedInstructionCache:
    """Memoized instruction decode keyed by ``(segno, wordno)``.

    Each entry is the tuple ``(word, op, inst, needs_ea, handler)``:
    the raw instruction word it was decoded from, the decoded
    :class:`~repro.formats.instruction.Instruction`, its
    :class:`~repro.cpu.isa.Op`, the memoized
    ``needs_effective_address`` decision, and the pre-resolved execute
    handler (or None when the generic dispatch must run).

    Entries are honoured only when the word just read from memory equals
    the stored word, which makes the cache correct by construction: the
    decode is a pure function of the word.  The explicit invalidations
    (stores, SDW changes) exist to keep the table small and
    its statistics meaningful, not to carry correctness — which is also
    why a bank restored after a DBR switch needs no revalidation.
    """

    def __init__(self, enabled: bool = True, max_entries: int = 8192):
        self.enabled = enabled
        self.max_entries = max(1, max_entries)
        #: segno -> wordno -> entry tuple
        self._entries: Dict[int, Dict[int, tuple]] = {}
        self._count = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(self, segno: int, wordno: int) -> Optional[tuple]:
        """The cached entry for ``(segno, wordno)``, uncounted."""
        seg = self._entries.get(segno)
        if seg is None:
            return None
        return seg.get(wordno)

    def fill(self, segno: int, wordno: int, entry: tuple) -> None:
        """Install one decoded instruction."""
        if not self.enabled:
            return
        if self._count >= self.max_entries:
            # Wholesale flush on overflow: simple, rare, and cheap —
            # the hardware-flavoured alternative to tracking LRU.
            self._entries.clear()
            self._count = 0
        seg = self._entries.get(segno)
        if seg is None:
            seg = self._entries[segno] = {}
        if wordno not in seg:
            self._count += 1
        seg[wordno] = entry

    def invalidate_word(self, segno: int, wordno: int) -> None:
        """Drop the entry for one written word (self-modifying code)."""
        seg = self._entries.get(segno)
        if seg is not None and seg.pop(wordno, None) is not None:
            self._count -= 1
            self.invalidations += 1

    def invalidate(self, segno: Optional[int] = None) -> None:
        """Drop all entries for ``segno``, or everything when None."""
        self.invalidations += 1
        if segno is None:
            self._entries.clear()
            self._count = 0
            return
        seg = self._entries.pop(segno, None)
        if seg is not None:
            self._count -= len(seg)

    # -- banks (see Processor.set_dbr) ---------------------------------------

    def swap_out(self) -> dict:
        """Hand the live entries over as a bank; continue empty."""
        bank = self._entries.copy()
        self._entries.clear()
        self._count = 0
        return bank

    def swap_in(self, bank: dict) -> None:
        """Make a bank live again (the live table is empty)."""
        self._entries.update(bank)
        self._count = sum(len(seg) for seg in bank.values())

    @staticmethod
    def forget(bank: dict, segno: int) -> None:
        """Drop ``segno``'s entries from a bank."""
        bank.pop(segno, None)

    def __len__(self) -> int:
        return self._count

    def reset_stats(self) -> None:
        """Zero the counters (benchmark hygiene); entries survive."""
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss/invalidation counters for benchmarks and metrics."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries": self._count,
        }
