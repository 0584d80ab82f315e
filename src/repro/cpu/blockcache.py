"""The superblock execution tier: straight-line blocks of decoded work.

The PR 1 fast path (:mod:`repro.cpu.access_cache`) made each *individual*
instruction cheap to re-execute, but the interpreter still paid full
Python dispatch per instruction: a ``step()`` frame, a
``fetch_instruction`` call, a PTLB probe, a charged word read, and a
decoded-cache probe for every word, every time.  The same observation
that motivates block-granular validation in hardware descendants of the
paper applies host-side: a straight-line run of instructions in one
segment, executed at one ring, revalidates *nothing* between its first
and last word — so validate once per ``(segno, ring)`` per entry, and
execute the pre-resolved handler chain in a tight loop.

A **superblock** is the decoded form of a maximal straight-line sequence
starting at ``(segno, wordno)``:

* it extends forward one word at a time, and **ends inclusively** at the
  first control transfer (CALL, RETURN, TRA/TZE/TNZ/TMI/TPL) or at any
  instruction with an indirect effective address (the chase may fault and
  re-enter arbitrary segments, so the block boundary forces revalidation
  afterwards);
* it **stops before** privileged instructions, HALT, unassigned opcodes,
  illegal tag combinations, the segment bound, and ``MAX_BLOCK_LEN``.

Entry conditions (checked by the processor on every dispatch) reuse the
PR 1 machinery instead of duplicating it:

* the PTLB must hold a validated ``(segno, ring, execute)`` entry whose
  SDW is still the identical object in the SDW associative memory — one
  check validates the execute bracket for the whole block at the current
  ring;
* the block's last word must be inside the SDW's current bound;
* every cached word must equal the word now in memory (the word-compare
  backstop, mirroring the decoded-instruction cache's per-fetch compare —
  this is what catches supervisor ``load_image`` patches that no
  invalidation call announces).

Coherence reuses PR 1's precise invalidation: ``write_word`` drops the
blocks covering a written word (and flips their ``valid`` flag so a block
that rewrites *itself* stops executing from stale entries immediately),
and ``invalidate_sdw`` drops a segment's blocks — in every bank.  A DBR
switch flushes nothing: the blocks and hotness counters of the outgoing
descriptor segment are swapped out as its bank and the incoming one's
swapped in (see :meth:`Processor.set_dbr`).  Stores made while a bank is
detached reach only the live bank; the entry conditions above — PTLB
identity and the word compare — retire whatever they made stale.
Wholesale invalidations can never happen mid-block: they are only
triggered from fault handlers (which abort the block) or host-side
supervisor calls (which run between ``run`` calls), so only
``invalidate_word`` needs the in-flight ``valid`` check.

Like the PR 1 tiers the superblock cache is **host-side only**: the
processor mirrors, in batch, exactly the counters per-step execution
would have bumped (cycles, memory reads, SDW/PTLB/icache hits), so
simulated figures are bit-identical with the tier on or off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..formats.instruction import Instruction
from . import operations
from .isa import BY_NUMBER, Op

#: Entry kinds, dense small ints the execution loop switches on.
#: Kinds >= K_TERM_EA are terminal: they end their block (inclusively).
K_SIMPLE = 0  #: no effective address (NOP, shifts, immediate read group)
K_EA = 1  #: direct effective address, non-transfer
K_TERM_EA = 2  #: indirect effective address, non-transfer (block ends)
K_XFER = 3  #: plain transfer TRA/TZE/TNZ/TMI/TPL (ring cannot change)
K_CALL = 4  #: CALL — call/return stats and ring-crossing bookkeeping
K_RETURN = 5  #: RETURN — ditto

#: Longest straight-line run one block may cover.
MAX_BLOCK_LEN = 64

#: Dispatches of a block-less address before a block is built there.
HOT_THRESHOLD = 2

#: Extra dispatches required to rebuild after a self-modifying-code
#: invalidation — keeps store-into-own-block loops from paying a full
#: decode per iteration.
REBUILD_BACKOFF = 8

#: Wholesale-flush ceiling on cached blocks (the icache's policy).
MAX_BLOCKS = 2048

#: Ceiling on the hotness-counter table.
MAX_HOT_COUNTERS = 4096


class Superblock:
    """One decoded straight-line sequence starting at ``start``.

    ``entries`` holds, for the consecutive words
    ``start .. start + len(entries) - 1``, tuples of

        ``(word, inst, handler, kind, indirect, offset, indexed,
        prflag, prnum)``

    — the raw word, the decode, the pre-resolved handler, the entry
    kind, and the pre-extracted addressing fields the executor's
    in-line direct-EA formation reads.  ``words`` is the raw words
    alone, kept as a list so the entry backstop is one slice compare.
    ``last`` is the final covered word number (= ``start`` even when
    ``entries`` is empty, so negative results still occupy their
    address for invalidation purposes).  ``valid`` is flipped by
    precise invalidation while the block may be executing.
    """

    __slots__ = ("start", "entries", "words", "last", "valid")

    def __init__(self, start: int, entries: List[tuple]):
        self.start = start
        self.entries = entries
        self.words = [entry[0] for entry in entries]
        self.last = start + max(len(entries), 1) - 1
        self.valid = True


def build_superblock(
    words: List[int], base: int, start: int, bound: int
) -> Superblock:
    """Decode the straight-line run beginning at ``start``.

    ``words``/``base`` address the segment's physical image (uncounted
    host peeks — the simulated fetch traffic is charged per executed
    instruction by the processor's batch accounting).  Returns a block
    with zero entries when the very first word cannot be block-executed
    (privileged, HALT, unassigned opcode): a negative result that stops
    the dispatcher from re-attempting a build every visit.
    """
    entries: List[tuple] = []
    wordno = start
    while wordno < bound and len(entries) < MAX_BLOCK_LEN:
        word = words[base + wordno]
        inst = Instruction.unpack(word)
        op = BY_NUMBER.get(inst.opcode)
        if op is None or op.privileged or op is Op.HALT:
            break
        handler = operations.resolve_handler(op, inst)
        if handler is None:
            # Illegal tag combinations fault through the generic path.
            break
        if op is Op.CALL:
            kind = K_CALL
        elif op is Op.RETURN:
            kind = K_RETURN
        elif op.transfer:
            kind = K_XFER
        elif not operations.needs_effective_address(op, inst):
            kind = K_SIMPLE
        elif inst.indirect:
            kind = K_TERM_EA
        else:
            kind = K_EA
        entries.append(
            (
                word,
                inst,
                handler,
                kind,
                inst.indirect,
                inst.offset,
                inst.indexed,
                inst.prflag,
                inst.prnum,
            )
        )
        wordno += 1
        if kind >= K_TERM_EA:
            break
    return Superblock(start, entries)


class SuperblockCache:
    """Discovered superblocks keyed by ``(segno, start wordno)``.

    The processor reads ``_blocks`` directly on the hot path, exactly
    like the PR 1 tiers; the mapping is private to ``repro.cpu`` by
    convention.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: segno -> start wordno -> Superblock
        self._blocks: Dict[int, Dict[int, Superblock]] = {}
        #: (segno, wordno) -> dispatch count while no block exists there
        self._hot: Dict[Tuple[int, int], int] = {}
        self._count = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.built = 0
        #: instructions retired under block execution (host diagnostic)
        self.block_instructions = 0

    # -- lookup and installation ------------------------------------------

    def get(self, segno: int, wordno: int) -> Optional[Superblock]:
        """The block starting at ``(segno, wordno)``, uncounted."""
        seg = self._blocks.get(segno)
        if seg is None:
            return None
        return seg.get(wordno)

    def note_dispatch(self, segno: int, wordno: int) -> bool:
        """Count one block-less dispatch; True when the address is hot."""
        if len(self._hot) >= MAX_HOT_COUNTERS:
            self._hot.clear()
        key = (segno, wordno)
        count = self._hot.get(key, 0) + 1
        self._hot[key] = count
        return count >= HOT_THRESHOLD

    def install(self, segno: int, block: Superblock) -> None:
        """Add one freshly built block (wholesale flush on overflow)."""
        if not self.enabled:
            return
        if self._count >= MAX_BLOCKS:
            self._blocks.clear()
            self._count = 0
        seg = self._blocks.get(segno)
        if seg is None:
            seg = self._blocks[segno] = {}
        if block.start not in seg:
            self._count += 1
        seg[block.start] = block
        self.built += 1

    # -- invalidation -------------------------------------------------------

    def invalidate_word(self, segno: int, wordno: int) -> None:
        """Drop every block covering one written word (self-modifying
        code).  Flips ``valid`` so an executing block notices, and
        applies the rebuild backoff so a store-into-own-block loop does
        not pay a fresh decode per iteration."""
        seg = self._blocks.get(segno)
        if not seg:
            return
        stale = [
            block
            for block in seg.values()
            if block.start <= wordno <= block.last
        ]
        for block in stale:
            block.valid = False
            del seg[block.start]
            self._count -= 1
            self.invalidations += 1
            self._hot[(segno, block.start)] = 1 - REBUILD_BACKOFF

    def discard(self, segno: int, block: Superblock) -> None:
        """Retire one block whose word-compare backstop failed."""
        block.valid = False
        seg = self._blocks.get(segno)
        if seg is not None and seg.get(block.start) is block:
            del seg[block.start]
            self._count -= 1
        self.invalidations += 1

    def pause_segment(self, segno: int) -> None:
        """Stop and drop a segment's blocks (its SDW was evicted).

        Called from the SDW associative memory's eviction hook: once
        the SDW is gone, per-step execution would pay an SDW refetch at
        the next instruction fetch, so a block mid-flight must stop
        mirroring hit counters immediately — the ``valid`` flip ends it
        after the current instruction, and the dispatcher then takes
        the per-step path that performs (and charges) the refetch.
        """
        seg = self._blocks.pop(segno, None)
        if not seg:
            return
        for block in seg.values():
            block.valid = False
        self._count -= len(seg)
        self.invalidations += 1

    def invalidate(self, segno: Optional[int] = None) -> None:
        """Drop all blocks for ``segno``, or everything when None.

        Never reached while a block is executing (wholesale
        invalidations originate in fault handlers or host-side
        supervisor calls, both outside block execution), so the
        ``valid`` flags need not be walked.
        """
        self.invalidations += 1
        if segno is None:
            self._blocks.clear()
            self._hot.clear()
            self._count = 0
            return
        seg = self._blocks.pop(segno, None)
        if seg is not None:
            self._count -= len(seg)

    # -- banks (see Processor.set_dbr) ----------------------------------------

    def swap_out(self) -> tuple:
        """Hand the live blocks and hotness counters over as a bank;
        continue empty."""
        bank = (self._blocks.copy(), self._hot.copy())
        self._blocks.clear()
        self._hot.clear()
        self._count = 0
        return bank

    def swap_in(self, bank: tuple) -> None:
        """Make a bank live again (the live tables are empty)."""
        blocks, hot = bank
        self._blocks.update(blocks)
        self._hot.update(hot)
        self._count = sum(len(seg) for seg in blocks.values())

    @staticmethod
    def forget(bank: tuple, segno: int) -> None:
        """Drop ``segno``'s blocks from a bank."""
        bank[0].pop(segno, None)

    # -- accounting -----------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def reset_stats(self) -> None:
        """Zero the counters (benchmark hygiene); blocks survive."""
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.built = 0
        self.block_instructions = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss/invalidation counters for benchmarks and metrics."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "built": self.built,
            "block_instructions": self.block_instructions,
            "entries": self._count,
        }
