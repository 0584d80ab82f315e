"""Metrics collection for experiments, benchmarks, and the fleet driver.

A :class:`MetricsSnapshot` freezes every counter the simulation keeps —
processor cycles and statistics, memory traffic, SDW-cache behaviour,
and the host-side fast-path tiers — so benchmark code can compute
differences across phases without worrying about which component owns
which counter.

Snapshots are value objects and support arithmetic: :meth:`minus` turns
two cumulative snapshots into a per-phase delta (what
``Machine.run(reset_counters=False)`` uses so consecutive runs still
compose), and :meth:`plus` / :meth:`sum_of` merge the per-shard
snapshots of a :mod:`repro.sim.fleet` run into fleet totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..cpu.processor import Processor


@dataclass(frozen=True)
class MetricsSnapshot:
    """All simulation counters at one instant."""

    cycles: int
    instructions: int
    faults: int
    traps_delivered: int
    calls: int
    returns: int
    ring_crossings: int
    memory_reads: int
    memory_writes: int
    sdw_hits: int
    sdw_misses: int
    #: fast-path tiers (host-side only; see repro.cpu.access_cache)
    ptlb_hits: int = 0
    ptlb_misses: int = 0
    icache_hits: int = 0
    icache_misses: int = 0
    #: superblock tier (host-side only; see repro.cpu.blockcache)
    block_hits: int = 0
    block_misses: int = 0
    block_invalidations: int = 0
    block_instructions: int = 0
    #: trace-compile tier (host-side only; see repro.cpu.jit)
    jit_hits: int = 0
    jit_misses: int = 0
    jit_invalidations: int = 0
    jit_instructions: int = 0

    #: counters that describe the simulated machine itself; identical
    #: whether the host-side tiers are on or off (the host-tier hit
    #: counters above are diagnostics of *how* the figures were reached)
    ARCHITECTURAL = (
        "cycles",
        "instructions",
        "faults",
        "traps_delivered",
        "calls",
        "returns",
        "ring_crossings",
        "memory_reads",
        "memory_writes",
        "sdw_hits",
        "sdw_misses",
    )

    @classmethod
    def collect(cls, proc: Processor) -> "MetricsSnapshot":
        """Freeze the current counters of ``proc`` and its memory."""
        cache = proc.sdw_cache.stats()
        ptlb = proc.access_cache.stats()
        icache = proc.inst_cache.stats()
        blocks = proc.block_cache.stats()
        traces = proc.jit_cache.stats()
        return cls(
            cycles=proc.cycles,
            instructions=proc.stats.instructions,
            faults=proc.stats.faults,
            traps_delivered=proc.stats.traps_delivered,
            calls=proc.stats.calls,
            returns=proc.stats.returns,
            ring_crossings=proc.stats.ring_crossings,
            memory_reads=proc.memory.reads,
            memory_writes=proc.memory.writes,
            sdw_hits=cache["hits"],
            sdw_misses=cache["misses"],
            ptlb_hits=ptlb["hits"],
            ptlb_misses=ptlb["misses"],
            icache_hits=icache["hits"],
            icache_misses=icache["misses"],
            block_hits=blocks["hits"],
            block_misses=blocks["misses"],
            block_invalidations=blocks["invalidations"],
            block_instructions=blocks["block_instructions"],
            jit_hits=traces["hits"],
            jit_misses=traces["misses"],
            jit_invalidations=traces["invalidations"],
            jit_instructions=traces["jit_instructions"],
        )

    @classmethod
    def zero(cls) -> "MetricsSnapshot":
        """The additive identity (an all-zero snapshot)."""
        return cls(**{name: 0 for name in cls.__dataclass_fields__})

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "MetricsSnapshot":
        """The inverse of :meth:`as_dict`.

        Unknown keys are rejected (they signal a version skew between
        whoever serialized the dict and this build); missing host-tier
        counters default to 0 so architectural-only dicts — what workers
        report as their totals — round-trip too.
        """
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"unknown metric counter(s): {sorted(unknown)}"
            )
        return cls(
            **{
                name: int(data.get(name, 0))
                for name in cls.__dataclass_fields__
            }
        )

    def delta(self, earlier: "MetricsSnapshot") -> Dict[str, int]:
        """Per-counter difference ``self - earlier`` as a dict."""
        return {
            name: getattr(self, name) - getattr(earlier, name)
            for name in self.__dataclass_fields__
        }

    def minus(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """``self - earlier`` as a snapshot (per-phase attribution)."""
        return MetricsSnapshot(**self.delta(earlier))

    def plus(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """``self + other`` as a snapshot (shard merging)."""
        return MetricsSnapshot(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in self.__dataclass_fields__
            }
        )

    @classmethod
    def sum_of(
        cls, snapshots: Iterable["MetricsSnapshot"]
    ) -> "MetricsSnapshot":
        """Merge many shards' snapshots into one fleet total."""
        total = cls.zero()
        for snapshot in snapshots:
            total = total.plus(snapshot)
        return total

    #: the hit/miss counter pairs that have a meaningful hit rate
    TIERS = ("sdw", "ptlb", "icache", "block", "jit")

    def rates(self) -> Dict[str, Optional[float]]:
        """Hit rate per cache tier as ``{tier}_hit_rate`` keys.

        A tier that saw no traffic reports ``None`` rather than a fake
        rate.  Shared by ``repro run --metrics-json`` and the gateway's
        ``stats`` verb so the two always agree on the arithmetic.
        """
        out: Dict[str, Optional[float]] = {}
        for tier in self.TIERS:
            hits = getattr(self, f"{tier}_hits")
            misses = getattr(self, f"{tier}_misses")
            total = hits + misses
            out[f"{tier}_hit_rate"] = (
                round(hits / total, 4) if total else None
            )
        return out

    def architectural(self) -> Dict[str, int]:
        """Only the simulated-machine counters (tier-independent)."""
        return {name: getattr(self, name) for name in self.ARCHITECTURAL}

    def as_dict(self) -> Dict[str, int]:
        """Every counter as a plain dict (CLI ``--metrics-json``)."""
        return {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }
