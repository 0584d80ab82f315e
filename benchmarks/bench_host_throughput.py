"""Experiment H1 — host-side throughput of the interpreter fast paths.

Unlike every other benchmark in this directory, the figure of interest
here is *host* instructions per second, not simulated cycles: the
validated-translation cache (PTLB), the decoded-instruction cache
(``repro.cpu.access_cache``), the superblock execution tier
(``repro.cpu.blockcache``) and the trace-compile tier
(``repro.cpu.jit``) elide Python-side SDW unpacking, bracket
validation, instruction decode, and per-instruction dispatch on the hot
path, while charging the identical simulated cycles.  The benchmark
records the throughput of each tier and the resulting speedups into
``benchmark.extra_info`` so the trajectory lands in the ``BENCH_*.json``
output, and asserts the speedup targets and cycle neutrality.

Wall-clock assertions are inherently host-dependent, so they are gated:
set ``REPRO_BENCH_STRICT=0`` (loaded CI runners) to skip the speedup
thresholds while still asserting cycle neutrality, which must hold on
any host.  Timing itself is best-of-``REPS`` to shed scheduler noise.
"""

from __future__ import annotations

import os
import time

from conftest import build_call_loop_machine

from repro.cpu.processor import TIERS

#: call/return pairs per run — ~5 instructions each plus the loop body
COUNT = 300

#: larger run for the speedup ratios: the per-dispatch noise floor is
#: flat, so a longer loop separates the tiers far more stably
SPEEDUP_COUNT = 4000

#: timing repetitions; the best run is reported to shed scheduler noise
REPS = 5

#: host-dependent speedup assertions are skipped when this is "0"
STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"

#: targets: block tier vs. the PR 1 fast path, and vs. everything off
BLOCK_VS_FAST_TARGET = 1.5
BLOCK_VS_OFF_TARGET = 4.0
FAST_VS_OFF_TARGET = 2.0

#: trace-compile tier vs. the superblock tier (the ISSUE 6 headline)
JIT_VS_BLOCK_TARGET = 3.0


def _tier_throughputs(tiers):
    """Best-of-``REPS`` host instructions/sec per named tier.

    One untimed warmup run per tier (cold caches, cold code), then the
    repetitions are *interleaved* across tiers so scheduler noise and
    frequency drift land on every tier alike instead of biasing
    whichever was measured first.  Returns ``(ips, result)`` per tier.
    """
    machines = {
        name: build_call_loop_machine(
            target_ring=0, count=SPEEDUP_COUNT, tier=name
        )
        for name in tiers
    }
    best = dict.fromkeys(tiers, 0.0)
    results = {}
    for name, (machine, process) in machines.items():  # warmup
        results[name] = machine.run(process, "caller$main", ring=4)
        assert results[name].halted
    for _ in range(REPS):
        for name, (machine, process) in machines.items():
            start = time.perf_counter()
            result = machine.run(process, "caller$main", ring=4)
            elapsed = time.perf_counter() - start
            assert result.halted
            best[name] = max(best[name], result.instructions / elapsed)
            results[name] = result
    return {name: (best[name], results[name]) for name in tiers}


def _assert_neutral(result_a, result_b):
    """Identical simulated figures — required on every host."""
    assert result_a.cycles == result_b.cycles
    assert result_a.instructions == result_b.instructions
    assert (result_a.a, result_a.ring, result_a.ring_crossings) == (
        result_b.a,
        result_b.ring,
        result_b.ring_crossings,
    )
    assert (
        result_a.metrics.architectural() == result_b.metrics.architectural()
    )


def test_h1_block_tier_on(benchmark):
    machine, process = build_call_loop_machine(target_ring=0, count=COUNT)

    def run():
        return machine.run(process, "caller$main", ring=4)

    result = benchmark(run)
    assert result.halted
    proc = machine.processor
    benchmark.extra_info["instructions"] = result.instructions
    benchmark.extra_info["cycles"] = result.cycles
    benchmark.extra_info["icache_hits"] = proc.inst_cache.stats()["hits"]
    benchmark.extra_info["ptlb_hits"] = proc.access_cache.stats()["hits"]
    benchmark.extra_info["block_hits"] = proc.block_cache.stats()["hits"]
    benchmark.extra_info["block_instructions"] = proc.block_cache.stats()[
        "block_instructions"
    ]


def test_h1_fast_path_only(benchmark):
    machine, process = build_call_loop_machine(
        target_ring=0, count=COUNT, tier="fast_path"
    )

    def run():
        return machine.run(process, "caller$main", ring=4)

    result = benchmark(run)
    assert result.halted
    benchmark.extra_info["instructions"] = result.instructions
    benchmark.extra_info["cycles"] = result.cycles
    benchmark.extra_info["icache_hits"] = machine.processor.inst_cache.stats()[
        "hits"
    ]


def test_h1_fast_path_off(benchmark):
    machine, process = build_call_loop_machine(
        target_ring=0,
        count=COUNT,
        tier="interp",
    )

    def run():
        return machine.run(process, "caller$main", ring=4)

    result = benchmark(run)
    assert result.halted
    benchmark.extra_info["instructions"] = result.instructions
    benchmark.extra_info["cycles"] = result.cycles


def test_h1_speedup_vs_disabled(benchmark):
    """The headline figures: tier speedups, cycle-for-cycle equal.

    Neutrality is asserted unconditionally; the wall-clock thresholds
    only under ``REPRO_BENCH_STRICT`` (default on).
    """
    # Time the measured body first so this test contributes its entry
    # (and extra_info) to the JSON output even when a threshold trips.
    machine, process = build_call_loop_machine(target_ring=0, count=COUNT)
    benchmark(lambda: machine.run(process, "caller$main", ring=4))

    measured = _tier_throughputs(TIERS)
    ips_jit, result_jit = measured["jit"]
    ips_block, result_block = measured["block"]
    ips_fast, result_fast = measured["fast_path"]
    ips_off, result_off = measured["interp"]

    # Cycle neutrality: the host tiers elide host work only.
    _assert_neutral(result_block, result_jit)
    _assert_neutral(result_block, result_fast)
    _assert_neutral(result_block, result_off)

    jit_vs_block = ips_jit / ips_block
    block_vs_fast = ips_block / ips_fast
    block_vs_off = ips_block / ips_off
    fast_vs_off = ips_fast / ips_off
    benchmark.extra_info["instructions_per_sec_jit"] = round(ips_jit)
    benchmark.extra_info["instructions_per_sec_block"] = round(ips_block)
    benchmark.extra_info["instructions_per_sec_fast"] = round(ips_fast)
    benchmark.extra_info["instructions_per_sec_slow"] = round(ips_off)
    benchmark.extra_info["jit_speedup_vs_block"] = round(jit_vs_block, 2)
    benchmark.extra_info["block_speedup_vs_fast"] = round(block_vs_fast, 2)
    benchmark.extra_info["block_speedup_vs_disabled"] = round(block_vs_off, 2)
    benchmark.extra_info["speedup_vs_disabled"] = round(fast_vs_off, 2)

    if STRICT:
        assert fast_vs_off >= FAST_VS_OFF_TARGET, (
            f"fast path speedup {fast_vs_off:.2f}x below the "
            f"{FAST_VS_OFF_TARGET}x target"
        )
        assert block_vs_fast >= BLOCK_VS_FAST_TARGET, (
            f"block tier speedup {block_vs_fast:.2f}x over the fast path, "
            f"below the {BLOCK_VS_FAST_TARGET}x target"
        )
        assert block_vs_off >= BLOCK_VS_OFF_TARGET, (
            f"block tier speedup {block_vs_off:.2f}x over the seed "
            f"interpreter, below the {BLOCK_VS_OFF_TARGET}x target"
        )
        assert jit_vs_block >= JIT_VS_BLOCK_TARGET, (
            f"trace tier speedup {jit_vs_block:.2f}x over the block "
            f"tier, below the {JIT_VS_BLOCK_TARGET}x target"
        )
