"""Experiment J1 — fast-gate repeat calls against the 645 trap baseline.

The paper's economic argument is that a gate call into a protected
subsystem should cost little more than an ordinary procedure call *once
the hardware has seen it* — descriptor fetches and ring validation are
first-call costs, not per-call costs.  This benchmark pins the measured
form of that claim with two machines running the identical call loop:

* **fast-gate machine** — hardware rings, the trace-compile tier
  (``repro.cpu.jit``) and the fast-gate entry path both on: a repeat
  run of the same process skips re-attachment, so the SDW associative
  memory stays warm and the compiled traces survive, and the repeat
  call re-validates nothing.
* **baseline645 machine** — ``hardware_rings=False``: every ring
  crossing traps to ``repro.krnl.baseline645``'s software assist, which
  completes the crossing in (simulated) supervisor code.  This is the
  Honeywell 645 arrangement the paper's hardware proposal replaces.

A second experiment, J2, pins the host cost of *switching* tenants: a
serving engine that round-robins over many processes keeps each one's
compiled traces (and the other host tiers) in a per-descriptor-segment
bank across DBR switches, so a tenant's repeat call costs about what a
single tenant's does.

Two kinds of figure come out:

* **Simulated cycles per gate call** (asserted on every host — the
  figures are architectural, hence deterministic): the fast-gate repeat
  call must undercut the 645 trap path by ``SIM_RATIO_FLOOR``, and the
  repeat call must be *cheaper than the first* by exactly the
  descriptor fetches the first call paid (``sdw_misses == 0``).
* **Host wall clock** (gated by ``REPRO_BENCH_STRICT`` like every
  wall-clock assertion in this directory): the trace tier should make
  the repeat run dramatically cheaper to *simulate* too, since the 645
  baseline burns host time interpreting its software assist.
"""

from __future__ import annotations

import os
import time

from conftest import build_call_loop_machine

#: call/return pairs per run (matches bench_host_throughput's COUNT)
COUNT = 300

#: warm runs before measuring: run 1 attaches + compiles the loop body,
#: runs 2-3 let the entry/exit stubs cross the hot threshold, so the
#: measured repeat run executes ~entirely inside compiled traces
WARM_RUNS = 3

#: timing repetitions; the best run is reported to shed scheduler noise
REPS = 5

#: host-dependent wall-clock assertions are skipped when this is "0"
STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"

#: simulated cycles per gate call, 645 trap baseline vs. fast-gate
#: repeat — measured ~28.5x; the floor leaves room for cost-model
#: tweaks without letting the trap path quietly become competitive
SIM_RATIO_FLOOR = 15.0

#: host time per run, 645 baseline vs. fast-gate repeat (measured ~85x
#: on a quiet host; the floor is deliberately loose for noisy CI)
HOST_RATIO_TARGET = 10.0


def _build_fast_gate():
    return build_call_loop_machine(
        target_ring=0, count=COUNT, tier="jit", fast_gate=True
    )


def _build_baseline645():
    return build_call_loop_machine(
        hardware_rings=False, target_ring=0, count=COUNT
    )


def test_j1_repeat_call_vs_baseline645(benchmark):
    """Warm repeat gate calls vs. the 645 software-ring trap machine."""
    machine, process = _build_fast_gate()
    first = machine.run(process, "caller$main", ring=4)
    assert first.halted
    for _ in range(WARM_RUNS - 1):
        machine.run(process, "caller$main", ring=4)

    b645, p645 = _build_baseline645()
    base = b645.run(p645, "caller$main", ring=4)  # warmup (host caches)
    assert base.halted

    repeat = machine.run(process, "caller$main", ring=4)
    assert repeat.halted
    assert (repeat.a, repeat.ring) == (first.a, first.ring)
    assert repeat.instructions == first.instructions

    # The repeat call pays zero descriptor fetches: the fast-gate entry
    # path kept the SDW associative memory warm across runs, so the
    # repeat run is cheaper than the first by exactly those fetches.
    assert repeat.metrics.sdw_misses == 0
    assert repeat.cycles < first.cycles

    # Architectural, therefore deterministic: assert on every host.
    repeat_cpc = repeat.cycles / COUNT
    base_cpc = base.cycles / COUNT
    sim_ratio = base_cpc / repeat_cpc
    assert sim_ratio >= SIM_RATIO_FLOOR, (
        f"645 trap path costs only {sim_ratio:.1f}x a fast-gate repeat "
        f"call ({base_cpc:.1f} vs {repeat_cpc:.1f} cycles/call); "
        f"expected >= {SIM_RATIO_FLOOR}x"
    )

    # Host wall clock, interleaved best-of-REPS (same reasoning as
    # bench_host_throughput: noise should land on both machines alike).
    best_fast = best_base = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        r = machine.run(process, "caller$main", ring=4)
        best_fast = min(best_fast, time.perf_counter() - start)
        assert r.halted
        start = time.perf_counter()
        s = b645.run(p645, "caller$main", ring=4)
        best_base = min(best_base, time.perf_counter() - start)
        assert s.halted
    host_ratio = best_base / best_fast

    benchmark.extra_info["gate_calls_per_run"] = COUNT
    benchmark.extra_info["repeat_cycles_per_call"] = round(repeat_cpc, 2)
    benchmark.extra_info["baseline645_cycles_per_call"] = round(base_cpc, 2)
    benchmark.extra_info["sim_cycle_ratio_vs_baseline645"] = round(
        sim_ratio, 2
    )
    benchmark.extra_info["first_call_extra_cycles"] = (
        first.cycles - repeat.cycles
    )
    benchmark.extra_info["host_time_ratio_vs_baseline645"] = round(
        host_ratio, 1
    )

    if STRICT:
        assert host_ratio >= HOST_RATIO_TARGET, (
            f"fast-gate repeat run only {host_ratio:.1f}x faster (host "
            f"time) than the 645 baseline; expected >= "
            f"{HOST_RATIO_TARGET}x"
        )

    result = benchmark(lambda: machine.run(process, "caller$main", ring=4))
    assert result.halted


def test_j1_traces_survive_fast_gate_repeats(benchmark):
    """Repeat calls re-enter surviving traces; nothing recompiles."""
    machine, process = _build_fast_gate()
    for _ in range(WARM_RUNS):
        machine.run(process, "caller$main", ring=4)

    jit = machine.processor.jit_cache
    reference = None
    for _ in range(3):
        result = machine.run(process, "caller$main", ring=4)
        assert result.halted
        stats = jit.stats()  # per-run: machine.run resets the counters
        # steady state: no compilation, no misses, no invalidations —
        # the run enters the surviving traces and stays there
        assert stats["compiled"] == 0
        assert stats["misses"] == 0
        assert stats["invalidations"] == 0
        assert stats["hits"] >= 1
        # ~the whole run retires inside compiled traces
        assert stats["jit_instructions"] >= 0.9 * result.instructions
        figures = (
            result.a,
            result.ring,
            result.cycles,
            result.instructions,
            result.metrics.architectural(),
        )
        if reference is None:
            reference = figures
        else:
            assert figures == reference  # repeat calls repeat exactly

    benchmark.extra_info["trace_entries"] = jit.stats()["entries"]
    benchmark.extra_info["trace_coverage"] = round(
        jit.stats()["jit_instructions"] / reference[3], 3
    )
    result = benchmark(lambda: machine.run(process, "caller$main", ring=4))
    assert result.halted


#: tenants the J2 round robin cycles through (the tenant_switch count)
TENANTS = 64

#: the tenant_switch program mix, 50/50
TENANT_MIX = [
    ("call_loop", {"count": 256}),
    ("compute", {"n": 2000}),
]

#: round-robin over TENANTS processes vs. one process, host time per
#: call — measured ~1.3x with banked host tiers (~12x when every switch
#: flushed them)
SWITCH_RATIO_CEILING = 2.0


def _round_robin(users):
    """One pass of calls: each user in turn, twice round, so every user
    makes one call of each program and consecutive calls alternate."""
    return [
        {
            "user": users[i % len(users)],
            "ring": 4,
            "program": TENANT_MIX[(i + i // len(users)) % 2][0],
            "args": TENANT_MIX[(i + i // len(users)) % 2][1],
        }
        for i in range(2 * len(users))
    ]


def _per_call_seconds(engine, jobs) -> float:
    start = time.perf_counter()
    for job in jobs:
        result = engine.run_job(dict(job))
        assert "payload" in result, result
    return (time.perf_counter() - start) / len(jobs)


def test_j2_tenant_switch_keeps_traces(benchmark):
    """Round robin over 64 tenants vs. one tenant, same call mix."""
    from repro.serve.workers import GateCallEngine

    switching, single = GateCallEngine(), GateCallEngine()
    switch_jobs = _round_robin([f"ts{n:02d}" for n in range(TENANTS)])
    single_jobs = _round_robin(["ts00"] * TENANTS)
    for _ in range(WARM_RUNS):  # attach every tenant, compile its traces
        _per_call_seconds(switching, switch_jobs)
        _per_call_seconds(single, single_jobs)

    best_switch = best_single = float("inf")
    for _ in range(REPS):
        best_switch = min(
            best_switch, _per_call_seconds(switching, switch_jobs)
        )
        best_single = min(
            best_single, _per_call_seconds(single, single_jobs)
        )
    ratio = best_switch / best_single

    benchmark.extra_info["tenants"] = TENANTS
    benchmark.extra_info["switching_us_per_call"] = round(best_switch * 1e6, 1)
    benchmark.extra_info["single_us_per_call"] = round(best_single * 1e6, 1)
    benchmark.extra_info["switch_ratio"] = round(ratio, 2)

    if STRICT:
        assert ratio <= SWITCH_RATIO_CEILING, (
            f"round robin over {TENANTS} tenants costs {ratio:.2f}x a "
            f"single tenant's calls; expected <= {SWITCH_RATIO_CEILING}x"
        )

    benchmark(lambda: _per_call_seconds(switching, switch_jobs[:8]))
