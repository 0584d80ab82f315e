"""Per-layer metrics from the traced run.

:func:`install` wraps the public functions of each layer (see the
table in README.md); :func:`per_layer` turns the recorded spans of the
traced phase into the metrics named in ``BENCHMARK.json``.

Every ``*_us`` figure is a median over the traced calls that entered
the layer, of the layer's self time within the call (its spans minus
the parts covered by their child spans); README.md names the three
exceptions (``sessions.park_us``, ``sessions.admit_us`` and the
per-frame ``replication.apply_us``).  Whether a layer ran on every
call, or only on some, is reported beside it as a ``*_per_call``
count.  A layer a workload never enters reports 0.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Any, Dict, List

from spans import Span, Tracer, self_times


def _message_id(message: Any) -> Any:
    return message.get("id") if isinstance(message, dict) else None


def install(tracer: Tracer, loop: asyncio.AbstractEventLoop) -> None:
    """Wrap every traced layer's entry points."""
    from repro.krnl.supervisor import Supervisor
    from repro.cpu.processor import Processor
    from repro.serve import catalog, gateway, sessions, workers
    from repro.serve.admission import AdmissionController
    from repro.sim.machine import Machine
    from repro.sim.metrics import MetricsSnapshot
    from repro.state.journal import JournalWriter
    from repro.state.replication import ReplicaApplier

    tracer.carry_context(loop)
    # serve.protocol, as the gateway uses it
    tracer.function(
        gateway, "decode_line", "protocol.decode",
        annotate=lambda args, result, extra: _message_id(result),
    )
    tracer.function(
        gateway, "encode", "protocol.encode",
        call_id_from=lambda args: _message_id(args[0]),
    )
    # serve.gateway with catalog and admission
    tracer.method(
        gateway.RingGateway, "_verb_call", "gateway.call",
        call_id_from=lambda args: _message_id(args[2]),
    )
    tracer.function(catalog, "build_program", "gateway.validate")
    tracer.method(AdmissionController, "admit", "gateway.admit")
    tracer.method(AdmissionController, "release", "gateway.admit")

    def journal_call_id(args, result, extra):
        extra["journal_call_id"] = args[0].get("call_id")

    # serve.workers (and the session shards' equivalent entry point)
    tracer.function(gateway, "execute_gate_call", "workers.execute", annotate=journal_call_id)
    tracer.function(gateway, "execute_session_call", "workers.execute", annotate=journal_call_id)

    def call_metrics(args, result, extra):
        if isinstance(result, dict) and "metrics" in result:
            extra["metrics"] = result["metrics"]

    tracer.method(workers.GateCallEngine, "run_job", "workers.run_job", annotate=call_metrics)
    tracer.method(workers.GateCallEngine, "entry_for", "workers.entry_for")
    # sim, krnl, cpu
    tracer.method(Machine, "run", "sim.run")
    tracer.method(Machine, "start", "sim.start")
    for name in ("collect", "minus", "plus", "as_dict", "from_dict"):
        tracer.method(MetricsSnapshot, name, "sim.metrics")
    tracer.method(Supervisor, "attach", "krnl.attach")
    tracer.method(Processor, "run", "cpu.run")
    # state: journal, checkpoint, park deltas
    tracer.method(JournalWriter, "append", "state.journal_append")
    tracer.method(JournalWriter, "sync", "state.journal_sync")
    tracer.function(workers, "snapshot_machine", "state.checkpoint")
    tracer.function(workers, "write_snapshot_file", "state.checkpoint")
    tracer.function(sessions, "delta_snapshot", "state.delta_encode")
    tracer.function(sessions, "encode_delta", "state.delta_encode")
    tracer.function(sessions, "decode_delta", "state.delta_apply")
    tracer.function(sessions, "apply_delta", "state.delta_apply")

    # serve.sessions
    def park_bytes(args, result, extra):
        extra["bytes"] = len(result) if result is not None else 0

    tracer.method(sessions.SessionPool, "park", "sessions.park", annotate=park_bytes)
    tracer.method(sessions.SessionPool, "execute", "sessions.execute")

    # serve.standby / state.replication
    def frame_call_id(args, result, extra):
        extra["journal_call_id"] = args[1].record.get("call_id")

    tracer.method(ReplicaApplier, "apply", "replication.apply", annotate=frame_call_id)


async def process_hop_us(pings: int = 400) -> float:
    """Median round trip of a bare ``worker_ping`` through a process pool,
    awaited from an event loop the way the gateway awaits its calls."""
    from repro.serve.workers import WorkerPool, worker_ping

    loop = asyncio.get_running_loop()
    pool = WorkerPool(workers=2, backend="process")
    try:
        samples = []
        for token in range(pings):
            started = time.perf_counter()
            await loop.run_in_executor(pool.executor, worker_ping, token)
            samples.append(time.perf_counter() - started)
    finally:
        pool.shutdown(wait=True)
    return statistics.median(samples[pings // 10:]) * 1e6


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(
    spans: List[Span],
    records: List[Any],
    untraced_cps: float,
    traced_cps: float,
    hop_us: float,
    lag_records: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced phase."""
    from repro.sim.metrics import MetricsSnapshot

    calls = {record.call_id: record for record in records if record.ok}
    n = max(1, len(calls))
    own = self_times(spans)
    #: call id -> layer -> [self ns, spans, whole-span ns]
    by_call: Dict[Any, Dict[str, List[int]]] = {call: {} for call in calls}
    top_ns: Dict[Any, int] = {call: 0 for call in calls}
    journal_ids: Dict[Any, Any] = {}
    frames = []
    metrics: Dict[Any, Dict[str, int]] = {}
    park_sizes = []
    for span in spans:
        if span.name == "replication.apply":
            frames.append(span)
            continue
        layers = by_call.get(span.call_id)
        if layers is None:
            continue
        entry = layers.setdefault(span.name, [0, 0, 0])
        entry[0] += own[span.span_id]
        entry[1] += 1
        entry[2] += span.duration
        if span.parent is None:
            top_ns[span.call_id] += span.duration
        if span.name == "workers.execute":
            journal_ids[span.extra.get("journal_call_id")] = span.call_id
        elif span.name == "workers.run_job" and "metrics" in span.extra:
            metrics[span.call_id] = span.extra["metrics"]
        elif span.name == "sessions.park":
            park_sizes.append(span.extra["bytes"])

    def us(layer: str) -> float:
        return _median([
            layers[layer][0] / 1e3 for layers in by_call.values() if layer in layers
        ])

    def whole_us(layer: str, minus: str = "") -> float:
        return _median([
            (layers[layer][2] - layers.get(minus, (0, 0, 0))[2]) / 1e3
            for layers in by_call.values() if layer in layers
        ])

    def count(layer: str) -> float:
        return sum(layers.get(layer, (0, 0, 0))[1] for layers in by_call.values()) / n

    ns_per_instruction = [
        by_call[call]["cpu.run"][0] / metrics[call]["instructions"]
        for call in calls
        if "cpu.run" in by_call[call] and metrics.get(call, {}).get("instructions")
    ]
    total = MetricsSnapshot.sum_of(
        MetricsSnapshot.from_dict(m) for m in metrics.values()
    )
    rates = {name: value or 0.0 for name, value in total.rates().items()}
    traced_frames = [f for f in frames if f.extra.get("journal_call_id") in journal_ids]
    hydrates = sum(
        1 for record in calls.values()
        if record.response.get("session", {}).get("admitted") == "hydrated"
    )
    return {
        "protocol.encode_us": us("protocol.encode"),
        "protocol.decode_us": us("protocol.decode"),
        "protocol.bytes_per_call": _median([r.wire_bytes for r in calls.values()]),
        "gateway.validate_us": us("gateway.validate"),
        "gateway.admit_us": us("gateway.admit"),
        "gateway.self_us": us("gateway.call"),
        "workers.hop_us": hop_us,
        "workers.run_job_us": us("workers.run_job"),
        "workers.execute_us": us("workers.execute"),
        "workers.entry_for_us": us("workers.entry_for"),
        "sim.run_us": us("sim.run"),
        "sim.metrics_us": us("sim.metrics"),
        "sim.start_us": us("sim.start"),
        "krnl.attach_us": us("krnl.attach"),
        "krnl.attaches_per_call": count("krnl.attach"),
        "cpu.run_us": us("cpu.run"),
        "cpu.host_ns_per_instruction": _median(ns_per_instruction),
        "cpu.jit_hit_rate": rates["jit_hit_rate"],
        "cpu.block_hit_rate": rates["block_hit_rate"],
        "cpu.ptlb_hit_rate": rates["ptlb_hit_rate"],
        "cpu.sdw_hit_rate": rates["sdw_hit_rate"],
        "cpu.instructions_per_call": total.instructions / n,
        "state.journal_append_us": us("state.journal_append"),
        "state.journal_sync_us": us("state.journal_sync"),
        "state.fsyncs_per_call": count("state.journal_sync"),
        "state.checkpoint_us": us("state.checkpoint"),
        "state.delta_encode_us": us("state.delta_encode"),
        "state.delta_apply_us": us("state.delta_apply"),
        "state.park_bytes": _median(park_sizes),
        "sessions.park_us": whole_us("sessions.park"),
        "sessions.admit_us": whole_us("sessions.execute", minus="workers.run_job"),
        "sessions.hydrates_per_call": hydrates / n,
        "sessions.parks_per_call": count("sessions.park"),
        "replication.apply_us": _median([f.duration / 1e3 for f in traced_frames]),
        "replication.frames_per_call": len(traced_frames) / n,
        "replication.lag_records": float(lag_records),
        "loadgen.unattributed_us": _median(
            [calls[call].rtt_s * 1e6 - top_ns[call] / 1e3 for call in calls]
        ),
        "trace.overhead_share": 1.0 - traced_cps / untraced_cps if untraced_cps else 0.0,
    }
