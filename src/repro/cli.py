"""Command-line interface.

Subcommands, all runnable as ``python -m repro <cmd>``:

``figures``
    Print the reproductions of all nine paper figures.
``experiments``
    Run and print the crossing-cost experiment (C1).
``asm FILE``
    Assemble a source file and print its listing (and disassembly with
    ``--disasm``).
``run FILE``
    Assemble a program, install it on a fresh machine (with the standard
    supervisor gate services), execute ``segment$ENTRY`` in the chosen
    ring, and report console output and counters.
``serve``
    Start the ring gateway (:mod:`repro.serve`): gate calls as a
    multi-tenant JSON-lines-over-TCP service in front of a pool of
    persistent machine workers (optionally durable: per-worker
    snapshots plus a write-ahead gate-call journal).
``loadgen``
    Drive a burst of concurrent gate calls against a running gateway
    and report client-side and gateway-side figures.
``checkpoint``
    Assemble a program, execute a bounded number of instructions, and
    write the whole machine — registers, memory, descriptors,
    supervisor, counters — to a verified snapshot file.
``restore``
    Restore a machine from a snapshot (optionally continuing execution
    to HALT) and report its counters.
``replay``
    Replay a gate-call journal through a fresh machine, optionally
    verifying every replayed outcome against the journaled one.
``standby``
    Run a standalone warm standby that receives shipped journal
    records from a replicated gateway (``serve --replica-endpoint``),
    maintains replica machines, and serves promotion on failover.
``journal dump``
    List a gate-call journal's records (seq, CRC, call id, outcome)
    human-readably or as JSON.
``adversary run``
    Sweep the seeded ring-violation attack corpus across the
    execution-tier matrix (interpreter, fast path, block, JIT, fast
    gate, snapshot-restore) asserting every attack faults with the
    expected code, bit-identically on every tier.
``adversary dump``
    List the generated attack corpus — or, with ``--json``, emit the
    full program summaries — without executing anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .asm import assemble, listing
from .asm.disasm import disassemble_image
from .core.acl import AclEntry, RingBracketSpec
from .errors import ReproError
from .sim.machine import Machine


def _cmd_figures(args: argparse.Namespace) -> int:
    from .analysis.figures import render_all_figures

    text = render_all_figures()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .analysis.report import crossing_cost_table

    print(crossing_cost_table())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .analysis.verify import render_report, verify_all

    results = verify_all()
    print(render_report(results))
    return 0 if all(result.ok for result in results) else 1


def _cmd_asm(args: argparse.Namespace) -> int:
    with open(args.file) as handle:
        source = handle.read()
    image = assemble(source, name=args.name or "program")
    print(listing(image, source))
    if args.disasm:
        print()
        print(disassemble_image(image))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.file) as handle:
        source = handle.read()
    machine = Machine()
    image, process = _install_source(machine, source, args.ring, args.name)
    trace = None
    if args.trace:
        from .sim.trace import TraceLog

        trace = TraceLog()
        trace.attach(machine.processor)
    result = machine.run(
        process, f"{image.name}${args.entry}", ring=args.ring,
        max_steps=args.max_steps,
    )
    if trace is not None:
        trace.detach()
        print(trace.render())
    if args.metrics_json:
        payload = dict(result.metrics.as_dict())
        payload.update(result.metrics.rates())
        payload["halted"] = result.halted
        payload["ring"] = result.ring
        payload["a"] = result.a
        payload["q"] = result.q
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.metrics_json == "-":
            print(text)
        else:
            with open(args.metrics_json, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.metrics_json}")
        return 0
    print(f"halted:         {result.halted}")
    print(f"ring:           {result.ring}")
    print(f"A register:     {result.a}")
    print(f"Q register:     {result.q}")
    print(f"instructions:   {result.instructions}")
    print(f"cycles:         {result.cycles}")
    print(f"ring crossings: {result.ring_crossings}")
    if result.console:
        print(f"console:        {result.console}")
    return 0


def _install_source(machine: Machine, source: str, ring: int, name):
    """``run``/``checkpoint`` shared setup: store, login, initiate."""
    user = machine.add_user("operator")
    if ring <= 3:
        spec = RingBracketSpec.procedure(ring, callable_from=5)
    else:
        spec = RingBracketSpec.procedure(ring)
    image = machine.store_program(
        ">run>program", source, acl=[AclEntry("*", spec)], name=name
    )
    process = machine.login(user)
    machine.initiate(process, ">run>program")
    return image, process


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from .errors import MachineHalted
    from .state.snapshot import snapshot_machine, write_snapshot_file

    with open(args.file) as handle:
        source = handle.read()
    machine = Machine()
    image, process = _install_source(machine, source, args.ring, args.name)
    machine.start(process, f"{image.name}${args.entry}", ring=args.ring)
    processor = machine.processor
    halted = False
    for _ in range(args.steps):
        try:
            processor.step()
        except MachineHalted:
            halted = True
            break
    processor.halted = halted
    digest = write_snapshot_file(
        snapshot_machine(machine), args.out, compress=args.compress
    )
    print(f"wrote {args.out}")
    print(f"sha256:         {digest}")
    print(f"halted:         {halted}")
    print(f"ring:           {processor.registers.ipr.ring}")
    print(f"instructions:   {processor.stats.instructions}")
    print(f"cycles:         {processor.cycles}")
    print(f"ring crossings: {processor.stats.ring_crossings}")
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    from .state.snapshot import read_snapshot_file, restore_machine

    snap = read_snapshot_file(args.snapshot)
    machine = restore_machine(snap)
    processor = machine.processor
    print(f"restored {args.snapshot} (integrity verified)")
    if args.run and not processor.halted:
        processor.run(max_steps=args.max_steps)
    print(f"halted:         {processor.halted}")
    print(f"ring:           {processor.registers.ipr.ring}")
    print(f"A register:     {processor.registers.a}")
    print(f"Q register:     {processor.registers.q}")
    print(f"instructions:   {processor.stats.instructions}")
    print(f"cycles:         {processor.cycles}")
    print(f"ring crossings: {processor.stats.ring_crossings}")
    if machine.console:
        print(f"console:        {machine.console}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import os

    from .state.recover import JOURNAL_NAME, replay_journal

    path = args.journal
    if os.path.isdir(path):
        path = os.path.join(path, JOURNAL_NAME)
    report = replay_journal(path, verify=args.verify, strict=args.strict)
    engine = report.log.engine
    print(f"replayed {report.replayed} journaled call(s) from {path}")
    if args.verify:
        print(f"verified {report.verified} outcome(s) against the journal")
    print(f"last sequence:  {report.log.last_seq}")
    print(f"calls counted:  {engine.calls}")
    for counter, value in sorted(engine.total.architectural().items()):
        print(f"  {counter}: {value}")
    return 0


def _cmd_journal_dump(args: argparse.Namespace) -> int:
    import os

    from .state.recover import JOURNAL_NAME
    from .state.replication import read_frames

    path = args.journal
    if os.path.isdir(path):
        path = os.path.join(path, JOURNAL_NAME)
    frames = read_frames(path, limit=args.limit)
    if args.json:
        payload = {
            "path": path,
            "count": len(frames),
            "last_seq": frames[-1].seq if frames else 0,
            "records": [
                {"seq": f.seq, "crc": f.crc, **f.record} for f in frames
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{path}: {len(frames)} record(s)")
    header = (
        f"{'seq':>6}  {'crc':>8}  {'call_id':<32}  "
        f"{'user':<10} {'ring':>4}  {'program':<12} {'outcome':<14} "
        f"{'cycles':>8}"
    )
    print(header)
    for frame in frames:
        record = frame.record
        job = record.get("job", {})
        result = record.get("result", {})
        if "error" in result:
            outcome = result["error"]
            cycles = ""
        else:
            outcome = "ok"
            cycles = str(result.get("metrics", {}).get("cycles", ""))
        print(
            f"{frame.seq:>6}  {frame.crc:08x}  "
            f"{str(record.get('call_id', ''))[:32]:<32}  "
            f"{str(job.get('user', ''))[:10]:<10} "
            f"{job.get('ring', ''):>4}  "
            f"{str(job.get('program', ''))[:12]:<12} "
            f"{outcome[:14]:<14} {cycles:>8}"
        )
    return 0


def _cmd_standby(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve.standby import StandbyConfig, StandbyServer

    async def main() -> int:
        server = StandbyServer(
            StandbyConfig(dir=args.dir, host=args.host, port=args.port)
        )
        await server.start()
        print(
            f"ring standby listening on {args.host}:{server.port} "
            f"(mirroring slots under {args.dir})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await stop.wait()
        await server.stop()
        for slot, applier in sorted(server._appliers.items()):
            print(
                f"slot {slot}: applied {applier.applied} record(s) "
                f"through seq {applier.log.last_seq} "
                f"({applier.promotions} promotion(s))",
                flush=True,
            )
        return 0

    return asyncio.run(main())


def _parse_ring_limit(text: str):
    """``RING=RATE[:BURST[:PENDING]]`` -> (ring, RingPolicy)."""
    from .serve.admission import RingPolicy

    try:
        ring_text, spec = text.split("=", 1)
        parts = spec.split(":")
        ring = int(ring_text)
        rate = float(parts[0])
        burst = int(parts[1]) if len(parts) > 1 else 32
        pending = int(parts[2]) if len(parts) > 2 else 64
    except (ValueError, IndexError):
        raise argparse.ArgumentTypeError(
            f"expected RING=RATE[:BURST[:PENDING]], got {text!r}"
        )
    return ring, RingPolicy(rate=rate, burst=burst, max_pending=pending)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve.admission import RingPolicy
    from .serve.gateway import GatewayConfig, RingGateway

    def gateway_config(host: str, port: int) -> GatewayConfig:
        return GatewayConfig(
            host=host,
            port=port,
            workers=args.workers,
            backend=args.backend,
            call_timeout=args.call_timeout,
            drain_timeout=args.drain_timeout,
            durability_dir=args.durability_dir,
            checkpoint_interval=args.checkpoint_interval,
            fsync_every=args.fsync_every,
            max_sessions=args.max_sessions,
            session_store_dir=args.session_store,
            prefetch_interval=args.prefetch_interval,
            replicas=args.replicas,
            ship_every=args.ship_every,
            ack_window=args.ack_window,
            replica_endpoints=tuple(args.replica_endpoint or ()),
            machine_profile=args.machine_profile,
            hardening=tuple(args.hardening or ()),
            default_policy=RingPolicy(
                rate=args.rate,
                burst=args.burst,
                max_pending=args.max_pending,
            ),
            ring_policies=dict(args.ring_limit or []),
        )

    async def wait_for_shutdown() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await stop.wait()

    async def main_single() -> int:
        gateway = RingGateway(gateway_config(args.host, args.port))
        await gateway.start()
        durable = (
            f", durable in {args.durability_dir}"
            if args.durability_dir
            else ""
        )
        paged = (
            f", {args.max_sessions} live session slots"
            if args.max_sessions
            else ""
        )
        replica_count = args.replicas + len(args.replica_endpoint or ())
        replicated = (
            f", {replica_count} replica(s)" if replica_count else ""
        )
        profile = (
            f", {args.machine_profile} machines"
            if args.machine_profile != "ringed"
            else ""
        )
        hardened = (
            f", hardening: {'+'.join(args.hardening)}"
            if args.hardening
            else ""
        )
        print(
            f"ring gateway listening on {args.host}:{gateway.port} "
            f"({gateway.pool.backend} backend, "
            f"{args.workers} workers{durable}{paged}{replicated}{profile}"
            f"{hardened})",
            flush=True,
        )
        await wait_for_shutdown()
        print("draining...", flush=True)
        await gateway.stop()
        counters = gateway.counters
        print(
            f"served {counters.completed} calls "
            f"({counters.timed_out} timed out, "
            f"{counters.rejected_rate_limited + counters.rejected_queue_full}"
            f" rejected, {counters.recoveries} pool recoveries, "
            f"{counters.promotions} promotions)",
            flush=True,
        )
        return 0

    async def main_routed() -> int:
        from .serve.router import RouterConfig, SessionRouter

        router = SessionRouter(
            RouterConfig(
                host=args.host,
                port=args.port,
                call_timeout=args.call_timeout,
            )
        )
        await router.start()
        for index in range(args.gateways):
            await router.spawn(
                f"gw{index}", gateway_config("127.0.0.1", 0)
            )
        print(
            f"session router listening on {args.host}:{router.port} "
            f"({args.gateways} gateways x {args.workers} workers, "
            f"{args.max_sessions} live session slots each)",
            flush=True,
        )
        await wait_for_shutdown()
        print("draining...", flush=True)
        await router.stop()
        counters = router.counters
        print(
            f"routed {counters.calls_forwarded} calls across "
            f"{args.gateways} gateways "
            f"({counters.migrations} migrations, "
            f"{counters.rebinds} rebinds)",
            flush=True,
        )
        return 0

    if args.gateways > 1:
        if not args.max_sessions:
            raise ReproError(
                "--gateways > 1 requires --max-sessions (the router "
                "migrates sessions by parking them to the shared store)"
            )
        if not args.session_store:
            raise ReproError(
                "--gateways > 1 requires --session-store so migrated "
                "sessions hydrate on their new owner"
            )
        return asyncio.run(main_routed())
    return asyncio.run(main_single())


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.loadgen import run_load

    call_args = {}
    if args.count is not None:
        call_args["count"] = args.count
    if args.target_ring is not None:
        call_args["target_ring"] = args.target_ring
    if args.n is not None:
        call_args["n"] = args.n
    if args.value is not None:
        call_args["value"] = args.value
    if args.family is not None:
        call_args["family"] = args.family
    if args.seed is not None:
        call_args["seed"] = args.seed
    if args.attack_ring is not None:
        call_args["ring"] = args.attack_ring

    report = asyncio.run(
        run_load(
            args.host,
            args.port,
            sessions=args.sessions,
            calls=args.calls,
            program=args.program,
            args=call_args,
            rings=tuple(args.ring) or (4,),
            concurrency=args.concurrency,
            expect_fault=args.expect_fault,
            expect_profile=args.expect_profile,
            expect_hardening=(
                None
                if args.expect_hardening is None
                else tuple(args.expect_hardening)
            ),
        )
    )
    payload = report.as_dict()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.json}")
    else:
        print(text)
    if args.expect_fault:
        print(
            f"{payload['expected_faults']}/{payload['sent']} faulted "
            f"{args.expect_fault} as expected at "
            f"{payload['throughput_calls_per_second']} calls/s "
            f"(p50 {payload['latency_p50_ms']} ms, "
            f"p99 {payload['latency_p99_ms']} ms)",
            file=sys.stderr,
        )
    else:
        print(
            f"{payload['ok']}/{payload['sent']} OK at "
            f"{payload['throughput_calls_per_second']} calls/s "
            f"(p50 {payload['latency_p50_ms']} ms, "
            f"p99 {payload['latency_p99_ms']} ms)",
            file=sys.stderr,
        )
    problems = payload["problems"]
    if problems:
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
    if args.check and problems:
        return 1
    return 0


def _cmd_adversary_run(args: argparse.Namespace) -> int:
    from .adversary.harness import TIER_NAMES, run_corpus

    report = run_corpus(
        seed=args.seed,
        per_family=args.per_family,
        families=tuple(args.family) if args.family else None,
        tiers=tuple(args.tier) if args.tier else TIER_NAMES,
        hardware_rings=not args.baseline645,
        ring=args.attack_ring,
    )
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.json}")
    else:
        profile = "baseline645" if args.baseline645 else "ringed"
        print(
            f"adversary sweep: {report['total']} attack program(s) x "
            f"{len(report['tiers'])} tier(s) [{profile}]"
        )
        for entry in report["programs"]:
            verdict = "ok" if entry["ok"] else "FAIL"
            print(
                f"  {verdict:<4} {entry['name']:<16} "
                f"{entry['family']:<18} expects "
                f"{entry['expected']['code']}"
            )
            for problem in entry["problems"]:
                print(f"       problem: {problem}")
        print(
            f"{report['total'] - report['failed']}/{report['total']} "
            f"held the oracle bit-identically across "
            f"{', '.join(report['tiers'])}"
        )
    return 0 if report["ok"] else 1


def _cmd_adversary_dump(args: argparse.Namespace) -> int:
    from .adversary.corpus import generate_corpus

    corpus = generate_corpus(
        seed=args.seed,
        per_family=args.per_family,
        families=tuple(args.family) if args.family else None,
        ring=args.attack_ring,
    )
    if args.json:
        payload = {
            "seed": args.seed,
            "count": len(corpus),
            "programs": [program.summary() for program in corpus],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{len(corpus)} attack program(s) (seed {args.seed})")
    header = (
        f"{'name':<16} {'family':<18} {'ring':>4}  "
        f"{'expected fault':<24} {'at ring':>7}  {'at segment':<18} "
        f"{'needs flag':<18} {'victim rule violated'}"
    )
    print(header)
    for program in corpus:
        oracle_ring = "any" if program.expect_ring is None else program.expect_ring
        oracle_seg = program.expect_segment or "any"
        print(
            f"{program.name:<16} {program.family:<18} "
            f"{program.ring:>4}  {program.expect_code.name:<24} "
            f"{oracle_ring:>7}  {oracle_seg:<18} "
            f"{program.hardening or '-':<18} {program.description}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Schroeder & Saltzer protection rings, reproduced",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="print all figure reproductions")
    figures.add_argument("--out", help="write to a file instead of stdout")
    figures.set_defaults(func=_cmd_figures)
    sub.add_parser(
        "experiments", help="run the crossing-cost experiment"
    ).set_defaults(func=_cmd_experiments)
    sub.add_parser(
        "verify", help="run the built-in self-verification checks"
    ).set_defaults(func=_cmd_verify)

    asm = sub.add_parser("asm", help="assemble a source file")
    asm.add_argument("file")
    asm.add_argument("--name", help="segment name (default: .seg directive)")
    asm.add_argument(
        "--disasm", action="store_true", help="also print the disassembly"
    )
    asm.set_defaults(func=_cmd_asm)

    run = sub.add_parser("run", help="assemble and execute a program")
    run.add_argument("file")
    run.add_argument("--ring", type=int, default=4, help="ring of execution")
    run.add_argument("--entry", default="main", help="entry symbol")
    run.add_argument("--name", help="segment name override")
    run.add_argument("--max-steps", type=int, default=1_000_000)
    run.add_argument(
        "--trace", action="store_true", help="print the instruction trace"
    )
    run.add_argument(
        "--metrics-json",
        metavar="FILE",
        help="dump the full metrics snapshot (cycles, faults, PTLB/icache/"
        "block-tier hit rates, ...) as JSON to FILE ('-' for stdout) "
        "instead of the plain-text counters",
    )
    run.set_defaults(func=_cmd_run)

    serve = sub.add_parser(
        "serve", help="start the ring gateway (gate calls as a service)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7117, help="TCP port (0: kernel-chosen)"
    )
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument(
        "--backend",
        choices=("process", "thread"),
        default="process",
        help="worker pool backend (process pools fall back to threads "
        "where unavailable)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="default per-ring sustained calls/s (default: unlimited)",
    )
    serve.add_argument("--burst", type=int, default=64)
    serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="per-ring bound on queued+executing calls",
    )
    serve.add_argument(
        "--ring-limit",
        type=_parse_ring_limit,
        action="append",
        metavar="RING=RATE[:BURST[:PENDING]]",
        help="override the admission policy for one ring (repeatable)",
    )
    serve.add_argument("--call-timeout", type=float, default=10.0)
    serve.add_argument("--drain-timeout", type=float, default=10.0)
    serve.add_argument(
        "--durability-dir",
        metavar="DIR",
        help="persist per-worker snapshots and write-ahead gate-call "
        "journals under DIR; a replacement worker restores a crashed "
        "worker's machine from them (default: off)",
    )
    serve.add_argument(
        "--checkpoint-interval",
        type=int,
        default=64,
        help="snapshot each worker machine every N executed calls",
    )
    serve.add_argument(
        "--fsync-every",
        type=int,
        default=8,
        help="fsync the journal every N appends (a crash can lose at "
        "most N-1 journaled calls; retries absorb that)",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=0,
        metavar="N",
        help="spawn N in-process warm standbys and ship every slot's "
        "journal to them; on a pool crash the lowest-lag follower is "
        "promoted instead of cold-restoring (requires --durability-dir)",
    )
    serve.add_argument(
        "--ship-every",
        type=int,
        default=8,
        metavar="K",
        help="journal records per shipped replication frame",
    )
    serve.add_argument(
        "--ack-window",
        type=int,
        default=4,
        metavar="W",
        help="shipped frames in flight before the shipper waits for "
        "a standby ack",
    )
    serve.add_argument(
        "--replica-endpoint",
        action="append",
        metavar="HOST:PORT",
        help="also ship to an external `repro standby` (repeatable; "
        "the standby must see the same --durability-dir filesystem)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        metavar="N",
        help="serve each user on a private machine, paging idle ones "
        "to copy-on-write parked snapshots and keeping at most N live "
        "(default: classic shared-worker mode)",
    )
    serve.add_argument(
        "--session-store",
        metavar="DIR",
        help="persist parked sessions under DIR (default: in-memory; "
        "required when --gateways > 1)",
    )
    serve.add_argument(
        "--prefetch-interval",
        type=float,
        default=0.05,
        help="idle-tick period for warm-pool prefetching of recently "
        "parked sessions (0: off)",
    )
    serve.add_argument(
        "--gateways",
        type=int,
        default=1,
        metavar="N",
        help="front N session gateways with a consistent-hash router "
        "(requires --max-sessions and --session-store)",
    )
    serve.add_argument(
        "--machine-profile",
        choices=("ringed", "baseline645"),
        default="ringed",
        help="machine hardware profile of every worker, session tenant "
        "and replica: 'ringed' (hardware ring checks) or 'baseline645' "
        "(GE 645 software rings, identical fault verdicts, slower "
        "crossings) for live A/B comparison",
    )
    serve.add_argument(
        "--hardening",
        action="append",
        default=[],
        choices=("auth_return_stack", "ring_domains", "nx_brackets"),
        metavar="FLAG",
        help="enable a hardening extension on every machine the gateway "
        "runs (repeatable): auth_return_stack, ring_domains, nx_brackets",
    )
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen", help="drive gate-call load against a running gateway"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7117)
    loadgen.add_argument("--sessions", type=int, default=16)
    loadgen.add_argument(
        "--calls", type=int, default=50, help="calls per session"
    )
    loadgen.add_argument(
        "--concurrency",
        type=int,
        default=None,
        metavar="N",
        help="cap in-flight sessions at N (default: all at once)",
    )
    loadgen.add_argument(
        "--program", default="call_loop", help="catalog program to call"
    )
    loadgen.add_argument(
        "--ring",
        type=int,
        action="append",
        default=[],
        help="session ring; repeat for a mixed-ring burst (default: 4)",
    )
    loadgen.add_argument("--count", type=int, help="call_loop: pairs per call")
    loadgen.add_argument(
        "--target-ring", type=int, help="call_loop: gate's ring"
    )
    loadgen.add_argument("--n", type=int, help="compute: loop iterations")
    loadgen.add_argument("--value", type=int, help="echo: value to return")
    loadgen.add_argument(
        "--family", help="attack: adversary corpus family to build"
    )
    loadgen.add_argument("--seed", type=int, help="attack: corpus seed")
    loadgen.add_argument(
        "--attack-ring", type=int, help="attack: attacker's ring"
    )
    loadgen.add_argument(
        "--expect-fault",
        metavar="CODE",
        help="adversarial mode: every call must FAIL with this fault "
        "code (e.g. ACV_NOT_GATE); a call that succeeds, or faults "
        "differently, is reported as a problem",
    )
    loadgen.add_argument(
        "--expect-profile",
        choices=("ringed", "baseline645"),
        help="assert the gateway's advertised machine profile",
    )
    loadgen.add_argument(
        "--expect-hardening",
        action="append",
        default=None,
        choices=("auth_return_stack", "ring_domains", "nx_brackets"),
        metavar="FLAG",
        help="assert the gateway's advertised hardening flags "
        "(repeatable; the set must match exactly)",
    )
    loadgen.add_argument("--json", metavar="FILE", help="write the report")
    loadgen.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless every request completed and the gateway's "
        "figures are self-consistent",
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    checkpoint = sub.add_parser(
        "checkpoint",
        help="execute a program for a bounded number of instructions "
        "and write the machine to a verified snapshot file",
    )
    checkpoint.add_argument("file", help="assembly source file")
    checkpoint.add_argument("--out", required=True, help="snapshot file")
    checkpoint.add_argument(
        "--steps",
        type=int,
        default=1_000_000,
        help="instructions to execute before snapshotting (stops early "
        "on HALT)",
    )
    checkpoint.add_argument("--ring", type=int, default=4)
    checkpoint.add_argument("--entry", default="main")
    checkpoint.add_argument("--name", help="segment name override")
    checkpoint.add_argument(
        "--compress",
        action="store_true",
        help="zlib-compress the snapshot body (the checksum still "
        "covers the uncompressed bytes; restore auto-detects)",
    )
    checkpoint.set_defaults(func=_cmd_checkpoint)

    restore = sub.add_parser(
        "restore",
        help="restore a machine from a snapshot and report its counters",
    )
    restore.add_argument("snapshot", help="snapshot file")
    restore.add_argument(
        "--run",
        action="store_true",
        help="continue executing the restored machine until HALT",
    )
    restore.add_argument("--max-steps", type=int, default=1_000_000)
    restore.set_defaults(func=_cmd_restore)

    replay = sub.add_parser(
        "replay",
        help="replay a gate-call journal through a fresh machine",
    )
    replay.add_argument(
        "journal", help="journal file, or a worker slot directory"
    )
    replay.add_argument(
        "--verify",
        action="store_true",
        help="check every replayed outcome against the journaled one "
        "(exit 1 on any divergence or journal corruption)",
    )
    replay.add_argument(
        "--strict",
        action="store_true",
        help="refuse a torn journal tail instead of ignoring it",
    )
    replay.set_defaults(func=_cmd_replay)

    standby = sub.add_parser(
        "standby",
        help="run a standalone warm standby for a replicated gateway",
    )
    standby.add_argument(
        "--dir",
        required=True,
        metavar="DIR",
        help="the gateway's --durability-dir (shared filesystem): "
        "promotion replays journal tails from it and writes promotion "
        "snapshots into it",
    )
    standby.add_argument("--host", default="127.0.0.1")
    standby.add_argument(
        "--port", type=int, default=7118, help="TCP port (0: kernel-chosen)"
    )
    standby.set_defaults(func=_cmd_standby)

    journal = sub.add_parser(
        "journal", help="gate-call journal inspection utilities"
    )
    journal_sub = journal.add_subparsers(dest="journal_command", required=True)
    dump = journal_sub.add_parser(
        "dump", help="list a journal's records (seq, CRC, call id, outcome)"
    )
    dump.add_argument(
        "journal", help="journal file, or a worker slot directory"
    )
    dump.add_argument(
        "--json",
        action="store_true",
        help="emit the full records as one JSON document",
    )
    dump.add_argument(
        "--limit", type=int, default=None, help="stop after N records"
    )
    dump.set_defaults(func=_cmd_journal_dump)

    adversary = sub.add_parser(
        "adversary",
        help="ring-violation attack corpus and fault-oracle harness",
    )
    adversary_sub = adversary.add_subparsers(
        dest="adversary_command", required=True
    )

    def _corpus_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--seed",
            type=int,
            default=1971,
            help="corpus seed (every program is derived deterministically)",
        )
        p.add_argument(
            "--per-family",
            type=int,
            default=1,
            help="attack programs generated per family",
        )
        p.add_argument(
            "--family",
            action="append",
            default=[],
            metavar="NAME",
            help="restrict to one attack family (repeatable; "
            "default: all families)",
        )
        p.add_argument(
            "--attack-ring",
            type=int,
            default=None,
            metavar="RING",
            help="pin the attacker's ring of execution (default: drawn "
            "per program from the seed)",
        )

    adv_run = adversary_sub.add_parser(
        "run",
        help="sweep the attack corpus across the execution-tier matrix, "
        "asserting every attack faults bit-identically with the "
        "expected code",
    )
    _corpus_arguments(adv_run)
    adv_run.add_argument(
        "--tier",
        action="append",
        default=[],
        metavar="NAME",
        help="restrict to one execution tier (repeatable; default: "
        "interp, fast_path, block, jit, fast_gate, restore)",
    )
    adv_run.add_argument(
        "--baseline645",
        action="store_true",
        help="run with hardware rings off (the GE 645 software-ring "
        "profile); the fault verdicts must not change",
    )
    adv_run.add_argument(
        "--json",
        metavar="FILE",
        help="write the full sweep report as JSON ('-' for stdout)",
    )
    adv_run.set_defaults(func=_cmd_adversary_run)

    adv_dump = adversary_sub.add_parser(
        "dump",
        help="list the generated attack corpus (name, family, ring, "
        "expected fault) without executing it",
    )
    _corpus_arguments(adv_dump)
    adv_dump.add_argument(
        "--json",
        action="store_true",
        help="emit the full program summaries (segments, oracle, "
        "entry) as one JSON document",
    )
    adv_dump.set_defaults(func=_cmd_adversary_dump)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
