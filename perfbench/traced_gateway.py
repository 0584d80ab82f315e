"""The traced run's gateway: a thread-backend ``RingGateway`` in a process
of its own, with the span wrappers switched on by command.

    python3 perfbench/traced_gateway.py CONFIG_JSON SPANS_FILE

``CONFIG_JSON`` holds :class:`repro.serve.gateway.GatewayConfig` fields.
Prints ``listening on 127.0.0.1:PORT`` once serving, then reads commands
on standard input: ``trace`` installs the wrappers and answers
``tracing``; ``stop`` (or end of input) removes them, drains the
gateway and pickles the recorded spans to ``SPANS_FILE``.  The thread
backend keeps every layer of a call in this one process; the load
generator stays in the benchmark's process, so it does not compete with
the gateway for this interpreter's lock.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


async def serve(config: dict, spans_path: str) -> None:
    from layers import install
    from repro.serve.gateway import GatewayConfig, RingGateway
    from spans import Tracer

    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    gateway = RingGateway(GatewayConfig(port=0, backend="thread", **config))
    await gateway.start()
    tracer = Tracer()
    print(f"listening on 127.0.0.1:{gateway.port}", flush=True)
    try:
        while (await commands.readline()).strip() == b"trace":
            install(tracer, loop)
            print("tracing", flush=True)
    finally:
        tracer.remove()
        await gateway.stop()
        with open(spans_path, "wb") as handle:
            pickle.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    asyncio.run(serve(json.loads(sys.argv[1]), sys.argv[2]))
