"""Start and stop the gateway under test.

The timed runs serve from ``python -m repro serve`` (process worker
backend), exactly as an operator would start it.  The traced run serves
from ``perfbench/traced_gateway.py``: the same gateway on the thread
backend, so the span wrappers see every layer of a call in one process.
Either way the gateway is a child process of its own and the load
generator stays in the benchmark's process.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from typing import Any, Dict, List, Optional

from workloads import cli_flags

HERE = os.path.dirname(os.path.abspath(__file__))

#: bound on one gateway start, command or stop
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class GatewayProcess:
    """A gateway child process and the port it serves on."""

    def __init__(self, proc: asyncio.subprocess.Process, port: int):
        self.proc = proc
        self.port = port

    @classmethod
    async def start(cls, root: str, config: Dict[str, Any]) -> "GatewayProcess":
        """``repro serve`` with the workload's configuration."""
        return await cls._spawn(
            root, "-m", "repro", "serve", "--port", "0", *cli_flags(config)
        )

    @classmethod
    async def start_traced(
        cls, root: str, config: Dict[str, Any], spans_path: str
    ) -> "GatewayProcess":
        """The thread-backend gateway that records spans on command."""
        return await cls._spawn(
            root, os.path.join(HERE, "traced_gateway.py"),
            json.dumps(config), spans_path,
            stdin=asyncio.subprocess.PIPE,
        )

    @classmethod
    async def _spawn(cls, root: str, *argv: str, stdin=None) -> "GatewayProcess":
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = await asyncio.create_subprocess_exec(
            sys.executable, *argv, cwd=root, env=env,
            stdin=stdin, stdout=asyncio.subprocess.PIPE,
        )
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), START_TIMEOUT)
            text = line.decode()
            if "listening on " not in text:
                raise RuntimeError(f"gateway did not start: {text!r}")
            port = int(text.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        except BaseException:
            await _kill(proc)
            raise
        return cls(proc, port)

    async def trace(self) -> None:
        """Switch the traced gateway's span wrappers on."""
        self.proc.stdin.write(b"trace\n")
        await self.proc.stdin.drain()
        reply = await asyncio.wait_for(self.proc.stdout.readline(), START_TIMEOUT)
        if reply.strip() != b"tracing":
            raise RuntimeError(f"traced gateway did not start tracing: {reply!r}")

    def cpu_seconds(self) -> float:
        """CPU time (user + system) the gateway and its worker processes
        have used so far."""
        tick = os.sysconf("SC_CLK_TCK")
        total = 0
        for pid in _process_tree(self.proc.pid):
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])  # utime, stime
        return total / tick

    def peak_rss_mb(self) -> float:
        """High-water RSS of the gateway plus its worker processes."""
        total_kb = 0
        for pid in _process_tree(self.proc.pid):
            total_kb += _vm_hwm_kb(pid)
        return total_kb / 1024.0

    async def stop(self) -> None:
        """Drain-stop the gateway and wait for it to exit."""
        if self.proc.returncode is not None:
            return
        if self.proc.stdin is not None:
            self.proc.stdin.write(b"stop\n")
        else:
            self.proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(self.proc.communicate(), STOP_TIMEOUT)
        except asyncio.TimeoutError:
            await _kill(self.proc)


async def _kill(proc: asyncio.subprocess.Process) -> None:
    if proc.returncode is None:
        proc.kill()
    await proc.communicate()


def _process_tree(pid: int) -> List[int]:
    """``pid`` and its descendants, from ``/proc/<pid>/task/*/children``."""
    found = [pid]
    for current in found:
        task_dir = f"/proc/{current}/task"
        try:
            tasks = os.listdir(task_dir)
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"{task_dir}/{task}/children") as handle:
                    found += [int(child) for child in handle.read().split()]
            except OSError:
                continue
    return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def drain_replication(client: Any, timeout: float = 15.0) -> Optional[Dict[str, Any]]:
    """Poll ``stats`` until every follower has applied everything its
    shipper has seen of the journal, twice in a row; returns the last
    stats response (``None`` if replication is off)."""
    deadline = time.monotonic() + timeout
    previous = None
    while True:
        stats = client.stats()
        followers = stats.get("replication", {}).get("followers")
        if not followers:
            return None
        position = [(f["applied_seq"], f["journal_seq"]) for f in followers]
        if all(a == j for a, j in position) and position == previous:
            return stats
        if time.monotonic() > deadline:
            return stats
        previous = position
        time.sleep(0.1)
