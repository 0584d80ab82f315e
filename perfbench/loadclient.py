"""Closed-loop gate-call client: one connection per stream, one request
in flight per connection, every response kept for the checks.

Each connection is a blocking socket driven by its own thread, and
responses are parsed only after the timed window, so the client spends
as little CPU as possible beside the gateway it measures.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.serve.protocol import MAX_LINE_BYTES, decode_line, encode
from workloads import expected_payload


@dataclass
class CallRecord:
    """One gate call as the client saw it."""

    phase: str  # "warmup" | "measured" | "untraced" | "traced"
    conn: int
    user: str
    program: str
    args: Dict[str, Any]
    call_id: str
    reply: bytes
    rtt_s: float
    wire_bytes: int  # request line + response line
    done: float  # perf_counter when the response arrived
    _response: Optional[Dict[str, Any]] = field(default=None, repr=False)

    @property
    def response(self) -> Dict[str, Any]:
        if self._response is None:
            self._response = decode_line(self.reply.strip())
        return self._response

    @property
    def ok(self) -> bool:
        return bool(self.response.get("ok"))


class Connection:
    """One JSON-lines connection to the gateway."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.user = ""
        self.calls = 0

    def send(self, line: bytes) -> bytes:
        """One request line out, one response line back."""
        self.sock.sendall(line)
        reply = self.reader.readline(2 * MAX_LINE_BYTES)
        if not reply:
            raise ConnectionError("gateway closed the connection")
        return reply

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return decode_line(self.send(encode(message)).strip())

    def close(self) -> None:
        try:
            self.request({"verb": "bye"})
        except (ConnectionError, OSError):
            pass
        self.reader.close()
        self.sock.close()


class Client:
    """The benchmark's connections to one gateway and what they saw."""

    def __init__(self, port: int, connections: int):
        self.port = port
        self.count = connections
        self.conns: List[Connection] = []
        self.records: List[CallRecord] = []
        self.hello_failures: List[Dict[str, Any]] = []

    def open(self) -> None:
        self.conns = [Connection(self.port) for _ in range(self.count)]

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []

    def _step(self, index: int, step, phase: str, out: List[CallRecord]) -> None:
        conn = self.conns[index]
        if step[0] == "hello":
            _, user, ring = step
            response = conn.request({"verb": "hello", "user": user, "ring": ring})
            if not response.get("ok"):
                self.hello_failures.append(response)
            conn.user = user
            return
        _, program, args = step
        conn.calls += 1
        call_id = f"c{index}-{conn.calls}"
        line = encode({"verb": "call", "id": call_id, "program": program, "args": args})
        started = time.perf_counter()
        reply = conn.send(line)
        done = time.perf_counter()
        out.append(
            CallRecord(
                phase, index, conn.user, program, args, call_id, reply,
                done - started, len(line) + len(reply), done,
            )
        )

    def _parallel(self, body) -> None:
        """Run ``body(index, out)`` once per connection, each in a thread;
        the records join ``self.records`` in connection order."""
        outs: List[List[CallRecord]] = [[] for _ in range(self.count)]
        errors: List[BaseException] = []

        def guarded(index: int) -> None:
            try:
                body(index, outs[index])
            except BaseException as exc:  # re-raised below, in the caller
                errors.append(exc)

        threads = [
            threading.Thread(target=guarded, args=(index,), name=f"perfbench-conn{index}")
            for index in range(self.count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for out in outs:
            self.records.extend(out)
        if errors:
            raise errors[0]

    def run_steps(self, steps: List[List[Any]], phase: str) -> None:
        """Run finite per-connection step lists, connections in parallel."""

        def body(index: int, out: List[CallRecord]) -> None:
            for step in steps[index]:
                self._step(index, step, phase, out)

        self._parallel(body)

    def run_for(
        self, streams: List[Iterator[Any]], seconds: float, phase: str
    ) -> float:
        """Closed loop over ``streams`` until ``seconds`` pass; a call in
        flight at the deadline completes.  Returns the elapsed time."""
        started = time.perf_counter()
        deadline = started + seconds

        def body(index: int, out: List[CallRecord]) -> None:
            for step in streams[index]:
                if step[0] == "call" and time.perf_counter() >= deadline:
                    return
                self._step(index, step, phase, out)

        self._parallel(body)
        return time.perf_counter() - started

    def stats(self) -> Dict[str, Any]:
        return self.conns[0].request({"verb": "stats"})


#: record phases that count as measured traffic
MEASURED = ("measured", "untraced", "traced")


@dataclass
class RunResult:
    """Everything one gateway instance served, for the checks."""

    records: List[CallRecord]
    stats: Dict[str, Any]
    hello_failures: List[Dict[str, Any]]

    def measured(self) -> List[CallRecord]:
        return [record for record in self.records if record.phase in MEASURED]

    def measured_ok(self) -> List[CallRecord]:
        return [record for record in self.measured() if record.ok]

    def calls_of(self, conn: int) -> List[CallRecord]:
        return [record for record in self.records if record.conn == conn]


def common_problems(run: RunResult) -> List[str]:
    """The checks every workload must pass.

    Every call answered OK with the closed-form registers and ring
    crossings; the gateway's merged architectural counters equal the
    client's per-call sums and its own per-worker sums (``consistent``);
    the gateway completed exactly the calls the client saw succeed.
    """
    problems: List[str] = []
    if run.hello_failures:
        problems.append(f"{len(run.hello_failures)} hello(s) refused: {run.hello_failures[0]}")
    failed = [record for record in run.records if not record.ok]
    if failed:
        first = failed[0].response
        problems.append(
            f"{len(failed)} call(s) failed or dropped; first: "
            f"{first.get('error')} {str(first.get('detail', ''))[:120]}"
        )
    wrong = 0
    client_sums: Dict[str, int] = {}
    for record in run.records:
        if not record.ok:
            continue
        payload = record.response["result"]
        want = expected_payload(record.program, record.args)
        got = {name: payload.get(name) for name in want}
        crossings = record.response["metrics"]["ring_crossings"]
        if got != want or not payload.get("halted") or crossings != want["ring_crossings"]:
            wrong += 1
        for name, value in record.response["metrics"].items():
            client_sums[name] = client_sums.get(name, 0) + value
    if wrong:
        problems.append(f"{wrong} call(s) returned results off the closed form")
    stats = run.stats
    if not stats.get("ok"):
        problems.append("no stats response")
        return problems
    if not stats.get("consistent"):
        problems.append("stats.consistent is false")
    if stats.get("architectural") != client_sums:
        problems.append("client-side metric sums differ from the merged architectural counters")
    completed = stats.get("gateway", {}).get("completed")
    ok_calls = sum(1 for record in run.records if record.ok)
    if completed != ok_calls:
        problems.append(f"gateway completed {completed} calls, client saw {ok_calls} succeed")
    return problems


def error_counts(records: List[CallRecord]) -> Dict[str, int]:
    """Failed calls by ``error`` code."""
    counts: Dict[str, int] = {}
    for record in records:
        if not record.ok:
            code = str(record.response.get("error"))
            counts[code] = counts.get(code, 0) + 1
    return counts


def percentile(values: List[float], fraction: float):
    """Nearest-rank ``fraction`` quantile of ``values``, lowered as far as
    needed to leave at least 10 samples beyond it.  Returns the value
    and the fraction actually used."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        raise ValueError(f"{n} calls cannot leave 10 samples beyond a percentile")
    rank = min(math.ceil(round(fraction * n, 9)), n - 10)
    return ordered[rank - 1], rank / n


def warm_until(client: Client, steps, phase: str, enough, passes: int = 20) -> None:
    """Repeat a warm-up pass until ``enough(records)`` holds."""
    for _ in range(passes):
        client.run_steps(steps, phase)
        if enough(client.records):
            return
