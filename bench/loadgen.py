"""Single-process HTTP load generator: at most two threads, two
keep-alive connections.

Open loop: every operation has a due time on a fixed schedule and its
latency is timed *from the due time*, so a stall is charged to every
request queued behind it; how late the generator itself ran is reported
alongside.  Closed loop: a connection sends its next read as soon as the
previous one completes (filler operations between scheduled ones).
"""

from __future__ import annotations

import dataclasses
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = ["Op", "Done", "HttpConnection", "run_ops", "drive"]


@dataclass
class Op:
    """One request: ``due`` is seconds after the phase start."""

    kind: str
    due: float
    method: str
    path: str
    body: bytes = b""
    tag: int = -1


@dataclass
class Done:
    """One completed operation; times are absolute ``clock()`` readings."""

    op: Op
    due_at: float
    sent: float
    done: float
    status: int
    payload: bytes = field(repr=False, default=b"")

    @property
    def latency(self) -> float:
        """Open-loop latency: completion minus the *due* time."""
        return self.done - self.due_at

    @property
    def late(self) -> float:
        """How long after its due time the generator sent it."""
        return self.sent - self.due_at


class HttpConnection:
    """Minimal HTTP/1.1 keep-alive client over one socket.

    ``http.client`` costs more per request than the service's whole
    dispatch; this sends prebuilt bytes and parses only the status line
    and ``Content-Length``.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        if body:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        self._sock.sendall(head.encode("ascii") + b"\r\n" + body)
        buffer = self._buffer
        while b"\r\n\r\n" not in buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        header, _, rest = buffer.partition(b"\r\n\r\n")
        status = int(header[9:12])
        length = 0
        for line in header.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            rest += chunk
        self._buffer = rest[length:]
        return status, rest[:length]

    def close(self) -> None:
        self._sock.close()


def run_ops(
    scheduled: list[Op],
    execute: Callable[[Op], tuple[int, bytes]],
    *,
    filler: Iterator[Op] | None = None,
    until: float | None = None,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    origin: float | None = None,
) -> list[Done]:
    """Run one connection's operations; the scheduling core, socket-free.

    ``scheduled`` ops go out at ``origin + op.due`` (never earlier; later
    when the connection is still busy, which their latency then shows).
    With ``filler`` the gaps are filled with back-to-back ops until
    ``until`` — the closed loop; a filler op is due when it is sent, so
    its latency is the plain round trip.
    """
    origin = clock() if origin is None else origin
    results: list[Done] = []
    pending = sorted(scheduled, key=lambda op: op.due)
    index = 0
    while True:
        now = clock() - origin
        if index < len(pending) and (filler is None or pending[index].due <= now):
            op = pending[index]
            index += 1
            if op.due > now:
                sleep(op.due - now)
        elif filler is not None and until is not None and now < until:
            op = dataclasses.replace(next(filler), due=now)
        else:
            break
        sent = clock()
        try:
            status, payload = execute(op)
        except OSError as error:  # refused / reset: a failed operation
            status, payload = 0, repr(error).encode()
        results.append(
            Done(op, origin + op.due, sent, clock(), status, payload)
        )
    return results


def drive(
    host: str,
    port: int,
    scheduled: list[Op],
    *,
    n_connections: int = 2,
    fillers: list[Iterator[Op]] | None = None,
    until: float | None = None,
    recorders: list | None = None,
) -> list[Done]:
    """Deal ``scheduled`` round-robin over ``n_connections`` threads (one
    keep-alive connection each) and run them against ``host:port``.
    With ``recorders`` (one ``SpanRecorder`` per connection) every
    request is wrapped in an ``http.request`` span."""
    ordered = sorted(scheduled, key=lambda op: op.due)
    outputs: list[list[Done]] = [[] for _ in range(n_connections)]
    connections = [HttpConnection(host, port) for _ in range(n_connections)]
    origin = time.perf_counter() + 0.05  # every thread is waiting by then

    def worker(slot: int) -> None:
        connection = connections[slot]

        def execute(op: Op) -> tuple[int, bytes]:
            return connection.request(op.method, op.path, op.body)

        def execute_spanned(op: Op) -> tuple[int, bytes]:
            with recorders[slot].span("http.request"):
                return connection.request(op.method, op.path, op.body)

        time.sleep(max(0.0, origin - time.perf_counter()))
        outputs[slot] = run_ops(
            ordered[slot::n_connections],
            execute_spanned if recorders else execute,
            filler=fillers[slot] if fillers else None,
            until=until,
            origin=origin,
        )

    threads = [
        threading.Thread(target=worker, args=(slot,), name=f"bench-load-{slot}")
        for slot in range(n_connections)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for connection in connections:
            connection.close()
    return sorted((d for out in outputs for d in out), key=lambda d: d.done)
