"""Message transports of the socket cluster engine.

One interface, :class:`Transport`, hides how frame bodies move between
nodes so the NOMAD worker loop (:mod:`repro.cluster.worker`) is written
once against ``send``/``recv`` and future substrates — multi-host TCP,
gossip overlays — are drop-in implementations.  Two substrates ship:

* :class:`TcpTransport` — length-prefixed frames over localhost TCP.
  Every node binds one listening socket; a background accept thread
  spawns one reader thread per inbound connection, each depositing
  complete frame bodies into a single receive queue.  Outbound links are
  one persistent connection per peer, opened lazily on first send, so
  frames to one peer are delivered in order (the drain protocol of
  :mod:`repro.cluster.worker` depends on this).
* :class:`LoopbackHub` / :class:`LoopbackTransport` — the same interface
  over in-process queues, for tests and thread-based runs.  Payloads are
  copied on send so nodes stay as isolated as they are over a socket.

Addressing is by integer node id: workers are ``0..n_workers-1`` and the
coordinator is :data:`COORDINATOR`.  A transport is single-consumer and
single-producer (one node's main loop); only the internal reader threads
touch the receive queue concurrently.
"""

from __future__ import annotations

import abc
import queue
import socket
import struct
import threading
import time

from ..errors import ClusterError

__all__ = [
    "COORDINATOR",
    "MAX_FRAME_BYTES",
    "Transport",
    "TcpTransport",
    "LoopbackHub",
    "LoopbackTransport",
]

#: Node id of the control plane in every transport's address space.
COORDINATOR = -1

#: Upper bound on one frame body; a larger length prefix means a corrupt
#: or foreign stream and closes the connection.
MAX_FRAME_BYTES = 1 << 26

_LENGTH = struct.Struct(">I")
_CONNECT_TIMEOUT = 5.0
_CONNECT_RETRY = 0.05
#: Bound on close() waiting for the accept thread to leave accept().
_ACCEPT_JOIN_TIMEOUT = 1.0


class Transport(abc.ABC):
    """How one cluster node exchanges frame bodies with its peers.

    Subclasses wire ``self._incoming`` (a :class:`queue.SimpleQueue` of
    frame bodies) to their delivery mechanism; :meth:`recv` drains it
    uniformly so timeout semantics can never differ between substrates.
    """

    def __init__(self, node_id: int, incoming: queue.SimpleQueue):
        self.node_id = int(node_id)
        self._incoming = incoming

    @abc.abstractmethod
    def send(self, dest: int, body: bytes) -> None:
        """Deliver ``body`` to node ``dest`` (in order, per destination)."""

    def recv(self, timeout: float | None = None) -> bytes | None:
        """Next received frame body, or ``None`` after ``timeout`` seconds.

        ``timeout=None`` blocks; ``timeout <= 0`` polls without blocking.
        """
        try:
            if timeout is not None and timeout <= 0:
                return self._incoming.get_nowait()
            return self._incoming.get(timeout=timeout)
        except queue.Empty:
            return None

    @abc.abstractmethod
    def close(self) -> None:
        """Release sockets/queues; the transport is unusable afterwards."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _recv_exact(conn: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes, or ``None`` if the peer closed first."""
    chunks = []
    remaining = n
    while remaining:
        chunk = conn.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class TcpTransport(Transport):
    """Length-prefixed frames over localhost TCP.

    Parameters
    ----------
    node_id:
        This node's id in the cluster address space.
    host:
        Interface to bind/advertise (localhost deployments only for now —
        the multi-host generalization is this parameter plus an address
        book of remote hosts).
    port:
        Listening port; 0 (default) lets the OS pick, with the bound
        port exposed as :attr:`port` for the bootstrap handshake.
    """

    def __init__(self, node_id: int, host: str = "127.0.0.1", port: int = 0):
        super().__init__(node_id, queue.SimpleQueue())
        self._host = host
        self._peers: dict[int, socket.socket] = {}
        self._addresses: dict[int, tuple[str, int]] = {}
        self._closed = False
        self._server = socket.create_server((host, port))
        self.port = self._server.getsockname()[1]
        self._inbound: list[socket.socket] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"cluster-accept-{node_id}",
            daemon=True,
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return  # server socket closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._inbound.append(conn)
            if self._closed:
                # close() may have swept _inbound between the accept and
                # the append above; shut the straggler here so neither
                # its fd nor a reader thread outlives the transport.
                try:
                    conn.close()
                except OSError:
                    pass
                return
            threading.Thread(
                target=self._read_loop,
                args=(conn,),
                name=f"cluster-read-{self.node_id}",
                daemon=True,
            ).start()

    def _read_loop(self, conn: socket.socket) -> None:
        try:
            while True:
                head = _recv_exact(conn, _LENGTH.size)
                if head is None:
                    return
                (length,) = _LENGTH.unpack(head)
                if length > MAX_FRAME_BYTES:
                    return  # corrupt/foreign stream: drop the connection
                body = _recv_exact(conn, length)
                if body is None:
                    return  # peer died mid-frame; drain protocol handles it
                self._incoming.put(body)
        except OSError:
            return
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def register_peer(self, node_id: int, host: str, port: int) -> None:
        """Record where ``node_id`` listens; connections open on first send."""
        self._addresses[int(node_id)] = (host, int(port))

    def _connect(self, dest: int) -> socket.socket:
        if dest not in self._addresses:
            raise ClusterError(
                f"node {self.node_id} has no address for peer {dest}; "
                "register_peer it during bootstrap"
            )
        deadline = time.monotonic() + _CONNECT_TIMEOUT
        while True:
            try:
                conn = socket.create_connection(self._addresses[dest])
                break
            except OSError as error:
                # The peer binds before advertising, so refusal — or any
                # other transient failure an oversubscribed host's accept
                # backlog produces (reset, timeout) — is retried until
                # the deadline rather than killing the worker outright.
                if time.monotonic() >= deadline:
                    raise ClusterError(
                        f"could not connect to peer {dest} at "
                        f"{self._addresses[dest]} within "
                        f"{_CONNECT_TIMEOUT:.0f}s: {error}"
                    ) from error
                time.sleep(_CONNECT_RETRY)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._peers[dest] = conn
        return conn

    def send(self, dest: int, body: bytes) -> None:
        if len(body) > MAX_FRAME_BYTES:
            # Receivers drop oversized frames as corruption; failing the
            # send names the real problem instead of surfacing it later
            # as a "worker never reported" collection timeout.
            raise ClusterError(
                f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES "
                f"({MAX_FRAME_BYTES}); shrink the payload (e.g. chunk "
                "result shards) or raise the limit on both ends"
            )
        conn = self._peers.get(dest)
        if conn is None:
            conn = self._connect(dest)
        try:
            conn.sendall(_LENGTH.pack(len(body)) + body)
        except OSError as error:
            raise ClusterError(
                f"send from node {self.node_id} to {dest} failed: {error}"
            ) from error

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # close() alone leaves the port in LISTEN for as long as the
        # accept thread sits in accept(); shutdown() wakes it first.
        try:
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # not every platform lets a listening socket shut down
        self._server.close()
        self._accept_thread.join(_ACCEPT_JOIN_TIMEOUT)
        # Closing inbound connections unblocks their reader threads.
        for conn in [*self._peers.values(), *self._inbound]:
            try:
                conn.close()
            except OSError:
                pass
        self._peers.clear()
        self._inbound.clear()


class LoopbackHub:
    """In-process switchboard wiring :class:`LoopbackTransport` nodes."""

    def __init__(self):
        self._queues: dict[int, queue.SimpleQueue] = {}

    def transport(self, node_id: int) -> "LoopbackTransport":
        """Create (or re-open) the transport endpoint of ``node_id``."""
        node_id = int(node_id)
        if node_id not in self._queues:
            self._queues[node_id] = queue.SimpleQueue()
        return LoopbackTransport(node_id, self)

    def _deliver(self, dest: int, body: bytes) -> None:
        mailbox = self._queues.get(dest)
        if mailbox is None:
            raise ClusterError(f"loopback hub has no node {dest}")
        mailbox.put(body)


class LoopbackTransport(Transport):
    """The :class:`Transport` interface over a :class:`LoopbackHub`.

    Frames are copied to ``bytes`` on send, so a sender mutating its
    buffers after ``send`` cannot reach into the receiver — the same
    isolation a socket provides.
    """

    def __init__(self, node_id: int, hub: LoopbackHub):
        super().__init__(node_id, hub._queues[node_id])
        self._hub = hub

    def send(self, dest: int, body: bytes) -> None:
        self._hub._deliver(int(dest), bytes(body))

    def close(self) -> None:
        pass
