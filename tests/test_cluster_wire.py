"""Tests for the cluster wire format and the transport substrates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import wire
from repro.cluster.transport import (
    COORDINATOR,
    LoopbackHub,
    TcpTransport,
)
from repro.errors import ClusterError, WireError
from repro.simulator.network import token_bytes


def make_tokens(n: int, k: int, seed: int = 0) -> list[wire.Token]:
    rng = np.random.default_rng(seed)
    return [
        wire.Token(item=i, queue_hint=i * 3, h=rng.standard_normal(k))
        for i in range(n)
    ]


class TestTokenEnvelope:
    def test_single_token_round_trip(self):
        (token,) = make_tokens(1, k=4)
        decoded = wire.decode(wire.encode_tokens([token], 4))
        assert isinstance(decoded, wire.TokenEnvelope)
        assert decoded.k == 4
        (out,) = decoded.tokens
        assert out.item == token.item
        assert out.queue_hint == token.queue_hint
        np.testing.assert_array_equal(out.h, token.h)

    def test_full_batch_round_trip(self):
        tokens = make_tokens(100, k=8)
        decoded = wire.decode(wire.encode_tokens(tokens, 8))
        assert len(decoded.tokens) == 100
        for sent, received in zip(tokens, decoded.tokens):
            assert received.item == sent.item
            assert received.queue_hint == sent.queue_hint
            np.testing.assert_array_equal(received.h, sent.h)

    def test_empty_envelope_round_trip(self):
        decoded = wire.decode(wire.encode_tokens([], 5))
        assert decoded.tokens == []

    def test_decoded_payload_is_writable(self):
        """Receivers mutate h_j in place; a read-only buffer view would
        crash the SGD kernel."""
        (token,) = make_tokens(1, k=4)
        decoded = wire.decode(wire.encode_tokens([token], 4))
        decoded.tokens[0].h[0] = 42.0  # must not raise

    def test_truncated_frame_rejected(self):
        body = wire.encode_tokens(make_tokens(3, k=4), 4)
        for cut in (len(body) - 1, len(body) - 20, 5, 3):
            with pytest.raises(WireError, match="truncated"):
                wire.decode(body[:cut])

    def test_trailing_garbage_rejected(self):
        body = wire.encode_tokens(make_tokens(2, k=4), 4)
        with pytest.raises(WireError, match="trailing"):
            wire.decode(body + b"\x00")

    def test_bad_magic_rejected(self):
        body = bytearray(wire.encode_tokens(make_tokens(1, k=4), 4))
        body[0:2] = b"XX"
        with pytest.raises(WireError, match="magic"):
            wire.decode(bytes(body))

    def test_version_skew_rejected(self):
        body = bytearray(wire.encode_tokens(make_tokens(1, k=4), 4))
        body[2] = wire.WIRE_VERSION + 1
        with pytest.raises(WireError, match="version"):
            wire.decode(bytes(body))

    def test_unknown_kind_rejected(self):
        body = bytearray(wire.encode_stop())
        body[3] = 250
        with pytest.raises(WireError, match="kind"):
            wire.decode(bytes(body))

    def test_wrong_payload_shape_rejected(self):
        token = wire.Token(item=0, queue_hint=0, h=np.zeros(3))
        with pytest.raises(WireError, match="shape"):
            wire.encode_tokens([token], 4)


class TestCostModelConsistency:
    """The real envelope and the simulator's §3.2 cost model must agree."""

    @pytest.mark.parametrize("k", [1, 8, 32, 100])
    @pytest.mark.parametrize("batch", [1, 7, 100])
    def test_envelope_size_matches_token_bytes(self, k, batch):
        body = wire.encode_tokens(make_tokens(batch, k), k)
        assert len(body) == (
            wire.ENVELOPE_OVERHEAD_BYTES + batch * token_bytes(k)
        )

    def test_per_token_overhead_matches_simulator_constant(self):
        from repro.simulator import network

        assert wire.TOKEN_OVERHEAD_BYTES == network._TOKEN_OVERHEAD_BYTES


class TestControlFrames:
    def test_ready_round_trip(self):
        decoded = wire.decode(wire.encode_ready(3, 51234))
        assert decoded == wire.Ready(worker_id=3, port=51234)

    def test_peers_round_trip(self):
        ports = {0: 50001, 1: 50002, 5: 50010}
        decoded = wire.decode(wire.encode_peers(ports))
        assert decoded == wire.Peers(ports=ports)

    def test_stop_and_fin_round_trip(self):
        assert isinstance(wire.decode(wire.encode_stop()), wire.Stop)
        assert wire.decode(wire.encode_fin(2)) == wire.Fin(worker_id=2)

    def test_fin_telemetry_round_trip(self):
        blob = b"NT\x01" + b'{"worker_id": 3}'
        decoded = wire.decode(wire.encode_fin(3, telemetry=blob))
        assert decoded == wire.Fin(worker_id=3, telemetry=blob)

    def test_fin_telemetry_truncation_rejected(self):
        frame = wire.encode_fin(1, telemetry=b"x" * 64)
        for cut in (len(frame) - 1, len(frame) - 40, len(frame) - 66):
            with pytest.raises(WireError, match="truncated"):
                wire.decode(frame[:cut])

    def test_legacy_fin_without_payload_decodes_none(self):
        """Version skew: a pre-telemetry Fin frame (no trailing block)
        must keep decoding, with telemetry absent rather than an error."""
        legacy = wire.encode_fin(4)
        decoded = wire.decode(legacy)
        assert decoded.worker_id == 4
        assert decoded.telemetry is None

    def test_result_round_trip(self):
        rng = np.random.default_rng(5)
        rows = np.array([4, 9, 17], dtype=np.int64)
        w = rng.standard_normal((3, 6))
        held = make_tokens(4, k=6, seed=1)
        decoded = wire.decode(
            wire.encode_result(2, 12345, rows, w, held, 6)
        )
        assert isinstance(decoded, wire.ResultShard)
        assert decoded.worker_id == 2
        assert decoded.updates == 12345
        assert decoded.k == 6
        np.testing.assert_array_equal(decoded.rows, rows)
        np.testing.assert_array_equal(decoded.w, w)
        assert len(decoded.held) == 4
        np.testing.assert_array_equal(decoded.held[2].h, held[2].h)

    def test_result_shape_mismatch_rejected(self):
        with pytest.raises(WireError, match="shape"):
            wire.encode_result(
                0, 1, np.array([1, 2]), np.zeros((3, 4)), [], 4
            )


#: One valid frame of every kind (Fin with and without its telemetry
#: block, an empty and a full token envelope).
_FRAMES = [
    wire.encode_tokens(make_tokens(3, k=2), 2),
    wire.encode_tokens([], 4),
    wire.encode_ready(3, 8080),
    wire.encode_peers({0: 9000, 2: 9002}),
    wire.encode_stop(),
    wire.encode_fin(1),
    wire.encode_fin(2, b"telemetry"),
    wire.encode_result(
        1, 10, np.array([4, 7]), np.ones((2, 2)), make_tokens(2, k=2), 2
    ),
]


@st.composite
def _mutated_frames(draw) -> bytes:
    """A valid frame with some bytes flipped, then cut off, then with
    bytes appended."""
    frame = bytearray(draw(st.sampled_from(_FRAMES)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(frame) - 1))
        frame[at] ^= draw(st.integers(1, 255))
    del frame[draw(st.integers(0, len(frame))):]
    return bytes(frame) + draw(st.binary(max_size=16))


class TestHostileFrames:
    @settings(max_examples=500, deadline=None)
    @given(body=st.binary(max_size=96) | _mutated_frames())
    def test_decode_returns_or_raises_wire_error(self, body):
        try:
            wire.decode(body)
        except WireError:
            pass


class TestLoopbackTransport:
    def test_send_recv(self):
        hub = LoopbackHub()
        a = hub.transport(0)
        b = hub.transport(1)
        a.send(1, b"hello")
        assert b.recv(timeout=1.0) == b"hello"

    def test_recv_timeout_returns_none(self):
        hub = LoopbackHub()
        a = hub.transport(0)
        assert a.recv(timeout=0.01) is None
        assert a.recv(timeout=0.0) is None

    def test_payload_isolated_from_sender(self):
        hub = LoopbackHub()
        a = hub.transport(0)
        b = hub.transport(1)
        payload = bytearray(b"abc")
        a.send(1, payload)
        payload[0] = 0
        assert b.recv(timeout=1.0) == b"abc"

    def test_unknown_destination_rejected(self):
        hub = LoopbackHub()
        a = hub.transport(0)
        with pytest.raises(ClusterError, match="no node"):
            a.send(9, b"x")


class TestTcpTransport:
    def test_send_recv_between_nodes(self):
        with TcpTransport(0) as a, TcpTransport(1) as b:
            a.register_peer(1, "127.0.0.1", b.port)
            b.register_peer(0, "127.0.0.1", a.port)
            a.send(1, b"ping")
            assert b.recv(timeout=2.0) == b"ping"
            b.send(0, b"pong")
            assert a.recv(timeout=2.0) == b"pong"

    def test_frames_preserve_boundaries_and_order(self):
        """Several frames on one connection come out intact, in order."""
        with TcpTransport(0) as a, TcpTransport(COORDINATOR) as c:
            a.register_peer(COORDINATOR, "127.0.0.1", c.port)
            frames = [bytes([i]) * (i + 1) for i in range(20)]
            for frame in frames:
                a.send(COORDINATOR, frame)
            received = [c.recv(timeout=2.0) for _ in frames]
            assert received == frames

    def test_wire_messages_over_tcp(self):
        tokens = make_tokens(10, k=4)
        with TcpTransport(0) as a, TcpTransport(1) as b:
            a.register_peer(1, "127.0.0.1", b.port)
            a.send(1, wire.encode_tokens(tokens, 4))
            decoded = wire.decode(b.recv(timeout=2.0))
            assert [t.item for t in decoded.tokens] == list(range(10))

    def test_unregistered_peer_rejected(self):
        with TcpTransport(0) as a:
            with pytest.raises(ClusterError, match="no address"):
                a.send(7, b"x")

    def test_oversized_frame_rejected_at_send(self):
        """Receivers drop oversized frames as corruption, so the sender
        must fail loudly instead of letting the loss surface later as a
        bogus 'worker died' timeout."""
        from repro.cluster.transport import MAX_FRAME_BYTES

        with TcpTransport(0) as a, TcpTransport(1) as b:
            a.register_peer(1, "127.0.0.1", b.port)
            with pytest.raises(ClusterError, match="MAX_FRAME_BYTES"):
                a.send(1, bytes(MAX_FRAME_BYTES + 1))

    def test_recv_timeout_returns_none(self):
        with TcpTransport(0) as a:
            assert a.recv(timeout=0.01) is None
