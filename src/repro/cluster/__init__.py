"""Socket-based distributed NOMAD: message passing, no shared memory.

The multi-machine half of the paper made real: worker processes exchange
``(j, h_j)`` ownership tokens as serialized §3.5 envelopes over a
pluggable :class:`~repro.cluster.transport.Transport` (localhost TCP or
an in-process loopback), with a coordinator control plane that bootstraps
the ring, broadcasts stop, and reassembles the model under a token
conservation check.  Exposed through :func:`repro.fit` as
``engine="cluster"``.

Layers, bottom up:

* :mod:`~repro.cluster.wire` — the versioned binary frame format
  (token envelopes byte-consistent with the simulator's cost model).
* :mod:`~repro.cluster.transport` — the ``Transport`` interface plus the
  TCP and loopback substrates; future multi-host or gossip topologies
  are further implementations.
* :mod:`~repro.cluster.worker` — Algorithm 1 against a transport.
* :mod:`~repro.cluster.coordinator` — :class:`ClusterNomad`, the public
  runner.
"""

from .coordinator import DEFAULT_BATCH_SIZE, ClusterNomad
from .transport import (
    COORDINATOR,
    LoopbackHub,
    LoopbackTransport,
    TcpTransport,
    Transport,
)
from .wire import (
    ENVELOPE_OVERHEAD_BYTES,
    TOKEN_OVERHEAD_BYTES,
    WIRE_VERSION,
    Token,
    TokenEnvelope,
)
from .worker import WorkerSpec, run_worker

__all__ = [
    "ClusterNomad",
    "DEFAULT_BATCH_SIZE",
    "Transport",
    "TcpTransport",
    "LoopbackHub",
    "LoopbackTransport",
    "COORDINATOR",
    "WIRE_VERSION",
    "ENVELOPE_OVERHEAD_BYTES",
    "TOKEN_OVERHEAD_BYTES",
    "Token",
    "TokenEnvelope",
    "WorkerSpec",
    "run_worker",
]
