"""Network cost model.

§3.2 of the paper abstracts hardware into two constants: processing an SGD
update costs ``a·k`` and communicating a ``(j, h_j)`` pair costs ``c·k``.
This module makes ``c`` explicit as latency + payload/bandwidth, with the
message batching of §3.5 ("we accumulate a fixed number of pairs (e.g., 100)
before transmitting them over the network") amortizing the latency term.

Three profiles mirror the paper's testbeds:

* :data:`HPC_PROFILE` — Stampede-like InfiniBand (microsecond latency,
  multi-GB/s bandwidth).
* :data:`COMMODITY_PROFILE` — AWS m1.xlarge-like Ethernet (≈ 1 Gb/s,
  sub-millisecond latency): the environment where the paper's §5.4 shows
  NOMAD's advantage is "more conspicuous".
* :data:`LOCAL_PROFILE` — intra-machine queue push, used for hops between
  threads of the same machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

__all__ = [
    "NetworkModel",
    "HPC_PROFILE",
    "COMMODITY_PROFILE",
    "LOCAL_PROFILE",
    "token_bytes",
]

_FLOAT_BYTES = 8
_TOKEN_OVERHEAD_BYTES = 16  # item index + queue-size payload of §3.3


def token_bytes(k: int) -> int:
    """Serialized size of one ``(j, h_j)`` message of latent dimension k."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return k * _FLOAT_BYTES + _TOKEN_OVERHEAD_BYTES


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth/batching cost model for one link class.

    Attributes
    ----------
    name:
        Human-readable profile name.
    latency_s:
        One-way message latency in seconds.
    bandwidth_bps:
        Usable bandwidth in bytes per second.
    batch_size:
        Number of tokens accumulated per envelope (§3.5); latency is paid
        once per envelope, so the per-token latency share is
        ``latency_s / batch_size``.
    """

    name: str
    latency_s: float
    bandwidth_bps: float
    batch_size: int = 100

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ConfigError(f"latency_s must be >= 0, got {self.latency_s}")
        if self.bandwidth_bps <= 0:
            raise ConfigError(
                f"bandwidth_bps must be > 0, got {self.bandwidth_bps}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")

    def token_delay(self, k: int) -> float:
        """Expected in-flight time of one ``(j, h_j)`` token (batched)."""
        return self.latency_s / self.batch_size + token_bytes(k) / self.bandwidth_bps

    def bulk_delay(self, n_bytes: float) -> float:
        """Time to move an ``n_bytes`` blob (one latency + serialization).

        Used by the bulk-synchronous baselines when they shift whole factor
        blocks between machines.
        """
        if n_bytes < 0:
            raise ConfigError(f"n_bytes must be >= 0, got {n_bytes}")
        return self.latency_s + n_bytes / self.bandwidth_bps


#: InfiniBand-class interconnect (Stampede, §5.1): ~2 us latency, ~5 GB/s.
HPC_PROFILE = NetworkModel(
    name="hpc",
    latency_s=2e-6,
    bandwidth_bps=5e9,
    batch_size=100,
)

#: Commodity 1 Gb/s Ethernet (AWS m1.xlarge, §5.4): ~0.5 ms latency.
COMMODITY_PROFILE = NetworkModel(
    name="commodity",
    latency_s=5e-4,
    bandwidth_bps=1.25e8,
    batch_size=100,
)

#: Intra-machine queue push between threads (§3.4: "much cheaper ... no
#: network hop").  A concurrent-queue hand-off is a few cache-coherent
#: operations (~tens of ns) and moves only a pointer; the payload already
#: lives in shared memory.
LOCAL_PROFILE = NetworkModel(
    name="local",
    latency_s=2e-8,
    bandwidth_bps=2e10,
    batch_size=1,
)
