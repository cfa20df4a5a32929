"""Discrete-event cluster simulator.

This package is the substrate that replaces the paper's physical testbeds
(Stampede HPC nodes, AWS m1.xlarge instances).  It provides:

* :class:`~repro.simulator.engine.Simulator` — a deterministic
  discrete-event engine (one heap of ``(time, seq, callback, args)``
  tuples).
* :class:`~repro.simulator.cluster.Cluster` — machines × cores topology with
  per-machine speed skew.
* :class:`~repro.simulator.network.NetworkModel` — latency + bandwidth +
  message-batching cost model, with profiles matching the paper's HPC
  (InfiniBand) and commodity (1 Gb/s AWS) environments.
* :class:`~repro.simulator.trace.Trace` — the (time, updates, RMSE) record
  stream every experiment plots.

Algorithms execute their *real numerics* inside simulated time: compute and
communication costs advance the clock, while the update mathematics runs
eagerly whenever its event fires.  Determinism is total — no wall-clock
reads, stable event tie-breaking, seeded RNG streams.
"""

from .engine import Simulator
from .cluster import Cluster, HardwareProfile, Worker, PAPER_HARDWARE
from .network import NetworkModel, HPC_PROFILE, COMMODITY_PROFILE, LOCAL_PROFILE
from .trace import Trace, TraceRecord

__all__ = [
    "Simulator",
    "Cluster",
    "HardwareProfile",
    "Worker",
    "PAPER_HARDWARE",
    "NetworkModel",
    "HPC_PROFILE",
    "COMMODITY_PROFILE",
    "LOCAL_PROFILE",
    "Trace",
    "TraceRecord",
]
