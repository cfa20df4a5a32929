"""Cluster topology: machines × cores with per-machine speed skew.

Workers are the unit of the paper's abstraction (§3.1: "a worker is a thread
in shared memory, a machine in distributed memory").  A :class:`Cluster`
flattens the (machine, core) grid into global worker ids, distinguishes
intra- from inter-machine links, and converts work units (SGD updates, ALS
solves, CCD passes) into simulated seconds through a
:class:`HardwareProfile`.

The paper reserves two threads per machine for network communication in the
hybrid setting (§3.4); the simulator models that by making sends
*non-blocking* (a worker schedules a delivery and immediately continues),
which is exactly the effect those communication threads provide.  The
optional ``comm_core_penalty`` lets the commodity-hardware experiments
account for NOMAD using 2 of 4 cores for communication while DSGD/CCD++ use
all 4 for compute (§5.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .network import NetworkModel, LOCAL_PROFILE

__all__ = ["HardwareProfile", "Worker", "Cluster"]


@dataclass(frozen=True)
class HardwareProfile:
    """Compute cost constants of one machine class.

    Attributes
    ----------
    name:
        Human-readable profile name.
    sgd_cost_per_dim:
        Seconds per SGD update per latent dimension — the constant ``a`` of
        §3.2 divided by ``k``.
    flop_s:
        Seconds per floating-point operation for the dense solves of
        ALS/CCD++ cost accounting.

    Calibration
    -----------
    The *default* constants are deliberately 100× the physical Xeon values
    (see :data:`PAPER_HARDWARE` for the physical ones, which reproduce the
    paper's ~4M updates/core/sec at k=100 in Figure 6 right).  The
    experiments here run on surrogate datasets roughly 10³ smaller than the
    paper's, so each surrogate rating stands in for many real ones; if
    compute costs were left physical while network latency/bandwidth stayed
    physical (they cannot be scaled down — latency is a property of the
    wire), token work would be vanishingly small relative to message cost
    and every experiment would sit in the communication-bound regime.
    Inflating compute by 100× restores the paper's compute:communication
    balance: the netflix/hugewiki surrogates are compute-dominated on the
    HPC network and the yahoo surrogate communication-sensitive, exactly
    the regime split that drives Figures 8 and 11.
    """

    name: str = "xeon-scaled"
    sgd_cost_per_dim: float = 2.5e-7
    flop_s: float = 1.0e-7

    def __post_init__(self) -> None:
        if self.sgd_cost_per_dim <= 0:
            raise ConfigError(
                f"sgd_cost_per_dim must be > 0, got {self.sgd_cost_per_dim}"
            )
        if self.flop_s <= 0:
            raise ConfigError(f"flop_s must be > 0, got {self.flop_s}")

    def sgd_update_time(self, k: int, n_updates: int = 1) -> float:
        """Simulated seconds for ``n_updates`` SGD updates at dimension k."""
        return self.sgd_cost_per_dim * k * n_updates

    def als_solve_time(self, k: int, nnz: int) -> float:
        """Simulated seconds for one exact row solve (eq. 3).

        Forming the Gram matrix costs ``nnz·k²`` and the solve ``k³/3``.
        """
        return self.flop_s * (nnz * k * k + (k ** 3) / 3.0)

    def ccd_pass_time(self, nnz: int) -> float:
        """Simulated seconds for one CCD++ coordinate pass over nnz entries.

        Each entry contributes ~4 flops (multiply-add on numerator and
        denominator, residual update).
        """
        return self.flop_s * 4.0 * nnz


#: Physical Sandy Bridge Xeon constants: ~4M SGD updates/core/sec at k=100
#: (the paper's Figure 6 right) and ~1 GFLOP/s effective scalar throughput.
#: Used by the cost-model unit tests and available for paper-scale runs.
PAPER_HARDWARE = HardwareProfile(
    name="xeon",
    sgd_cost_per_dim=2.5e-9,
    flop_s=1.0e-9,
)


@dataclass(frozen=True)
class Worker:
    """One computational worker: global id plus (machine, core) position."""

    worker_id: int
    machine_id: int
    core_id: int


class Cluster:
    """A machines × cores-per-machine topology.

    Parameters
    ----------
    n_machines:
        Number of machines.
    cores_per_machine:
        Computation workers per machine (communication threads are modeled
        implicitly; see module docstring).
    network:
        Inter-machine link model (within a machine: :data:`LOCAL_PROFILE`).
    hardware:
        Compute cost constants.
    machine_speeds:
        Optional per-machine speed multipliers (> 0); a machine with speed
        0.5 takes twice as long per update.  Models the paper's §3.3
        "different workers might process updates at different rates due to
        differences in hardware and system load".
    jitter:
        Log-normal sigma of transient per-task compute-time noise (OS
        scheduling, cache misses, multi-tenant interference).  Multipliers
        are mean-1, so jitter does not change average throughput — but
        bulk-synchronous algorithms pay the *max* over machines at every
        barrier (the "curse of the last reducer", §4.1) while asynchronous
        algorithms average it out.  0 disables jitter (the idealized-cluster
        ablation).
    """

    def __init__(
        self,
        n_machines: int,
        cores_per_machine: int,
        network: NetworkModel,
        hardware: HardwareProfile | None = None,
        machine_speeds: np.ndarray | None = None,
        jitter: float = 0.0,
    ):
        if n_machines < 1:
            raise ConfigError(f"n_machines must be >= 1, got {n_machines}")
        if cores_per_machine < 1:
            raise ConfigError(
                f"cores_per_machine must be >= 1, got {cores_per_machine}"
            )
        self.n_machines = int(n_machines)
        self.cores_per_machine = int(cores_per_machine)
        self.network = network
        self.intra = LOCAL_PROFILE
        self.hardware = hardware if hardware is not None else HardwareProfile()
        if machine_speeds is None:
            machine_speeds = np.ones(n_machines)
        machine_speeds = np.asarray(machine_speeds, dtype=np.float64)
        if machine_speeds.shape != (n_machines,):
            raise ConfigError(
                f"machine_speeds must have shape ({n_machines},), "
                f"got {machine_speeds.shape}"
            )
        # isfinite first: `NaN <= 0` is false, and a NaN speed turns every
        # sgd_time of that machine into a NaN delay.
        if not np.isfinite(machine_speeds).all() or (machine_speeds <= 0).any():
            raise ConfigError("machine speeds must be positive and finite")
        self.machine_speeds = machine_speeds
        # Per-worker speed as plain floats: speed_of_worker runs once per
        # simulated token visit.
        self._worker_speeds: list[float] = machine_speeds.repeat(
            self.cores_per_machine
        ).tolist()
        if jitter < 0:
            raise ConfigError(f"jitter must be >= 0, got {jitter}")
        self.jitter = float(jitter)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        """Total computation workers across the cluster."""
        return self.n_machines * self.cores_per_machine

    def worker(self, worker_id: int) -> Worker:
        """Resolve a global worker id to its (machine, core) position."""
        if not 0 <= worker_id < self.n_workers:
            raise ConfigError(f"worker_id {worker_id} out of range")
        return Worker(
            worker_id=worker_id,
            machine_id=worker_id // self.cores_per_machine,
            core_id=worker_id % self.cores_per_machine,
        )

    def machine_of(self, worker_id: int) -> int:
        """Machine hosting a given worker."""
        if not 0 <= worker_id < len(self._worker_speeds):
            raise ConfigError(f"worker_id {worker_id} out of range")
        return worker_id // self.cores_per_machine

    def workers_of_machine(self, machine_id: int) -> list[int]:
        """Global worker ids hosted by ``machine_id``."""
        if not 0 <= machine_id < self.n_machines:
            raise ConfigError(f"machine_id {machine_id} out of range")
        start = machine_id * self.cores_per_machine
        return list(range(start, start + self.cores_per_machine))

    def same_machine(self, a: int, b: int) -> bool:
        """Whether two workers share a machine."""
        return self.machine_of(a) == self.machine_of(b)

    # ------------------------------------------------------------------
    # Cost conversions
    # ------------------------------------------------------------------
    def speed_of_worker(self, worker_id: int) -> float:
        """Speed multiplier of the worker's machine."""
        if not 0 <= worker_id < len(self._worker_speeds):
            raise ConfigError(f"worker_id {worker_id} out of range")
        return self._worker_speeds[worker_id]

    def sgd_time(self, worker_id: int, k: int, n_updates: int) -> float:
        """Simulated seconds for a worker to run ``n_updates`` SGD updates."""
        base = self.hardware.sgd_update_time(k, n_updates)
        return base / self.speed_of_worker(worker_id)

    def token_delay(self, src_worker: int, dst_worker: int, k: int) -> float:
        """In-flight time of a (j, h_j) token between two workers."""
        if self.same_machine(src_worker, dst_worker):
            return self.intra.token_delay(k)
        return self.network.token_delay(k)

    def bulk_delay(self, n_bytes: float) -> float:
        """Inter-machine bulk transfer time (baseline synchronization)."""
        return self.network.bulk_delay(n_bytes)

    def jitter_multiplier(self, rng) -> float:
        """One mean-1 log-normal compute-time multiplier.

        ``rng`` is any object with a ``gauss(mu, sigma)`` method (stdlib
        :class:`random.Random`).  Returns exactly 1.0 when jitter is
        disabled so jitter-free runs stay bit-identical to older traces.
        """
        if self.jitter == 0.0:
            return 1.0
        sigma = self.jitter
        return math.exp(sigma * rng.gauss(0.0, 1.0) - 0.5 * sigma * sigma)

    def barrier_multiplier(self, rng) -> float:
        """Max of one jitter draw per machine — a bulk-sync barrier's cost.

        Asynchronous algorithms sample :meth:`jitter_multiplier` per task
        and average it out; synchronous ones stall for the slowest machine,
        which is this max.
        """
        if self.jitter == 0.0:
            return 1.0
        return max(self.jitter_multiplier(rng) for _ in range(self.n_machines))

    def __repr__(self) -> str:
        return (
            f"Cluster(machines={self.n_machines}, "
            f"cores={self.cores_per_machine}, network={self.network.name})"
        )
