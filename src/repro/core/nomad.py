"""The NOMAD algorithm on the discrete-event cluster simulator.

This is a faithful implementation of Algorithm 1 plus the refinements of
§3.3 (dynamic load balancing) and §3.4 (hybrid architecture):

* User rows ``w_i`` are partitioned once across workers and never move.
* Item rows ``h_j`` are nomadic tokens.  A worker pops a token from its
  queue, runs the sequential SGD updates over its local ratings of that
  item (``Ω̄^(q)_j``), then forwards the token — to the next thread of its
  machine while the intra-machine circulation of §3.4 is unfinished,
  otherwise over the network to a machine chosen by the recipient policy.
* Sends are non-blocking (the paper dedicates communication threads per
  machine); a worker continues with its next queued token immediately.
* The step size follows equation (11) with per-rating update counters.

Because each ``w_i`` is only ever touched by its owning worker and each
``h_j`` only by the worker currently holding its token, updates are
conflict-free and the execution is serializable; the optional visit log
feeds :mod:`repro.core.serializability`, which verifies exactly that and
replays the run bit for bit.

Implementation note.  ``W`` and ``H`` are two ``float64`` ndarrays,
mutated in place by one token kernel per worker, bound at construction
over its shard's CSC arrays, a per-rating counter array and the run's
loss (``KernelBackend.bind_tokens``): a visit is one ``process_token(j)``
call.  The cost model is asked once for every (worker, item) visit time
and the two hop times.  A token's life is two events, both bound methods
scheduled with their arguments: ``_finish_token(q, token)`` applies the
visit, draws the next stop, releases the token and starts the worker's
next queued token; ``_deliver_token(q, token)`` is its arrival.  What a
finish reads that is fixed for the run is resolved at construction.
:attr:`NomadSimulation.factors` is a decoupled snapshot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..config import HyperParams, RunConfig
from ..datasets.ratings import RatingMatrix
from ..errors import ConfigError, DivergenceError, SimulationError
from ..linalg.factors import FactorPair, start_factors
from ..linalg.backends import resolve_backend
from ..linalg.losses import Loss, SquaredLoss
from ..linalg.objective import test_rmse
from ..partition.assignments import OwnershipLedger
from ..partition.partitioners import (
    partition_rows_equal_count,
    partition_rows_equal_ratings,
)
from ..rng import RngFactory
from ..simulator.cluster import Cluster
from ..simulator.engine import Simulator
from ..simulator.trace import Trace
from .load_balance import RecipientPolicy, UniformPolicy
from .serializability import UpdateEvent, expand_visits
from .tokens import ItemToken

__all__ = ["NomadOptions", "NomadSimulation"]

# Queue-handling overhead of a token that carries no local ratings,
# expressed as a fraction of one SGD update's cost.  Pop + route + push is
# much cheaper than an update but not free.
_TOKEN_HANDLING_FRACTION = 0.25


@dataclass
class NomadOptions:
    """Behavioural switches of the NOMAD run.

    Attributes
    ----------
    policy:
        Recipient-selection policy (default: Algorithm 1's uniform choice).
    partition:
        ``"rows"`` for equal row counts, ``"ratings"`` for the footnote-1
        alternative of equal rating counts.
    circulate:
        Enable the hybrid intra-machine circulation of §3.4.  Disabling it
        makes every hop a network hop (the basic Algorithm 1), which is the
        ablation showing why the hybrid rule matters on slow networks.
    record_updates:
        Log each applied visit as a ``(worker, item)`` pair, in commit
        order, on :attr:`NomadSimulation.visits`.  On an 80×40 test
        matrix (11,927 visits) it holds 0.8 MB and adds no measurable
        time to a 33 ms run; ``update_log`` expands it per read (55 ms).
    loss:
        Separable per-entry loss.  ``None`` (default) is the paper's
        square loss; any other :class:`~repro.linalg.losses.Loss`
        (absolute, Huber, ...) is the §6 extension of NOMAD to arbitrary
        ``Σ f_ij(w_i, h_j)`` objectives.  Either way it is bound once
        into each worker's token kernel (``KernelBackend.bind_tokens``),
        and a token finish is the same one call.  Anything else is a
        :class:`~repro.errors.ConfigError`.
    """

    policy: RecipientPolicy = field(default_factory=UniformPolicy)
    partition: str = "ratings"
    circulate: bool = True
    record_updates: bool = False
    loss: Loss | None = None

    def __post_init__(self) -> None:
        if self.partition not in ("rows", "ratings"):
            raise ConfigError(
                f"partition must be 'rows' or 'ratings', got {self.partition!r}"
            )
        if self.loss is not None and not isinstance(self.loss, Loss):
            raise ConfigError(
                f"loss must be a repro.linalg.losses.Loss or None, "
                f"got {self.loss!r}"
            )
        if isinstance(self.loss, SquaredLoss):
            # Normalize: explicit SquaredLoss means the default square loss.
            self.loss = None


class NomadSimulation:
    """One NOMAD run over a simulated cluster.

    Parameters
    ----------
    train, test:
        Rating matrices over the same shape.
    cluster:
        Simulated topology and cost model.
    hyper:
        Model hyperparameters (k, λ, α, β).
    run:
        Execution parameters (duration, eval cadence, seed).
    options:
        Behavioural switches; see :class:`NomadOptions`.
    factors:
        Optional externally initialized factors (the harness passes the
        same initialization to every algorithm, as §5.1 prescribes).

    Examples
    --------
    >>> from repro.datasets import SyntheticSpec, make_low_rank, train_test_split
    >>> from repro.simulator import Cluster, HPC_PROFILE
    >>> from repro.rng import RngFactory
    >>> from repro.config import HyperParams, RunConfig
    >>> rng = RngFactory(0)
    >>> full = make_low_rank(SyntheticSpec(80, 40, rank=2, density=0.2),
    ...                      rng.stream("data"))
    >>> train, test = train_test_split(full, 0.2, rng.stream("split"))
    >>> cluster = Cluster(1, 2, HPC_PROFILE)
    >>> sim = NomadSimulation(train, test, cluster,
    ...                       HyperParams(k=4, lambda_=0.01, alpha=0.05),
    ...                       RunConfig(duration=0.005, eval_interval=0.001))
    >>> trace = sim.run()
    >>> trace.final_rmse() < trace.records[0].rmse
    True
    """

    def __init__(
        self,
        train: RatingMatrix,
        test: RatingMatrix,
        cluster: Cluster,
        hyper: HyperParams,
        run: RunConfig,
        options: NomadOptions | None = None,
        factors: FactorPair | None = None,
    ):
        if train.shape != test.shape:
            raise ConfigError(
                f"train/test shapes disagree: {train.shape} vs {test.shape}"
            )
        self.train = train
        self.test = test
        self.cluster = cluster
        self.hyper = hyper
        self.run_config = run
        self.options = options if options is not None else NomadOptions()

        self._rng_factory = RngFactory(run.seed)
        self._routing_rng = self._rng_factory.pyrandom("nomad-routing")
        self._jitter_rng = self._rng_factory.pyrandom("nomad-jitter")

        factors = start_factors(
            train.n_rows, train.n_cols, hyper.k, run.seed, factors
        )
        # Private copies, mutated in place by the backend's kernels.
        self._backend = resolve_backend(run.kernel_backend)
        self._w, self._h = factors.w.copy(), factors.h.copy()

        p = cluster.n_workers
        if self.options.partition == "rows":
            self._partition = partition_rows_equal_count(train.n_rows, p)
        else:
            self._partition = partition_rows_equal_ratings(train, p)
        # Per worker: one token kernel bound over the shard's CSC (indptr,
        # users, ratings) and its per-rating counters.
        self.shards = train.shard_by_rows(self._partition)
        self._kernels = [
            self._backend.bind_tokens(
                self._w, self._h, *shard.csc(),
                np.zeros(shard.nnz, dtype=np.int64),
                hyper.alpha, hyper.beta, hyper.lambda_, self.options.loss,
            )
            for shard in self.shards
        ]
        # Column bounds as Python ints: they are read on every token visit.
        self._col_ptr = [shard.csc()[0].tolist() for shard in self.shards]
        # The cluster's cost model, asked once per (worker, item) and per
        # link class instead of once per visit (an empty column costs the
        # token's handling only).
        k = hyper.k
        self._visit_time: list[list[float]] = []
        for q, ptr in enumerate(self._col_ptr):
            handling = cluster.sgd_time(q, k, 1) * _TOKEN_HANDLING_FRACTION
            self._visit_time.append([
                cluster.sgd_time(q, k, hi - lo) if hi > lo else handling
                for lo, hi in zip(ptr, ptr[1:])
            ])
        self._network_delay = cluster.network.token_delay(k)
        self._local_delay = cluster.intra.token_delay(k)
        self._machine_of = [cluster.machine_of(q) for q in range(p)]
        # Routing tables, built once: each machine's workers and its peers.
        machines = range(cluster.n_machines)
        self._machine_workers = [
            tuple(cluster.workers_of_machine(m)) for m in machines
        ]
        self._other_machines = [
            tuple(other for other in machines if other != m) for m in machines
        ]

        self._queues: list[deque[ItemToken]] = [deque() for _ in range(p)]
        self._busy = [False] * p
        self._ledger = OwnershipLedger(train.n_cols, p)
        self._sim = Simulator()
        self._total_updates = 0
        self._network_hops = 0
        self._local_hops = 0
        self._started = False
        self._halted = False
        self._halt_time: float | None = None
        self._trace = Trace(
            algorithm="NOMAD",
            n_workers=p,
            meta={
                "machines": cluster.n_machines,
                "cores": cluster.cores_per_machine,
                "network": cluster.network.name,
                "k": hyper.k,
                "lambda": hyper.lambda_,
            },
        )
        self.visits: list[tuple[int, int]] = []  # filled under record_updates

        # Per-run constants of the token hop, resolved once.
        self._stations = [
            (queue, visit, ptr, kernel.process_token, machine)
            for queue, visit, ptr, kernel, machine in zip(
                self._queues, self._visit_time, self._col_ptr,
                self._kernels, self._machine_of,
            )
        ]
        self._record_updates = self.options.record_updates
        self._circulating = self.options.circulate and cluster.cores_per_machine > 1
        self._choose = self.options.policy.choose
        self._sample = self._routing_rng.sample
        self._jitter = cluster.jitter_multiplier if cluster.jitter else None
        self._budget = run.max_updates
        self._schedule = self._sim.schedule_after
        self._finish = self._finish_token
        self._deliver = self._deliver_token
        self._acquire = self._ledger.acquire
        self._release = self._ledger.release

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> Trace:
        """Execute the simulation and return its convergence trace.

        A simulation runs once: a second call is refused before it touches
        anything (re-seeded queues would die in the ownership ledger).
        """
        if self._started:
            raise SimulationError(
                "a NomadSimulation runs once; build a new one to run again"
            )
        self._started = True
        self._seed_queues()
        for q in range(self.cluster.n_workers):
            self._wake_worker(q)
        self._schedule_evaluations()
        self._sim.run(until=self.run_config.duration)
        self._record_point(self.run_config.duration)
        self._ledger.assert_conserved()
        return self._trace

    @property
    def factors(self) -> FactorPair:
        """Materialized (W, H) snapshot of the current model state."""
        return FactorPair(self._w.copy(), self._h.copy())

    @property
    def update_log(self) -> list[UpdateEvent]:
        """Every applied SGD update in commit order, from :attr:`visits`."""
        return expand_visits(self.visits, self.shards)

    @property
    def kernel_backend(self) -> str:
        """Resolved name of the kernel backend actually running updates."""
        return self._backend.name

    @property
    def total_updates(self) -> int:
        """SGD updates applied so far."""
        return self._total_updates

    @property
    def network_hops(self) -> int:
        """Inter-machine token transfers so far (the §3.2 communication)."""
        return self._network_hops

    @property
    def local_hops(self) -> int:
        """Intra-machine token transfers so far (hybrid circulation)."""
        return self._local_hops

    def queue_sizes(self) -> list[int]:
        """Current queue length of every worker (diagnostics, tests)."""
        return [len(queue) for queue in self._queues]

    def telemetry_counters(self) -> dict:
        """Virtual-clock telemetry hook for ``fit(..., telemetry=True)``.

        The simulator has no wall clock, so instead of recorded spans it
        reports its own counters plus end-of-run queue depths; the
        simulated engine folds these into a counters-only
        :class:`~repro.telemetry.RunTelemetry`.
        """
        return {
            "updates": self._total_updates,
            "network_hops": self._network_hops,
            "local_hops": self._local_hops,
            "queue_depths": self.queue_sizes(),
        }

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _seed_queues(self) -> None:
        """Algorithm 1 lines 7–10: items scattered uniformly at random."""
        for j in range(self.train.n_cols):
            q = self._routing_rng.randrange(self.cluster.n_workers)
            token = ItemToken(item=j)
            self._queues[q].append(token)
            self._ledger.acquire(j, q)

    def _schedule_evaluations(self) -> None:
        interval = self.run_config.eval_interval
        duration = self.run_config.duration
        self._record_point(0.0)
        index = 1
        # Integer multiples (not accumulation) keep the grid exact; the
        # final point at `duration` is recorded by run() itself.
        while index * interval < duration * (1 - 1e-9):
            time = index * interval
            self._sim.schedule_at(time, self._record_point, time)
            index += 1

    # ------------------------------------------------------------------
    # Worker event handlers
    # ------------------------------------------------------------------
    def _wake_worker(self, q: int) -> None:
        """Start processing the next queued token, if idle and work exists."""
        if self._busy[q] or self._halted or not self._queues[q]:
            return
        token = self._queues[q].popleft()
        self._busy[q] = True
        delay = self._visit_time[q][token.item]
        if self._jitter is not None:
            delay *= self._jitter(self._jitter_rng)
        self._schedule(delay, self._finish, q, token)

    def _finish_token(self, q: int, token: ItemToken) -> None:
        """One visit ends (Algorithm 1 lines 15–23 and §3.4): apply the
        token's SGD updates, send it to its next stop, and start the
        worker's next queued token."""
        queue, visit_time, col_ptr, process_token, machine = self._stations[q]
        if self._halted:
            # The update budget ran out while this visit was in flight:
            # it applies nothing, and the token goes back to the head of
            # the queue it came from (still owned by q).
            queue.appendleft(token)
            self._busy[q] = False
            return
        j = token.item
        lo, hi = col_ptr[j], col_ptr[j + 1]
        if hi > lo:
            if self._record_updates:
                self.visits.append((q, j))
            # A burst of one: a single discrete event completes here, so
            # there is never a second column to fuse with.
            self._total_updates += process_token(j)

        # The next stop: the rest of the token's tour of this machine
        # while circulation lasts (§3.4), else a machine from the
        # recipient policy (§3.3) and either a fresh random tour of its
        # workers or one worker the policy picks.
        circulation = token.circulation
        if circulation:
            destination = circulation.pop(0)
        else:
            if len(self._machine_workers) == 1:
                target = 0
            else:
                target = self._choose(
                    self._other_machines[machine], self._machine_queue_size,
                    self._routing_rng,
                )
            workers = self._machine_workers[target]
            if self._circulating:
                tour = self._sample(workers, len(workers))
                token.circulation = tour[1:]
                destination = tour[0]
            else:
                destination = self._choose(
                    workers, self._queue_size, self._routing_rng
                )
        self._release(j, q)
        if self._machine_of[destination] == machine:
            self._local_hops += 1
            delay = self._local_delay
        else:
            self._network_hops += 1
            delay = self._network_delay
        schedule = self._schedule
        schedule(delay, self._deliver, destination, token)

        budget = self._budget
        if budget is not None and self._total_updates >= budget:
            # The budget is spent: halt here with one final trace point.
            # _record_point then suppresses the evaluation events still
            # scheduled (no identical-RMSE padding up to `duration`), and
            # the finishes still in flight apply nothing.
            self._halted = True
            self._halt_time = self._sim.now
            self._record_point(self._halt_time)
        elif queue:
            token = queue.popleft()
            delay = visit_time[token.item]
            # Transient system noise: NOMAD absorbs it (no barriers), so
            # the mean-1 multiplier only adds variance, never a straggler
            # stall.  Without jitter nothing is drawn.
            if self._jitter is not None:
                delay *= self._jitter(self._jitter_rng)
            schedule(delay, self._finish, q, token)
            return
        self._busy[q] = False

    def _queue_size(self, worker: int) -> int:
        """Tokens queued at one worker (the §3.3 payload)."""
        return len(self._queues[worker])

    def _machine_queue_size(self, machine: int) -> int:
        """Total queued tokens on a machine (the §3.3 payload summed)."""
        return sum(len(self._queues[w]) for w in self._machine_workers[machine])

    def _deliver_token(self, q: int, token: ItemToken) -> None:
        """Message arrival: enqueue and wake the worker if it is idle."""
        self._acquire(token.item, q)
        self._queues[q].append(token)
        if not self._busy[q]:
            self._wake_worker(q)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _record_point(self, time: float) -> None:
        if self._halt_time is not None and time > self._halt_time:
            return
        if self._trace.records and self._trace.records[-1].time >= time:
            return
        rmse = test_rmse(self.factors, self.test)
        if not np.isfinite(rmse):
            raise DivergenceError(
                "test RMSE diverged; reduce alpha or increase beta/lambda"
            )
        self._trace.add(time, self._total_updates, rmse)
