"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied.

    Raised eagerly at construction time (fail fast) rather than deep inside a
    simulation run, so the offending parameter is easy to locate.
    """


class DataError(ReproError):
    """A dataset is malformed, inconsistent, or cannot be loaded."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state.

    This signals a bug in an algorithm driver (for example a lost or
    duplicated nomadic token), never a user mistake.
    """


class DivergenceError(SimulationError):
    """Training diverged: the model's test RMSE or factors are not finite.

    Raised by the simulator and the clocked baselines when a recorded
    test RMSE is not finite, by every live engine when its final ``W``
    or ``H`` holds a non-finite value, and by
    :meth:`SnapshotStore.rotate <repro.stream.snapshots.SnapshotStore.rotate>`
    (so by :func:`repro.fit_stream`) on such factors — never a model
    returned as if trained, nor served.  The cure is a smaller step size
    (``alpha``) or more regularization (``beta`` / ``lambda_``).
    Subclasses :class:`SimulationError`, so a caller catching that
    catches this too.
    """


class ExperimentError(ReproError):
    """An experiment specification could not be resolved or executed."""


class WireError(ReproError):
    """A cluster wire-format frame is malformed.

    Raised when decoding a frame whose magic, version, kind, or length
    does not match the :mod:`repro.cluster.wire` format — a truncated
    frame, a stray connection, or a version skew between nodes.
    """


class AnalysisError(ReproError):
    """The nomadlint static-analysis pass cannot proceed.

    Raised for driver-level problems — a missing path, an unparseable
    source file, an invalid rule registration — never
    for rule findings, which are data (:class:`repro.analysis.Finding`),
    not exceptions.
    """


class ServeError(ReproError):
    """An HTTP serving request or the service configuration is invalid.

    Raised by :mod:`repro.serve` for malformed requests (bad query
    parameters, invalid JSON bodies, schema violations — mapped to HTTP
    400 by the service) and for service-level misconfiguration.  Model
    and persistence problems keep their existing classes
    (:class:`DataError`, :class:`ConfigError`).
    """


class ClusterError(ReproError):
    """The socket cluster engine reached an inconsistent state.

    Raised by the control plane: a worker that never reported ready, a
    missing result shard, or a violated token-conservation invariant
    (an item factor lost or duplicated in flight).  Like
    :class:`SimulationError`, this signals a protocol bug or a dead
    worker, never a user mistake.
    """


class TokenConservationError(ReproError):
    """A token-ring runtime lost or duplicated a token.

    Raised by the threaded and multiprocess engines
    (:mod:`repro.runtime.loop`) when the end-of-run check finds the
    token rings holding anything other than each item exactly once, and
    by :mod:`repro.runtime.mailbox` when a push would overflow a ring
    (only a duplicated token can cause that).  Like
    :class:`SimulationError` and :class:`ClusterError`, a protocol bug,
    never a user mistake.
    """


class WorkerLostError(ReproError):
    """A threaded or multiprocess worker stopped without reporting.

    Raised at the end of a run (after every shared-memory block is
    unlinked) naming the worker ids that crashed, or hung past the join
    timeout and were killed: the rows they owned stopped training at an
    unknown point, so the factors are not returned.  The cluster engine
    raises :class:`ClusterError` for the same event.
    """
