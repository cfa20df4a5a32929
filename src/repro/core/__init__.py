"""The paper's primary contribution: the NOMAD algorithm.

* :class:`~repro.core.nomad.NomadSimulation` — the full hybrid
  multi-machine × multi-thread algorithm of §3, executed on the
  discrete-event cluster simulator.
* :mod:`~repro.core.load_balance` — recipient-selection policies, including
  the dynamic load balancing of §3.3.
* :mod:`~repro.core.serializability` — the conflict-graph checker and the
  visit-log replay behind the paper's serializability claim.
"""

from .nomad import NomadSimulation, NomadOptions
from .tokens import ItemToken
from .load_balance import (
    RecipientPolicy,
    UniformPolicy,
    LeastQueuePolicy,
    PowerOfTwoPolicy,
)
from .serializability import (
    FRESH,
    UpdateEvent,
    conflict_graph,
    is_serializable,
    replay,
)

__all__ = [
    "NomadSimulation",
    "NomadOptions",
    "ItemToken",
    "RecipientPolicy",
    "UniformPolicy",
    "LeastQueuePolicy",
    "PowerOfTwoPolicy",
    "UpdateEvent",
    "FRESH",
    "conflict_graph",
    "is_serializable",
    "replay",
]
