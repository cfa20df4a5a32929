"""The nomadic ``(j, h_j)`` token.

In NOMAD the item parameter vectors are "nomadic variables" (§3.1): each
lives in exactly one worker's queue or hands at a time and migrates after
being processed.  The token object carries the item index, a direct
(mutable) view of the item's factor row, and the intra-machine circulation
state of the hybrid architecture (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ItemToken"]


@dataclass
class ItemToken:
    """One nomadic item variable in transit or being processed.

    Attributes
    ----------
    item:
        Item (column) index ``j``.
    vector:
        The live ``h_j`` coordinates: a row view of the item factor
        matrix, so it aliases what the simulator's bound token kernels
        update through the item id.
        NOMAD mutates it in place; because ownership is exclusive, no
        copy is ever needed — this mirrors the zero-copy hand-off a
        shared-memory implementation gets from passing pointers through
        a concurrent queue.
    circulation:
        Remaining worker ids to visit on the current machine before the
        token pays a network hop (hybrid architecture, §3.4), next stop
        first: the simulator pops it from the front.  Empty for the basic
        single-level algorithm.
    """

    item: int
    vector: np.ndarray
    circulation: list[int] = field(default_factory=list)

    def __repr__(self) -> str:
        return (
            f"ItemToken(item={self.item}, "
            f"pending_local={len(self.circulation)})"
        )
