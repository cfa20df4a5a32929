"""The nomadic ``(j, h_j)`` token.

In NOMAD the item parameter vectors are "nomadic variables" (§3.1): each
lives in exactly one worker's queue or hands at a time and migrates after
being processed.  The token object carries the item index and the
intra-machine circulation state of the hybrid architecture (§3.4); the
``h_j`` row itself stays in the simulator's item-factor matrix, which the
bound token kernels update through the item id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ItemToken"]


@dataclass
class ItemToken:
    """One nomadic item variable in transit or being processed.

    Attributes
    ----------
    item:
        Item (column) index ``j``.
    circulation:
        Remaining worker ids to visit on the current machine before the
        token pays a network hop (hybrid architecture, §3.4), next stop
        first: the simulator pops it from the front.  Empty for the basic
        single-level algorithm.
    """

    item: int
    circulation: list[int] = field(default_factory=list)

    def __repr__(self) -> str:
        return (
            f"ItemToken(item={self.item}, "
            f"pending_local={len(self.circulation)})"
        )
