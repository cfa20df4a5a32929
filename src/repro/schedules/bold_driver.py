"""The bold-driver step-size adaptation used by DSGD and DSGD++.

Gemulla et al. [12] adapt a single global step size once per epoch by
watching the training objective: if the last epoch decreased the objective,
the step grows slightly (reward); if it increased, the step shrinks sharply
(punish).  The paper's §5.1 notes that "DSGD and DSGD++ ... use an
alternative strategy called bold-driver", so the DSGD baselines here use
this class while NOMAD's kernels apply equation (11) per rating.
"""

from __future__ import annotations

import math

from ..errors import ConfigError

__all__ = ["BoldDriver"]


class BoldDriver:
    """Epoch-level multiplicative step-size controller.

    Parameters
    ----------
    initial_step:
        Step size used during the first epoch.
    grow:
        Multiplier applied after an epoch that decreased the objective
        (classically 1.05).
    shrink:
        Multiplier applied after an epoch that increased the objective
        (classically 0.5).
    """

    def __init__(
        self,
        initial_step: float,
        grow: float = 1.05,
        shrink: float = 0.5,
    ):
        if initial_step <= 0:
            raise ConfigError(f"initial_step must be > 0, got {initial_step}")
        if grow < 1.0:
            raise ConfigError(f"grow must be >= 1, got {grow}")
        if not 0.0 < shrink < 1.0:
            raise ConfigError(f"shrink must be in (0, 1), got {shrink}")
        self._step = float(initial_step)
        self._grow = float(grow)
        self._shrink = float(shrink)
        self._last_objective: float | None = None

    @property
    def step(self) -> float:
        """Step size to use for the upcoming epoch."""
        return self._step

    @property
    def last_objective(self) -> float | None:
        """The objective baseline currently driving adaptation."""
        return self._last_objective

    def punish(self) -> float:
        """Shrink the step without moving the objective baseline.

        Used when the caller *rolls back* a rejected epoch (Gemulla et al.
        switch back to the previous iterate on an objective increase): the
        baseline still describes the restored parameters, so only the step
        changes.
        """
        self._step *= self._shrink
        return self._step

    def observe(self, objective: float) -> float:
        """Report the end-of-epoch objective; returns the adapted step.

        The first observation only establishes the baseline.
        """
        if not math.isfinite(objective):
            # Divergence: punish hard and reset the baseline so the next
            # finite value is accepted.
            self._step *= self._shrink
            self._last_objective = None
            return self._step
        if self._last_objective is not None:
            if objective <= self._last_objective:
                self._step *= self._grow
            else:
                self._step *= self._shrink
        self._last_objective = objective
        return self._step

    def __repr__(self) -> str:
        return (
            f"BoldDriver(step={self._step:.3g}, grow={self._grow}, "
            f"shrink={self._shrink})"
        )
