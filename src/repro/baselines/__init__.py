"""Baseline optimizers the paper compares NOMAD against.

Every baseline executes its real update mathematics and charges simulated
time through the same :class:`~repro.simulator.cluster.Cluster` cost model
NOMAD uses, so convergence-versus-time comparisons are apples-to-apples:

* :class:`~repro.baselines.dsgd.DSGDSimulation` — Gemulla et al.'s bulk-
  synchronous block SGD (p×p grid, bold driver).
* :class:`~repro.baselines.dsgd_pp.DSGDPlusPlusSimulation` — Teflioudi et
  al.'s DSGD++ (p×2p grid, communication overlapped with computation).
* :class:`~repro.baselines.fpsgd.FPSGDSimulation` — Zhuang et al.'s shared-
  memory FPSGD** (p′×p′ grid, task-manager scheduling).
* :class:`~repro.baselines.ccd.CCDPlusPlusSimulation` — Yu et al.'s CCD++
  feature-wise coordinate descent with residual maintenance.
* :class:`~repro.baselines.graphlab_als.GraphLabALSSimulation` — the
  distributed-lock asynchronous ALS analogue of GraphLab (Appendix F).
* :class:`~repro.baselines.hogwild.HogwildSimulation` — lock-free shared-
  memory SGD with stale reads (related-work §4.3; demonstrates
  non-serializability).
"""

from .dsgd import DSGDSimulation
from .dsgd_pp import DSGDPlusPlusSimulation
from .fpsgd import FPSGDSimulation
from .ccd import CCDPlusPlusSimulation
from .graphlab_als import GraphLabALSSimulation
from .hogwild import HogwildSimulation

__all__ = [
    "DSGDSimulation",
    "DSGDPlusPlusSimulation",
    "FPSGDSimulation",
    "CCDPlusPlusSimulation",
    "GraphLabALSSimulation",
    "HogwildSimulation",
]
