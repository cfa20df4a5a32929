"""Numerical substrate: factors, losses, regularizers, and update kernels.

Everything an optimizer touches numerically lives here so that NOMAD and
all baselines share one audited implementation of the update mathematics.
The SGD inner loops are provided by the pluggable backends of
:mod:`repro.linalg.backends` (selected per run via
``RunConfig.kernel_backend`` / the ``NOMAD_KERNEL_BACKEND`` environment
variable); :mod:`repro.linalg.kernels` keeps the single-pair reference
update plus the ALS/CCD++ closed-form kernels.
"""

from .factors import FactorPair, init_factors
from .losses import Loss, SquaredLoss
from .regularizers import Regularizer, WeightedL2
from .objective import regularized_objective, test_rmse, predict
from .backends import (
    CextBackend,
    KernelBackend,
    ListBackend,
    cext_available,
    get_backend,
    resolve_backend,
)
from .kernels import (
    sgd_update_pair,
    als_solve_row,
    ccd_coordinate_update,
)

__all__ = [
    "FactorPair",
    "init_factors",
    "Loss",
    "SquaredLoss",
    "Regularizer",
    "WeightedL2",
    "regularized_objective",
    "test_rmse",
    "predict",
    "KernelBackend",
    "ListBackend",
    "CextBackend",
    "cext_available",
    "get_backend",
    "resolve_backend",
    "sgd_update_pair",
    "als_solve_row",
    "ccd_coordinate_update",
]
