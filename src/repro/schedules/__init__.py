"""Step-size schedules: DSGD's bold driver.

NOMAD's per-rating step of equation (11) has no class: both kernel
backends compute it inline (``linalg/backends``).
"""

from .bold_driver import BoldDriver

__all__ = ["BoldDriver"]
