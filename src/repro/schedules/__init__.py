"""Step-size schedules: NOMAD's t^1.5 decay and DSGD's bold driver."""

from .step_size import NomadSchedule
from .bold_driver import BoldDriver

__all__ = [
    "NomadSchedule",
    "BoldDriver",
]
