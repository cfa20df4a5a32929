"""Dataset substrate: sparse rating matrices, generators, and surrogates.

The paper evaluates on Netflix, Yahoo! Music, and Hugewiki.  Those corpora
are proprietary or impractically large, so this package provides
*shape-preserving surrogates* (see :mod:`repro.datasets.registry`) built on a planted
low-rank model, together with the synthetic generator of §5.5 used for the
weak-scaling experiment.
"""

from .ratings import RatingMatrix, train_test_split
from .synthetic import (
    SyntheticSpec,
    make_low_rank,
    make_netflix_like,
)
from .distributions import log_normal_degrees, degrees_to_pair_sample
from .registry import DatasetProfile, PROFILES, load_profile, paper_statistics

__all__ = [
    "RatingMatrix",
    "train_test_split",
    "SyntheticSpec",
    "make_low_rank",
    "make_netflix_like",
    "log_normal_degrees",
    "degrees_to_pair_sample",
    "DatasetProfile",
    "PROFILES",
    "load_profile",
    "paper_statistics",
]
