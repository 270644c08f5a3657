"""Sparse direct solver: LU, blocked triangular solves, RCM ordering."""

from .ordering import reverse_cuthill_mckee
from .solver import SparseLU
from .triangular import LevelSchedule, TriangularFactor

__all__ = [
    "SparseLU",
    "reverse_cuthill_mckee",
    "LevelSchedule",
    "TriangularFactor",
]
