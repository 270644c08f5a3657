"""Krylov solvers: (pseudo-)block GMRES, GCRO-DR, CG, LGMRES, Chebyshev."""

from .base import (ConvergenceHistory, FunctionPreconditioner, Operator,
                   Preconditioner, SolveResult, as_operator, as_preconditioner)
from .bgmres import bgmres
from .cg import cg
from .chebyshev import ChebyshevSmoother
from .gcrodr import gcrodr
from .pgcrodr import pgcrodr
from .gmres import gmres
from .gmresdr import gmresdr
from .lgmres import lgmres
from .recycling import PseudoBlockRecycle, RecycledSubspace

__all__ = [
    "gmres",
    "gmresdr",
    "bgmres",
    "gcrodr",
    "pgcrodr",
    "PseudoBlockRecycle",
    "lgmres",
    "cg",
    "ChebyshevSmoother",
    "Operator",
    "as_operator",
    "Preconditioner",
    "FunctionPreconditioner",
    "as_preconditioner",
    "SolveResult",
    "ConvergenceHistory",
    "RecycledSubspace",
]
