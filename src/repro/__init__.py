"""repro — block iterative methods and Krylov subspace recycling.

A from-scratch Python reproduction of *"Block Iterative Methods and
Recycling for Improved Scalability of Linear Solvers"* (Jolivet &
Tournier, SC16 — the HPDDM paper): (pseudo-)block GMRES and GCRO-DR with
right / left / variable preconditioning, smoothed-aggregation AMG and
optimized Schwarz (ORAS) preconditioners, a sparse direct solver with
blocked multi-RHS triangular solves, PDE problem generators (Poisson,
linear elasticity, time-harmonic Maxwell on Nédélec edge elements), and a
simulated-MPI cost model for scalability studies.

Quickstart
----------
>>> import numpy as np, scipy.sparse as sp
>>> from repro import solve, Options
>>> n = 100
>>> A = sp.diags([-np.ones(n-1), 2*np.ones(n), -np.ones(n-1)], [-1, 0, 1]).tocsr()
>>> res = solve(A, np.ones(n), options=Options(krylov_method="gcrodr",
...             gmres_restart=20, recycle=5, tol=1e-10))
>>> bool(res.converged.all())
True
"""

from .api import Solver, solve
from .krylov.base import (FunctionPreconditioner, Operator, Preconditioner,
                          SolveResult, as_operator, as_preconditioner)
from .krylov.recycling import RecycledSubspace
from .service import (AsyncSolveService, SetupCache, ShardedSetupCache,
                      SolveService, make_service, operator_fingerprint)
from .util.ledger import CostLedger, CostTable, install as install_ledger
from .util.options import Options, parse_hpddm_args

__version__ = "1.0.0"

__all__ = [
    "solve",
    "Solver",
    "Options",
    "parse_hpddm_args",
    "Operator",
    "as_operator",
    "Preconditioner",
    "FunctionPreconditioner",
    "as_preconditioner",
    "SolveResult",
    "RecycledSubspace",
    "SolveService",
    "AsyncSolveService",
    "make_service",
    "SetupCache",
    "ShardedSetupCache",
    "operator_fingerprint",
    "CostLedger",
    "CostTable",
    "install_ledger",
]
