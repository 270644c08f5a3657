"""PDE problem generators: Poisson, elasticity, Maxwell, transient
sequences (heat, Maxwell ramp), partitioning."""

from .elasticity import (PAPER_INCLUSIONS, ElasticityProblem, Inclusion,
                         elasticity_3d, rigid_body_modes)
from .maxwell import (MaxwellProblem, antenna_ring_rhs, assemble_maxwell,
                      chamber_phantom, decompose_maxwell, maxwell_chamber)
from .partition import OverlappingDecomposition, decompose
from .poisson import (PAPER_NUS, PoissonProblem, poisson_2d,
                      poisson_2d_variable)
from .tetmesh import TetMesh, box_tet_mesh, cylinder_mask
from .transient import HeatSequence, MaxwellRampSequence, SequenceStep

__all__ = [
    "PoissonProblem",
    "poisson_2d",
    "poisson_2d_variable",
    "PAPER_NUS",
    "ElasticityProblem",
    "elasticity_3d",
    "Inclusion",
    "PAPER_INCLUSIONS",
    "rigid_body_modes",
    "TetMesh",
    "box_tet_mesh",
    "cylinder_mask",
    "MaxwellProblem",
    "assemble_maxwell",
    "maxwell_chamber",
    "chamber_phantom",
    "antenna_ring_rhs",
    "decompose_maxwell",
    "OverlappingDecomposition",
    "decompose",
    "SequenceStep",
    "HeatSequence",
    "MaxwellRampSequence",
]
