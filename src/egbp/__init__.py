"""Bound-preserving enriched Galerkin method for elliptic reaction-diffusion.

The package combines a continuous P1 space with an element-wise constant
enrichment, an interior-penalty bilinear form with an over-penalized jump
term, a nodal limiter that truncates the continuous part against patch
extremes of the constant part, and a decoupled fixed-point solver whose
subproblems stay well-conditioned for any penalty exponent.
"""

from .mesh import Mesh, build_structured, refine_uniform
from .fespace import DofMap, EGFunction, dirichlet_lift
from .assembly import BlockSystem, ProblemSpec, assemble_system
from .limiter import PatchExtremes, apply_P, feasibility_check, patch_extremes
from .solver import EGSolution, SolveTrace, solve_bound_preserving, solve_standard_eg

__all__ = [
    "Mesh",
    "build_structured",
    "refine_uniform",
    "DofMap",
    "EGFunction",
    "dirichlet_lift",
    "BlockSystem",
    "ProblemSpec",
    "assemble_system",
    "PatchExtremes",
    "apply_P",
    "feasibility_check",
    "patch_extremes",
    "EGSolution",
    "SolveTrace",
    "solve_bound_preserving",
    "solve_standard_eg",
]

__version__ = "0.1.0"
