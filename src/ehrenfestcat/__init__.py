"""Ehrenfest chain with catastrophes and its OU jump-diffusion approximation.

A validated numerical library for a mean-reverting birth-death chain on
-N..N that is reset to 0 at a constant catastrophe rate, together with
the Ornstein-Uhlenbeck jump-diffusion that arises in the small-spacing
scaling limit.  Closed-form laws, independent ODE/quadrature/Monte-Carlo
oracles, first-passage-time analysis, and a CLI that writes figure data
as CSV.
"""

from .ehrenfest import (
    ChainParams,
    Curve,
    ProbVector,
    QuadratureError,
)
from .oujump import DiffusionParams, ScalingMap, scale_params, chain_for_scale
from .mc import EstimateWithError, FptEstimate, LawEstimate, SimConfig
from .specfun import NonConvergenceError

__version__ = "0.1.0"

__all__ = [
    "ChainParams",
    "ProbVector",
    "Curve",
    "DiffusionParams",
    "ScalingMap",
    "scale_params",
    "chain_for_scale",
    "SimConfig",
    "EstimateWithError",
    "LawEstimate",
    "FptEstimate",
    "NonConvergenceError",
    "QuadratureError",
    "__version__",
]
