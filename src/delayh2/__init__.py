"""H2-optimal model reduction with unknown input/output delays.

Pole-residue calculus for H2 norms and inner products of delayed LTI
systems, realization-free rational reduction by interpolatory fixed-point
iteration, grid+Newton delay search, and the alternating loop combining
them. See the README for the file formats and the command-line interface.
"""

from .errors import (
    DegenerateDirections,
    DelayH2Error,
    DimensionMismatch,
    EvalAtPole,
    NegativeNormSquared,
    NonFiniteObjective,
    NonInvertibleE,
    NonRealModel,
    NonRealSum,
    RepeatedPole,
    Unstable,
)
from .models import (
    DelayBlock,
    DelayedModel,
    HighPrecisionTerms,
    PoleResidueModel,
    StateSpaceModel,
    canonicalize_terms,
    eval_transfer,
    eval_transfer_derivative,
    impulse_response,
    pole_residue_from_state_space,
    realify_check,
)
from .h2 import (
    GapValue,
    OptimalityResiduals,
    build_gtilde,
    compute_gap,
    gap_gradient,
    h2_norm_pole_residue,
    h2_norm_sq,
    inner_product_delayed,
    optimality_residuals,
)
from .irka import IrkaConfig, IrkaResult, irka_reduce
from .delayopt import DelaySearchConfig, optimize_delays
from .iodirka import IoDirkaConfig, ReductionReport, TraceEntry, io_dirka
from .bench import build_bench_model, run_bench

__version__ = "0.1.0"

__all__ = [
    "DegenerateDirections", "DelayH2Error", "DimensionMismatch", "EvalAtPole",
    "NegativeNormSquared", "NonFiniteObjective", "NonInvertibleE",
    "NonRealModel", "NonRealSum", "RepeatedPole", "Unstable",
    "DelayBlock", "DelayedModel", "HighPrecisionTerms", "PoleResidueModel",
    "StateSpaceModel", "canonicalize_terms", "eval_transfer",
    "eval_transfer_derivative", "impulse_response",
    "pole_residue_from_state_space", "realify_check",
    "GapValue", "OptimalityResiduals", "build_gtilde", "compute_gap",
    "gap_gradient", "h2_norm_pole_residue", "h2_norm_sq",
    "inner_product_delayed", "optimality_residuals",
    "IrkaConfig", "IrkaResult", "irka_reduce",
    "DelaySearchConfig", "optimize_delays",
    "IoDirkaConfig", "ReductionReport", "TraceEntry", "io_dirka",
    "build_bench_model", "run_bench",
    "__version__",
]
