"""Radii of starlikeness and convexity for a generalized Struve-type family.

The package evaluates the gamma-weighted alternating series

    W(x) = sum_{n>=0} (-1)^n c^n / (n! Gamma(q n + P)) (x/2)^(2n+p+1),
    P = p/delta + (b+2)/2,

locates the real zeros of W, W' and derived auxiliary functions, solves
the transcendental equations whose smallest positive roots are the radii
of starlikeness and convexity of order alpha of three normalized forms,
and brackets those radii with power-sum (Euler-Rayleigh) bounds. A
Bessel-function specialization acts as an independent oracle, and the
``struveradii`` CLI exposes evaluation plus grid verification suites.
"""

from .bessel import (
    CorollaryFamily,
    bessel_j,
    bessel_j_zeros,
    corollary_bounds,
    reduce_to_bessel,
)
from .bounds import (
    BoundRadiusKind,
    BoundsPair,
    RayleighSums,
    SumSource,
    bounds_for,
    newton_power_sums,
    rayleigh_sums_closed_form,
    rayleigh_sums_newton,
    statement_form_bounds,
)
from .errors import (
    BracketError,
    BranchError,
    ConvergenceError,
    NumericalError,
    PoleError,
    PrecisionLossError,
    ScanOverflowError,
)
from .radii import (
    RadiusKind,
    RadiusQuery,
    RadiusResult,
    radius_convex,
    radius_starlike,
)
from .struve import (
    NormalizationKind,
    StruveParams,
    eval_normalized,
    eval_w,
    log_derivative,
    log_gamma,
)
from .verify import CheckResult, SuiteReport, default_grid, load_grid, run_suite
from .zeros import (
    AuxiliaryFamily,
    InterlacingReport,
    ZeroSequence,
    check_interlacing,
    find_zeros,
    first_zero,
)

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryFamily",
    "BoundRadiusKind",
    "BoundsPair",
    "BracketError",
    "BranchError",
    "CheckResult",
    "ConvergenceError",
    "CorollaryFamily",
    "InterlacingReport",
    "NormalizationKind",
    "NumericalError",
    "PoleError",
    "PrecisionLossError",
    "RadiusKind",
    "RadiusQuery",
    "RadiusResult",
    "RayleighSums",
    "ScanOverflowError",
    "StruveParams",
    "SuiteReport",
    "SumSource",
    "ZeroSequence",
    "bessel_j",
    "bessel_j_zeros",
    "bounds_for",
    "check_interlacing",
    "corollary_bounds",
    "default_grid",
    "eval_normalized",
    "eval_w",
    "find_zeros",
    "first_zero",
    "load_grid",
    "log_derivative",
    "log_gamma",
    "newton_power_sums",
    "radius_convex",
    "radius_starlike",
    "rayleigh_sums_closed_form",
    "rayleigh_sums_newton",
    "reduce_to_bessel",
    "run_suite",
    "statement_form_bounds",
    "__version__",
]
