"""Real-argument log-gamma for the prefactor 1/Gamma(P) of ``eval_w``.

Every other gamma quotient in this package is a product (P)_m =
Gamma(P+m) / Gamma(P) taken exactly (``struve.shift_rising``), so this
module only needs ln Gamma at finite x > 0.
"""

from __future__ import annotations

import math

__all__ = ["log_gamma"]


def log_gamma(x: float) -> float:
    """Return ln Gamma(x) for finite x > 0.

    Backed by the platform lgamma, whose relative error is a few ulp.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)
