"""Small numeric helpers used by several modules."""

from __future__ import annotations

import numpy as np

# exp() underflows to 0 below ~-745 in float64
EXP_UNDERFLOW = -745.0


def survive_prob(p, t):
    """(1 - p)**t via log1p, so tiny p and large t keep full precision.

    Follows the 0**0 == 1 convention: t == 0 yields 1 even at p == 1.
    Accepts p in [0, 1], a scalar or an array; returns the matching shape.
    """
    p_arr = np.asarray(p, dtype=float)
    if t == 0:
        out = np.ones_like(p_arr)
    else:
        with np.errstate(divide="ignore"):
            out = np.exp(t * np.log1p(-p_arr))
    return float(out) if np.ndim(p) == 0 else out


def just_above(value: float) -> float:
    """A point immediately above ``value``: relative gap 1e-12, absolute at 0."""
    return value * (1.0 + 1e-12) if value > 0.0 else 1e-12
