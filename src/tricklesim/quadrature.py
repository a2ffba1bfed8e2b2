"""Adaptive quadrature with tight tolerances and hard failure.

Thin wrapper over scipy's Gauss-Kronrod integrator: convergence warnings
become exceptions, non-finite results are rejected, and the default
tolerances (1e-10 absolute, 1e-8 relative) suit the distribution-level
accuracy targets used across the package.  Semi-infinite ranges go through
scipy's built-in variable transformation.  `fixed_quad` instead applies
one fixed composite Gauss-Legendre rule to a whole array of integrals.

`scipy.integrate` is loaded on the first `quad` call, not on import, so
importing this module costs only numpy.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy

__all__ = ["QuadratureError", "quad", "fixed_quad"]

EPSABS = 1e-10
EPSREL = 1e-8

# The fixed rule on [0, 1]: 16 panels of 16 Gauss-Legendre nodes.  Against
# log-scaled adaptive quadrature at n = 20..2000 it holds the gap law to 5e-13
# for k <= 300 (tested), 1e-11 at k = 500 and 1.6e-8 at k = 1000, eta = 0
# (32 x 20 took 26 MB on a 1,025-point grid; 64 rows a block stay under 1 MB).
_PANELS, _NODES, _ROW_BLOCK = 16, 16, 64
_X, _W = np.polynomial.legendre.leggauss(_NODES)
_UNIT_NODES = ((np.arange(_PANELS)[:, None] + 0.5 * (_X + 1.0)) / _PANELS).ravel()
_UNIT_WEIGHTS = np.tile(0.5 * _W / _PANELS, _PANELS)


class QuadratureError(RuntimeError):
    """An integral failed to converge or produced a non-finite value."""


def quad(
    f,
    a: float,
    b: float,
    *,
    epsabs: float = EPSABS,
    epsrel: float = EPSREL,
    limit: int = 200,
) -> float:
    """Integrate `f` over [a, b] (either end may be infinite).

    Raises QuadratureError instead of warning when the integrator cannot
    reach its tolerance or the value is not finite.
    """
    # Loaded here, not under catch_warnings, whose exit drops the filters scipy sets on import.
    integrate = scipy.integrate
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            val, _err = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
    except integrate.IntegrationWarning as exc:
        raise QuadratureError(f"integral over [{a}, {b}] did not converge: {exc}") from exc
    if not (val == val and abs(val) != float("inf")):
        raise QuadratureError(f"integral over [{a}, {b}] is not finite: {val}")
    return float(val)


def fixed_quad(f, x: np.ndarray, lo: np.ndarray, width: float) -> np.ndarray:
    """For each i, the integral of ``f(s, x[i])`` over ``[lo[i], lo[i] + width]``
    by the fixed rule, `f` elementwise on a block of rows.  Rows are reduced by
    `sum`, not a matrix product, whose rounding depends on the row count."""
    out = np.empty(x.size)
    for start in range(0, x.size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        s = lo[rows, None] + width * _UNIT_NODES
        out[rows] = (f(s, x[rows, None]) * (width * _UNIT_WEIGHTS)).sum(axis=-1)
    return out
