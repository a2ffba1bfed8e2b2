"""Closed-form and quadrature evaluation of the broadcast-timing laws.

Single cell of n nodes, steady state, unit interval, listen-only fraction
eta, redundancy constant k.  The network-wide inter-transmission time T
has the hazard of a superposed attempt process: zero during the listen-only
window, then growing linearly.  Everything else follows from that single
law: the k = 1 gap distribution in closed form, the general-k law through
a (k-1)-fold residual construction evaluated by quadrature, message-count
means and moments through one normalization constant per (k, n, eta), the
large-n limits in both regimes, and a cell-decomposition estimate for
square-grid networks.

All functions are pure; the normalization constant is cached per
parameter triple.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Integral

import numpy as np
from scipy.special import erfc, gammaln

from .quadrature import quad
from .residual import LifetimeDistribution, shifted_rayleigh

__all__ = [
    "AnalyticParams",
    "GridParams",
    "hazard_unconditional",
    "cdf_T1",
    "pdf_T1",
    "mean_T1",
    "mean_N1",
    "conditional_cdf_T2",
    "NORM_CONST_MAX_K",
    "norm_const",
    "joint_density",
    "sigma_density",
    "pdf_T",
    "cdf_T",
    "moment_T",
    "moment_T_closed_eta0",
    "moment_T_limit_eta_pos",
    "mean_N",
    "mean_N_asymptotic",
    "limiting_pdf_eta_pos",
    "limiting_pdf_eta0",
    "limiting_exp_checks",
    "first_transmission_lifetime",
    "multicell_estimate",
    "multicell_large_range",
    "multicell_ratio",
]


@dataclass(frozen=True)
class AnalyticParams:
    """Single-cell parameters; time is in units of the (maximum) interval."""

    k: int
    n: int
    eta: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.k, Integral) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        if not isinstance(self.n, Integral) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")


@dataclass(frozen=True)
class GridParams:
    """Square-grid parameters: side x side nodes, radio range in lattice units."""

    side: int
    radio_range: float
    eta: float
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.side, Integral) or self.side < 1:
            raise ValueError(f"side must be an integer >= 1, got {self.side!r}")
        if not self.radio_range > 0:
            raise ValueError(f"radio range must be positive, got {self.radio_range}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if not isinstance(self.k, Integral) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")


def _gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) via the log-gamma difference (no overflow)."""
    return math.exp(gammaln(a) - gammaln(b))


# --------------------------------------------------------------------------
# first transmission (k = 1)

def hazard_unconditional(t: float, p: AnalyticParams) -> float:
    """Rate at which the first broadcast since the last one occurs.

    Zero while every node can still be inside its listen-only window, then
    ``n (t - eta) / (1 - eta)``.  For eta = 1 all probability concentrates
    at t = 1 (every broadcast offset equals the interval length), returned
    as an infinite rate there.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if p.eta == 1.0:
        return math.inf if t >= 1.0 else 0.0
    if t < p.eta:
        return 0.0
    return p.n * (t - p.eta) / (1.0 - p.eta)


def cdf_T1(t: float, p: AnalyticParams) -> float:
    """Distribution of the network-wide gap for k = 1:
    ``1 - exp[-(n/2)(t - eta)^2 / (1 - eta)]`` past the listen-only point."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if p.eta == 1.0:
        return 1.0 if t >= 1.0 else 0.0
    if t < p.eta:
        return 0.0
    return -math.expm1(-0.5 * p.n * (t - p.eta) ** 2 / (1.0 - p.eta))


def pdf_T1(t: float, p: AnalyticParams) -> float:
    """Density of the k = 1 gap: hazard times survival."""
    if p.eta == 1.0:
        raise ValueError("gap law is a point mass at t=1 for eta=1; no density")
    if t < p.eta:
        return 0.0
    lam = p.n * (t - p.eta) / (1.0 - p.eta)
    return lam * math.exp(-0.5 * p.n * (t - p.eta) ** 2 / (1.0 - p.eta))


def mean_T1(p: AnalyticParams) -> float:
    """``eta + sqrt(pi (1 - eta) / (2n))``."""
    return p.eta + math.sqrt(math.pi * (1.0 - p.eta) / (2.0 * p.n))


def mean_N1(p: AnalyticParams) -> float:
    """Mean transmissions per interval for k = 1: reciprocal of the mean gap."""
    return 1.0 / mean_T1(p)


def conditional_cdf_T2(t: float, v: float, p: AnalyticParams) -> float:
    """CDF of the second gap given the first broadcast happened `v` ago (k = 2).

    The suppression threshold is not yet reached after one message, so the
    gap law only changes through the elapsed time: no mass before the
    listen-only point, the unconditional law restarted at ``v`` when the
    window is still open, and a hazard already running when ``v >= eta``.
    """
    if p.k != 2:
        raise ValueError(f"conditional second-gap law is defined for k=2, got k={p.k}")
    if t < 0 or v < 0:
        raise ValueError(f"t and v must be >= 0, got t={t}, v={v}")
    if p.eta == 1.0:
        return 1.0 if t + v >= 1.0 else 0.0
    if t + v < p.eta:
        return 0.0
    if v < p.eta:
        return -math.expm1(-p.n * (t + v - p.eta) ** 2 / (2.0 * (1.0 - p.eta)))
    return -math.expm1(-p.n * (0.5 * t * t + t * (v - p.eta)) / (1.0 - p.eta))


# --------------------------------------------------------------------------
# normalization constant and the general-k laws

def _trunc_upper(k: int, sigma: float) -> float:
    # Width covering the Gaussian kernel plus the polynomial factor's pull.
    return (12.0 + 3.0 * math.sqrt(k)) * sigma


# Largest k whose normalization constant is evaluated: the finite-sum form
# divides floats by (k-1)!, which leaves the float range at k = 172.
NORM_CONST_MAX_K = 150


@lru_cache(maxsize=None)
def _norm_const_cached(k: int, n: int, eta: float) -> float:
    if k == 1:
        return 1.0
    if k > NORM_CONST_MAX_K:
        raise ValueError(f"k={k} too large for direct factorial evaluation")
    if eta == 1.0:
        # The Gaussian term vanishes (zero-width kernel); only the
        # polynomial part of the no-broadcast window survives.
        return math.factorial(k - 1)

    sigma = math.sqrt((1.0 - eta) / n)

    # Finite-sum form of the defining integral.
    acc = 0.0
    for i in range(k - 1):
        acc += (
            math.comb(k - 2, i)
            * eta ** (k - 2 - i)
            * (2.0 * (1.0 - eta) / n) ** (0.5 * (i + 1))
            * math.exp(gammaln(0.5 * (i + 1)))
        )
    inv_sum = eta ** (k - 1) / math.factorial(k - 1) + acc / (2.0 * math.factorial(k - 2))

    # Independent quadrature of the same integral, truncated where the
    # Gaussian kernel underflows.
    kernel = lambda u: (eta + u) ** (k - 2) * math.exp(-0.5 * (u / sigma) ** 2)
    inv_quad = eta ** (k - 1) / math.factorial(k - 1) + quad(
        kernel, 0.0, _trunc_upper(k, sigma), epsabs=0.0, epsrel=1e-12, limit=300
    ) / math.factorial(k - 2)

    if abs(inv_sum - inv_quad) > 1e-10 * abs(inv_sum):
        raise ArithmeticError(
            f"normalization forms disagree at k={k}, n={n}, eta={eta}: "
            f"{inv_sum!r} (sum) vs {inv_quad!r} (quadrature)"
        )
    if not inv_sum > 1.0 / sys.float_info.max:
        raise ArithmeticError(
            f"normalization constant overflows a float at k={k}, n={n}, eta={eta}"
        )
    return 1.0 / inv_sum


def norm_const(p: AnalyticParams) -> float:
    """Normalization constant of the stationary gap construction.

    Evaluated both as a finite sum (binomial expansion against half-integer
    gamma values) and by direct quadrature; the two must agree to 1e-10
    relative, and the constant must be a finite float, or an ArithmeticError
    is raised.  k = 1 gives exactly 1, and its reciprocal laddering yields
    every gap moment: ``E[T^j] = j! C_k / C_{k+j}``.
    """
    return _norm_const_cached(p.k, p.n, p.eta)


def _sf_T1(x: float, p: AnalyticParams) -> float:
    # Survival of the k=1 gap law without the validation overhead.
    if x < p.eta:
        return 1.0
    return math.exp(-0.5 * p.n * (x - p.eta) ** 2 / (1.0 - p.eta))


def joint_density(t_vec, p: AnalyticParams) -> float:
    """Stationary joint density of the k-1 gaps preceding a transmission.

    ``C * sf_1(sum t_i)``: constant inside the listen-only window, Gaussian
    beyond it; exchangeable because it depends only on the sum.
    """
    if p.k < 2:
        raise ValueError(f"joint gap density needs k >= 2, got k={p.k}")
    t = np.asarray(t_vec, dtype=float)
    if t.shape != (p.k - 1,):
        raise ValueError(f"need exactly k-1={p.k - 1} coordinates, got shape {t.shape}")
    if np.any(t < 0):
        raise ValueError("coordinates must be nonnegative")
    s = float(t.sum())
    c = norm_const(p)
    if p.eta == 1.0:
        return c if s < 1.0 else 0.0
    return c * _sf_T1(s, p)


def sigma_density(s: float, p: AnalyticParams) -> float:
    """Density of the sum of the k-1 stationary gaps:
    ``C / (k-2)! * s^(k-2) * sf_1(s)``."""
    if p.k < 2:
        raise ValueError(f"gap-sum density needs k >= 2, got k={p.k}")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    c = norm_const(p) / math.factorial(p.k - 2)
    if p.eta == 1.0:
        return c * s ** (p.k - 2) if s < 1.0 else 0.0
    return c * s ** (p.k - 2) * _sf_T1(s, p)


def pdf_T(t: float, p: AnalyticParams) -> float:
    """Density of the stationary inter-transmission time for general k.

    k = 1 routes to the closed form; k >= 2 evaluates
    ``C/(k-2)! * int f_1(s + t) s^(k-2) ds`` by quadrature over the range
    where the hazard is positive.
    """
    if p.k == 1:
        return pdf_T1(t, p)
    if p.eta == 1.0:
        raise ValueError("gap law is degenerate at eta=1; no density")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    eta, n, k = p.eta, p.n, p.k
    sigma = math.sqrt((1.0 - eta) / n)
    rate = n / (1.0 - eta)
    lo = max(0.0, eta - t)
    hi = lo + _trunc_upper(k, sigma)

    def integrand(s: float) -> float:
        w = s + t - eta
        return w * s ** (k - 2) * math.exp(-0.5 * rate * w * w)

    # epsabs bounds the density's error, not the integral's: c is ~1e19 at k=16, n=2000.
    c = norm_const(p) / math.factorial(k - 2)
    return c * rate * quad(integrand, lo, hi, epsabs=1e-12 / (c * rate), epsrel=1e-10, limit=300)


def cdf_T(t: float, p: AnalyticParams) -> float:
    """Distribution of the stationary inter-transmission time for general k:
    ``1 - C/(k-2)! * int sf_1(s + t) s^(k-2) ds``."""
    if p.k == 1:
        return cdf_T1(t, p)
    if p.eta == 1.0:
        raise ValueError("gap law is degenerate at eta=1; no continuous CDF")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    eta, n, k = p.eta, p.n, p.k
    sigma = math.sqrt((1.0 - eta) / n)
    rate = n / (1.0 - eta)
    lo = max(0.0, eta - t)

    c = norm_const(p) / math.factorial(k - 2)
    # Exact polynomial piece where the survival is identically 1.
    tail = lo ** (k - 1) / (k - 1)
    kernel = lambda s: s ** (k - 2) * math.exp(-0.5 * rate * (s + t - eta) ** 2)
    # epsabs bounds the CDF's error, not the integral's (see pdf_T).
    hi = lo + _trunc_upper(k, sigma)
    tail += quad(kernel, lo, hi, epsabs=1e-12 / c, epsrel=1e-10, limit=300)
    return min(1.0, max(0.0, 1.0 - c * tail))


def moment_T(j: int, p: AnalyticParams) -> float:
    """j-th raw moment of the gap: ``j! * C_k / C_{k+j}``."""
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if j == 0:
        return 1.0
    p_up = replace(p, k=p.k + j)
    return math.factorial(j) * norm_const(p) / norm_const(p_up)


def moment_T_closed_eta0(j: int, p: AnalyticParams) -> float:
    """Closed form of the gap moment at eta = 0:
    ``j! Gamma(k/2) / ((2n)^(j/2) Gamma((k+j)/2))``."""
    if p.eta != 0.0:
        raise ValueError("closed moment form holds for eta=0 only")
    return (
        math.factorial(j)
        * _gamma_ratio(0.5 * p.k, 0.5 * (p.k + j))
        / (2.0 * p.n) ** (0.5 * j)
    )


def moment_T_limit_eta_pos(j: int, k: int, eta: float) -> float:
    """Large-n limit of the gap moment for eta > 0:
    ``j! (k-1)! / (k+j-1)! * eta^j`` (the Beta-law moments)."""
    if not eta > 0:
        raise ValueError("limit form holds for eta > 0")
    return math.factorial(j) * math.factorial(k - 1) / math.factorial(k + j - 1) * eta**j


def mean_N(p: AnalyticParams) -> float:
    """Mean transmissions per interval: ``1 / E[T] = C_{k+1} / C_k``.

    For eta > 0 this is strictly below k/eta and increases toward it with
    the cell size.
    """
    return norm_const(replace(p, k=p.k + 1)) / norm_const(p)


def mean_N_asymptotic(p: AnalyticParams) -> float:
    """Large-n expression for the mean count per interval.

    eta = 0: ``sqrt(2n) Gamma((k+1)/2) / Gamma(k/2)`` (unbounded growth);
    eta > 0: ``k/eta - (k/eta^2) sqrt(pi (1-eta) / (2n))`` (approaching the
    k/eta ceiling from below).
    """
    if p.eta == 0.0:
        return math.sqrt(2.0 * p.n) * _gamma_ratio(0.5 * (p.k + 1), 0.5 * p.k)
    return p.k / p.eta - p.k / p.eta**2 * math.sqrt(math.pi * (1.0 - p.eta) / (2.0 * p.n))


# --------------------------------------------------------------------------
# large-n limit laws

def limiting_pdf_eta_pos(t: float, k: int, eta: float) -> float:
    """Large-n gap density for eta > 0: ``(k-1)/eta * (1 - t/eta)^(k-2)``
    on [0, eta] -- the Beta(1, k-1) density stretched to the listen-only
    window."""
    if k < 2:
        raise ValueError(f"limit density needs k >= 2, got k={k}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if t < 0.0 or t > eta:
        return 0.0
    return (k - 1) / eta * (1.0 - t / eta) ** (k - 2)


def _limit_eta0_closed(t: np.ndarray, k: int) -> np.ndarray:
    f2 = 2.0 / math.sqrt(math.pi) * np.exp(-(t**2))
    if k == 2:
        return f2
    f3 = math.sqrt(math.pi) * erfc(t)
    if k == 3:
        return f3
    prev2, prev1 = f2, f3
    for j in range(4, k + 1):
        ratio = _gamma_ratio(0.5 * j, 0.5 * (j - 1))
        cur = (j - 2) / (j - 3) * prev2 - ratio * 2.0 * t / (j - 3) * prev1
        prev2, prev1 = prev1, cur
    return prev1


def _limit_eta0_quad(t: float, k: int) -> float:
    integrand = lambda v: (t + v) * v ** (k - 2) * math.exp(-((t + v) ** 2))
    return 4.0 / math.exp(gammaln(0.5 * (k - 1))) * quad(
        integrand, 0.0, 12.0 + 2.0 * math.sqrt(k), epsabs=1e-13, epsrel=1e-11
    )


def limiting_pdf_eta0(t, k: int):
    """Large-n density of the scaled gap ``sqrt(n/2) T`` at eta = 0.

    Closed forms for k = 2 (half-Gaussian shape) and k = 3 (erfc); for
    k >= 4 a two-term recursion ladders up from those, and every call also
    evaluates the defining integral directly -- the two must agree to 1e-8
    absolute or an ArithmeticError is raised.  Accepts a scalar or an
    array of t values.
    """
    if k < 2:
        raise ValueError(f"limit density needs k >= 2, got k={k}")
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(arr < 0):
        raise ValueError("t must be >= 0")
    vals = _limit_eta0_closed(arr, k)
    if k >= 4:
        for i, ti in enumerate(arr):
            direct = _limit_eta0_quad(float(ti), k)
            if abs(direct - vals[i]) > 1e-8:
                raise ArithmeticError(
                    f"limit-density recursion disagrees with quadrature at "
                    f"k={k}, t={ti}: {vals[i]!r} vs {direct!r}"
                )
    return vals if np.ndim(t) else float(vals[0])


def limiting_exp_checks(k: int, n: int, eta: float, j_max: int = 3):
    """Convergence diagnostic toward the exponential-moment pattern.

    Returns rows ``(j, scaled_moment, j!)`` where the gap moment is scaled
    by ``sqrt(nk)^j`` for eta = 0 and by ``(k/eta)^j`` for eta > 0; both
    scalings tend to j! as k (and n) grow.
    """
    p = AnalyticParams(k=k, n=n, eta=eta)
    scale = math.sqrt(n * k) if eta == 0.0 else k / eta
    return [
        (j, moment_T(j, p) * scale**j, float(math.factorial(j)))
        for j in range(1, j_max + 1)
    ]


# --------------------------------------------------------------------------
# bridges and the grid estimate

def first_transmission_lifetime(p: AnalyticParams) -> LifetimeDistribution:
    """The k = 1 gap law packaged as a lifetime (zero hazard on [0, eta],
    then linear).  Feeding it with memory depth k-1 into the residual-chain
    stationary law reproduces cdf_T."""
    if p.eta == 1.0:
        raise ValueError("degenerate lifetime at eta=1")
    return shifted_rayleigh(shift=p.eta, scale=math.sqrt((1.0 - p.eta) / p.n))


def multicell_estimate(g: GridParams, s_cell: int) -> float:
    """Cell-decomposition estimate of grid-wide transmissions per interval:
    ``side^2 / S * mean_N(k, S, eta)`` for a broadcast cell of S nodes."""
    if s_cell < 1:
        raise ValueError(f"cell size must be >= 1, got {s_cell}")
    p = AnalyticParams(k=g.k, n=s_cell, eta=g.eta)
    return g.side**2 / s_cell * mean_N(p)


def multicell_large_range(g: GridParams) -> float:
    """Closed large-range form of the estimate with S ~ pi R^2 cell nodes:
    ``sqrt(2/pi) side^2 / R * Gamma((k+1)/2)/Gamma(k/2)`` for eta = 0 and
    ``side^2 k / (pi R^2 eta)`` for eta > 0."""
    if g.eta == 0.0:
        return (
            math.sqrt(2.0 / math.pi)
            * g.side**2
            / g.radio_range
            * _gamma_ratio(0.5 * (g.k + 1), 0.5 * g.k)
        )
    return g.side**2 * g.k / (math.pi * g.radio_range**2 * g.eta)


def multicell_ratio(simulated_mean: float, g: GridParams, s_cell: int) -> float:
    """theta = simulated grid-wide mean / cell-decomposition estimate."""
    if not simulated_mean > 0:
        raise ValueError(f"simulated mean must be positive, got {simulated_mean}")
    return simulated_mean / multicell_estimate(g, s_cell)
