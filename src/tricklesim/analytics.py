"""Closed-form and quadrature evaluation of the broadcast-timing laws.

Single cell of n nodes, steady state, unit interval, listen-only fraction
eta, redundancy constant k.  The network-wide inter-transmission time T
has the hazard of a superposed attempt process: zero during the listen-only
window, then growing linearly.  Everything else follows from that single
law: the k = 1 gap distribution in closed form, the general-k law through
a (k-1)-fold residual construction evaluated by one fixed Gauss-Legendre
rule, message-count means and moments through one normalization constant
per (k, n, eta), the large-n limits in both regimes, and a
cell-decomposition estimate for square-grid networks.  The gap laws take a
scalar t and return a float, or an array of t and return an array.

All functions are pure; the normalization constant is cached per
parameter triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Integral

import numpy as np
import scipy

from .quadrature import fixed_quad, quad
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
    return math.exp(scipy.special.gammaln(a) - scipy.special.gammaln(b))


def _t_array(t) -> np.ndarray:
    """`t` as a float array, ValueError on NaN or t < 0.  Clipped at 1e100,
    where every gap law is exactly 1 or 0, so inf never meets ``inf * 0``."""
    arr = np.asarray(t, dtype=float)
    if not (arr >= 0).all():
        raise ValueError(f"t must be >= 0 and not NaN, got {t}")
    return np.minimum(arr, 1e100)


# --------------------------------------------------------------------------
# first transmission (k = 1)

def hazard_unconditional(t: float, p: AnalyticParams) -> float:
    """Rate at which the first broadcast since the last one occurs.

    Zero while every node can still be inside its listen-only window, then
    ``n (t - eta) / (1 - eta)``.  For eta = 1 all probability concentrates
    at t = 1 (every broadcast offset equals the interval length), returned
    as an infinite rate there.
    """
    if not t >= 0:
        raise ValueError(f"t must be >= 0 and not NaN, got {t}")
    if p.eta == 1.0:
        return math.inf if t >= 1.0 else 0.0
    if t < p.eta:
        return 0.0
    return p.n * (t - p.eta) / (1.0 - p.eta)


def cdf_T1(t, p: AnalyticParams):
    """Distribution of the network-wide gap for k = 1:
    ``1 - exp[-(n/2)(t - eta)^2 / (1 - eta)]`` past the listen-only point."""
    arr = _t_array(t)
    if p.eta == 1.0:
        vals = np.where(arr >= 1.0, 1.0, 0.0)
    else:
        vals = -np.expm1(-0.5 * p.n * np.maximum(arr - p.eta, 0.0) ** 2 / (1.0 - p.eta))
    return vals if np.ndim(t) else float(vals)


def pdf_T1(t, p: AnalyticParams):
    """Density of the k = 1 gap: hazard times survival."""
    if p.eta == 1.0:
        raise ValueError("gap law is a point mass at t=1 for eta=1; no density")
    arr = _t_array(t)
    vals = p.n * np.maximum(arr - p.eta, 0.0) / (1.0 - p.eta) * np.exp(_log_sf_T1(arr, p))
    return vals if np.ndim(t) else float(vals)


def _log_sf_T1(x, p: AnalyticParams):
    # Log-survival of the k = 1 gap law over arrays, without the validation.
    return -0.5 * p.n / (1.0 - p.eta) * np.maximum(x - p.eta, 0.0) ** 2


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
    if not (t >= 0 and v >= 0):
        raise ValueError(f"t and v must be >= 0 and not NaN, got t={t}, v={v}")
    if v < p.eta or p.eta == 1.0:
        return cdf_T1(t + v, p)
    return -math.expm1(-p.n * (0.5 * t * t + t * (v - p.eta)) / (1.0 - p.eta))


# --------------------------------------------------------------------------
# normalization constant and the general-k laws

def _trunc_upper(k: int, sigma: float) -> float:
    # Width covering the Gaussian kernel plus the polynomial factor's pull.
    return (12.0 + 3.0 * math.sqrt(k)) * sigma


@lru_cache(maxsize=None)
def _norm_const_cached(k: int, n: int, eta: float) -> float:
    # log C, where 1/C = eta^(k-1)/(k-1)! + int_0^inf (eta+u)^(k-2) e^(-u^2/2 sigma^2) du/(k-2)!
    if k == 1:
        return 0.0
    if eta == 1.0:
        # The Gaussian term vanishes (zero-width kernel); only the
        # polynomial part of the no-broadcast window survives.
        return math.lgamma(k)

    sigma = math.sqrt((1.0 - eta) / n)
    poly = scipy.special.xlogy(k - 1, eta) - math.lgamma(k)

    # Finite-sum form of the defining integral, by log-sum-exp: the binomial
    # expansion of (eta+u)^(k-2) against half-integer gamma values.
    i = np.arange(k - 1)
    terms = (
        scipy.special.xlogy(k - 2 - i, eta) + 0.5 * (i + 1) * math.log(2.0 * sigma * sigma)
        + scipy.special.gammaln(0.5 * (i + 1)) - scipy.special.gammaln(i + 1)
        - scipy.special.gammaln(k - 1 - i) - math.log(2.0)
    )
    top = max(terms.max(), poly)
    log_sum = float(top + math.log(np.exp(terms - top).sum() + math.exp(poly - top)))

    # Independent quadrature of the same integral in v = u/sigma, the
    # log-integrand's peak subtracted, truncated where the Gaussian underflows.
    # Gauss-Kronrod nodes are interior, so the log never sees eta + sigma v = 0.
    v0 = (math.sqrt(eta * eta + 4.0 * (k - 2) * sigma * sigma) - eta) / (2.0 * sigma)
    peak = float(scipy.special.xlogy(k - 2, eta + sigma * v0)) - 0.5 * v0 * v0
    integral = quad(
        lambda v: math.exp((k - 2) * math.log(eta + sigma * v) - 0.5 * v * v - peak),
        0.0, _trunc_upper(k, 1.0), epsabs=0.0, epsrel=1e-12, limit=300,
    )
    log_quad = float(np.logaddexp(poly, math.log(sigma * integral) + peak - math.lgamma(k - 1)))

    if abs(log_sum - log_quad) > 1e-10:
        raise ArithmeticError(
            f"normalization forms disagree at k={k}, n={n}, eta={eta}: "
            f"{-log_sum!r} (sum) vs {-log_quad!r} (quadrature), as log C"
        )
    return -log_sum


def _log_c(p: AnalyticParams) -> float:
    return _norm_const_cached(p.k, p.n, p.eta)


def norm_const(p: AnalyticParams) -> float:
    """Normalization constant of the stationary gap construction.

    The constant is kept as its logarithm, evaluated both as a finite sum
    (binomial expansion against half-integer gamma values, by log-sum-exp)
    and by direct quadrature; the two must agree to 1e-10, or an
    ArithmeticError is raised.  The laws in this module use the logarithm,
    so no k is too large for them.  This returns ``exp(log C)``, and raises
    an ArithmeticError when that is not a finite float.  k = 1 gives exactly
    1, eta = 1 exactly ``(k-1)!``, and its reciprocal laddering yields every
    gap moment: ``E[T^j] = j! C_k / C_{k+j}``.
    """
    try:
        return float(math.factorial(p.k - 1)) if p.eta == 1.0 else math.exp(_log_c(p))
    except OverflowError:
        raise ArithmeticError(
            f"normalization constant overflows a float at k={p.k}, n={p.n}, eta={p.eta}"
        ) from None


def joint_density(t_vec, p: AnalyticParams) -> float:
    """Stationary joint density of the k-1 gaps preceding a transmission.

    ``C * sf_1(sum t_i)``: constant inside the listen-only window, Gaussian
    beyond it; exchangeable because it depends only on the sum.
    """
    if p.k < 2:
        raise ValueError(f"joint gap density needs k >= 2, got k={p.k}")
    t = _t_array(t_vec)
    if t.shape != (p.k - 1,):
        raise ValueError(f"need exactly k-1={p.k - 1} coordinates, got shape {t.shape}")
    s = float(t.sum())
    if p.eta == 1.0:
        return math.exp(_log_c(p)) if s < 1.0 else 0.0
    return math.exp(_log_c(p) + _log_sf_T1(s, p))


def sigma_density(s: float, p: AnalyticParams) -> float:
    """Density of the sum of the k-1 stationary gaps:
    ``C / (k-2)! * s^(k-2) * sf_1(s)``."""
    if p.k < 2:
        raise ValueError(f"gap-sum density needs k >= 2, got k={p.k}")
    if not s >= 0:
        raise ValueError(f"s must be >= 0 and not NaN, got {s}")
    s = min(s, 1e100)  # as in `_t_array`: the density is exactly 0 there
    log_g = _log_c(p) - math.lgamma(p.k - 1) + scipy.special.xlogy(p.k - 2, s)
    if p.eta == 1.0:
        return math.exp(log_g) if s < 1.0 else 0.0
    return math.exp(log_g + _log_sf_T1(s, p))


def _gap_law(t, p: AnalyticParams, density: bool):
    # pdf_T (density) or cdf_T for k >= 2: each t is one fixed-rule integral
    # over s from max(0, eta - t), where the hazard at s + t turns positive.
    if p.eta == 1.0:
        raise ValueError("gap law is degenerate at eta=1; no density or continuous CDF")
    arr = _t_array(t)
    lo = np.maximum(0.0, p.eta - arr.ravel())
    log_c = _log_c(p) - math.lgamma(p.k - 1)  # of C/(k-2)!

    def kernel(s, tt):  # s > lo >= 0 at every node of the rule
        g = np.exp(log_c + (p.k - 2) * np.log(s) + _log_sf_T1(s + tt, p))
        return (s + tt - p.eta) * g if density else g

    width = _trunc_upper(p.k, math.sqrt((1.0 - p.eta) / p.n))
    integral = fixed_quad(kernel, arr.ravel(), lo, width)
    if density:
        vals = p.n / (1.0 - p.eta) * integral
    else:  # plus the exact polynomial piece below lo, where the survival is 1
        # below = C/(k-2)! lo^(k-1)/(k-1)
        below = np.exp(log_c + scipy.special.xlogy(p.k - 1, lo) - math.log(p.k - 1))
        vals = np.clip(1.0 - below - integral, 0.0, 1.0)
    return vals.reshape(arr.shape) if np.ndim(t) else float(vals[0])


def pdf_T(t, p: AnalyticParams):
    """Density of the stationary inter-transmission time for general k.

    k = 1 routes to the closed form; k >= 2 evaluates
    ``C/(k-2)! * int f_1(s + t) s^(k-2) ds`` by the fixed Gauss-Legendre
    rule over the range where the hazard is positive.  Scalar t in, float
    out; array in, array out.  NaN or negative t raises ValueError; inf gives 0.
    """
    return pdf_T1(t, p) if p.k == 1 else _gap_law(t, p, density=True)


def cdf_T(t, p: AnalyticParams):
    """Distribution of the stationary inter-transmission time for general k:
    ``1 - C/(k-2)! * int sf_1(s + t) s^(k-2) ds``, evaluated as `pdf_T` is
    (t = inf gives 1)."""
    return cdf_T1(t, p) if p.k == 1 else _gap_law(t, p, density=False)


def moment_T(j: int, p: AnalyticParams) -> float:
    """j-th raw moment of the gap: ``j! * C_k / C_{k+j}``."""
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if j == 0:
        return 1.0
    return math.factorial(j) * math.exp(_log_c(p) - _log_c(replace(p, k=p.k + j)))


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
    return math.exp(_log_c(replace(p, k=p.k + 1)) - _log_c(p))


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
    if math.isnan(t):
        raise ValueError("t must not be NaN")
    if t < 0.0 or t > eta:
        return 0.0
    return (k - 1) / eta * (1.0 - t / eta) ** (k - 2)


def _limit_eta0_closed(t: np.ndarray, k: int) -> np.ndarray:
    f2 = 2.0 / math.sqrt(math.pi) * np.exp(-(t**2))
    if k == 2:
        return f2
    f3 = math.sqrt(math.pi) * scipy.special.erfc(t)
    if k == 3:
        return f3
    prev2, prev1 = f2, f3
    for j in range(4, k + 1):
        ratio = _gamma_ratio(0.5 * j, 0.5 * (j - 1))
        cur = (j - 2) / (j - 3) * prev2 - ratio * 2.0 * t / (j - 3) * prev1
        prev2, prev1 = prev1, cur
    return prev1


def limiting_pdf_eta0(t, k: int):
    """Large-n density of the scaled gap ``sqrt(n/2) T`` at eta = 0.

    Closed forms for k = 2 (half-Gaussian shape) and k = 3 (erfc); for
    k >= 4 a two-term recursion ladders up from those, and every call also
    evaluates the defining integral by the fixed Gauss-Legendre rule -- the
    two must agree to 1e-8 absolute or an ArithmeticError is raised.
    Accepts a scalar or an array of t values.
    """
    if k < 2:
        raise ValueError(f"limit density needs k >= 2, got k={k}")
    arr = np.atleast_1d(_t_array(t))
    vals = _limit_eta0_closed(arr, k)
    if k >= 4:
        integrand = lambda v, tt: (tt + v) * v ** (k - 2) * np.exp(-((tt + v) ** 2))
        direct = 4.0 / math.exp(scipy.special.gammaln(0.5 * (k - 1))) * fixed_quad(
            integrand, arr.ravel(), np.zeros(arr.size), 12.0 + 2.0 * math.sqrt(k)
        )
        i = int(np.argmax(np.abs(direct - vals.ravel())))
        if abs(direct[i] - vals.flat[i]) > 1e-8:
            raise ArithmeticError(
                f"limit-density recursion disagrees with quadrature at "
                f"k={k}, t={arr.flat[i]}: {vals.flat[i]!r} vs {direct[i]!r}"
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
