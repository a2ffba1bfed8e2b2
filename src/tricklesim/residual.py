"""Markov chains of residual lifetimes.

Fix a continuous lifetime Y >= 0 and a memory depth m.  The chain moves by
overshoot: given the last m values with sum sigma, the next value is the
residual Y - sigma conditioned on Y > sigma.  Its stationary behavior has
closed structure:

* the m-dimensional invariant density is proportional to the survival
  function of the sum, ``C_m * sf(x_1 + ... + x_m)``;
* the stationary law of a single coordinate, the sum density, moments, and
  the joint Laplace transform all reduce to one-dimensional integrals of
  ``sf``.

Everything here takes an arbitrary ``LifetimeDistribution``; nothing is
specific to broadcast timing.  The chain sampler, started from the empty
history, provides an independent Monte-Carlo check of every closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quadrature import EPSABS, QuadratureError, quad

__all__ = [
    "LifetimeDistribution",
    "ChainSpec",
    "exponential",
    "uniform",
    "shifted_rayleigh",
    "stationary_cdf",
    "stationary_sf",
    "invariant_density",
    "sum_density",
    "stationary_moment",
    "laplace_transform",
    "sample_chain",
    "simplex_integral_check",
    "double_integral_check",
]


class LifetimeDistribution:
    """A nonnegative continuous lifetime, described by its CDF alone (every
    chain law here integrates its survival function `sf`).

    Parameters
    ----------
    cdf : callable
        Distribution function t -> [0, 1].
    support : (float, float)
        Closure [a, b] of the support; a >= 0, b may be ``inf``.  Outside
        it the CDF is clamped to 0/1 without calling `cdf`.
    moment : callable, optional
        j -> E[Y^j]; computed by quadrature of the survival function if
        absent (``E[Y^j] = j * int t^{j-1} sf(t) dt``).
    inverse_cdf : callable, optional
        u in (0,1) -> t; bisection on the CDF (80 iterations) if absent.
    name : str
        Used in error messages only.
    """

    def __init__(self, cdf, support=(0.0, math.inf), moment=None, inverse_cdf=None,
                 name="lifetime"):
        lo, hi = float(support[0]), float(support[1])
        if lo < 0:
            raise ValueError(f"support must be nonnegative, got lower end {lo}")
        if not hi > lo:
            raise ValueError(f"support upper end must exceed lower end, got [{lo}, {hi}]")
        self._cdf = cdf
        self.support_lo = lo
        self.support_hi = hi
        self._moment = moment
        self._inverse_cdf = inverse_cdf
        self.name = name

    def cdf(self, t: float) -> float:
        if t <= self.support_lo:
            return 0.0 if t < self.support_lo else float(self._cdf(t))
        if t >= self.support_hi:
            return 1.0
        return float(self._cdf(t))

    def sf(self, t: float) -> float:
        return 1.0 - self.cdf(t)

    def moment(self, j: int) -> float:
        """j-th raw moment; raises QuadratureError if it is not finite."""
        if j == 0:
            return 1.0
        if self._moment is not None:
            v = float(self._moment(j))
        else:
            # sf is 1 below the support: that piece is lo^j exactly.  The
            # tolerance is relative only, as a narrow lifetime's moments can
            # lie far below the default absolute one.
            lo = self.support_lo
            v = lo**j + j * quad(
                lambda s: s ** (j - 1) * self.sf(s), lo, self.support_hi, epsabs=0.0
            )
        if not math.isfinite(v):
            raise QuadratureError(f"moment {j} of {self.name} is not finite: {v}")
        return v

    def inverse_cdf(self, u: float) -> float:
        if not 0.0 < u < 1.0:
            raise ValueError(f"inverse_cdf argument must be in (0, 1), got {u}")
        if self._inverse_cdf is not None:
            return float(self._inverse_cdf(u))
        lo = self.support_lo
        hi = self.support_hi
        if math.isinf(hi):
            hi = max(lo + 1.0, 1.0)
            for _ in range(200):
                if self.cdf(hi) >= u:
                    break
                hi *= 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < u:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def exponential(rate: float = 1.0) -> LifetimeDistribution:
    """Exponential lifetime with the given rate."""
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return LifetimeDistribution(
        cdf=lambda t: -math.expm1(-rate * t),
        support=(0.0, math.inf),
        moment=lambda j: math.factorial(j) / rate**j,
        inverse_cdf=lambda u: -math.log1p(-u) / rate,
        name=f"Exp({rate:g})",
    )


def uniform(lo: float = 0.0, hi: float = 1.0) -> LifetimeDistribution:
    """Uniform lifetime on [lo, hi], lo >= 0."""
    if lo < 0 or not hi > lo:
        raise ValueError(f"need 0 <= lo < hi, got [{lo}, {hi}]")
    w = hi - lo
    return LifetimeDistribution(
        cdf=lambda t: min(1.0, max(0.0, (t - lo) / w)),
        support=(lo, hi),
        moment=lambda j: (hi ** (j + 1) - lo ** (j + 1)) / ((j + 1) * w),
        inverse_cdf=lambda u: lo + u * w,
        name=f"U({lo:g},{hi:g})",
    )


# Survival exp(-z^2/2) is exactly 0.0 in double precision past z = 38.6,
# so a shifted Rayleigh's support ends, as computed, within this many scales.
_RAYLEIGH_WIDTH = 40.0


def shifted_rayleigh(shift: float, scale: float) -> LifetimeDistribution:
    """Lifetime with survival ``exp(-(t - shift)^2 / (2 scale^2))`` past `shift`.

    Zero hazard on [0, shift], then a linearly growing hazard -- the law of
    the first broadcast in a cell where no timer can fire before the
    listen-only boundary.  Its support is declared as ``[shift, shift +
    40 scale]``, beyond which the survival underflows to zero, so integrals
    of it run over that finite stretch and not over the flat part or an
    infinite tail (a narrow law, scale << shift, is otherwise missed).
    """
    if shift < 0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")

    def cdf(t: float) -> float:
        if t <= shift:
            return 0.0
        z = (t - shift) / scale
        return -math.expm1(-0.5 * z * z)

    return LifetimeDistribution(
        cdf=cdf,
        support=(shift, shift + _RAYLEIGH_WIDTH * scale),
        inverse_cdf=lambda u: shift + scale * math.sqrt(-2.0 * math.log1p(-u)),
        name=f"ShiftedRayleigh({shift:g},{scale:g})",
    )


@dataclass(frozen=True)
class ChainSpec:
    """A residual-lifetime chain: the lifetime plus the memory depth m >= 1."""

    dist: LifetimeDistribution
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"memory depth m must be >= 1, got {self.m}")

    @cached_property
    def moment_m(self) -> float:
        """E[Y^m]; checked finite at first use."""
        return self.dist.moment(self.m)


def stationary_sf(spec: ChainSpec, y: float) -> float:
    """P(X > y) under the stationary law of one chain coordinate."""
    if not y >= 0:
        raise ValueError(f"y must be >= 0, got {y}")
    m = spec.m
    upper = spec.dist.support_hi - y
    if upper <= 0:
        return 0.0
    # sf(s + y) is 1 while s + y is below the support: that piece is exact,
    # and the quadrature starts where sf starts to fall.
    flat = max(0.0, spec.dist.support_lo - y)
    scale = m / spec.moment_m
    # The absolute tolerance applies to the result, not to the raw integral,
    # which is as small as E[Y^m] for a narrow lifetime.
    val = flat**m / m + quad(
        lambda s: spec.dist.sf(s + y) * s ** (m - 1), flat, upper, epsabs=EPSABS / scale
    )
    return min(1.0, max(0.0, scale * val))


def stationary_cdf(spec: ChainSpec, y: float) -> float:
    """Stationary distribution function of one chain coordinate.

    ``1 - (m / E[Y^m]) * int_0^inf sf(s + y) s^(m-1) ds``; monotone
    non-decreasing in y and tending to 1.  For m = 1 this is the classical
    equilibrium (overshoot) law with density ``sf(y) / E[Y]``.
    """
    return 1.0 - stationary_sf(spec, y)


def invariant_density(spec: ChainSpec, x) -> float:
    """Stationary joint density of m consecutive values at the point `x`.

    Equals ``C_m * sf(sum(x))`` with ``C_m = m! / E[Y^m]``; the density
    depends on the coordinates only through their sum.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.m,):
        raise ValueError(f"x must have exactly m={spec.m} coordinates, got shape {x.shape}")
    if not (x >= 0).all():
        raise ValueError("coordinates must be nonnegative")
    c_m = math.factorial(spec.m) / spec.moment_m
    return c_m * spec.dist.sf(float(x.sum()))


def sum_density(spec: ChainSpec, s: float) -> float:
    """Density of the sum of m consecutive stationary values:
    ``(m / E[Y^m]) * s^(m-1) * sf(s)``."""
    if not s >= 0:
        raise ValueError(f"s must be >= 0, got {s}")
    return spec.m / spec.moment_m * s ** (spec.m - 1) * spec.dist.sf(s)


def stationary_moment(spec: ChainSpec, j: int) -> float:
    """j-th raw moment of one stationary coordinate:
    ``binom(m+j, j)^-1 * E[Y^(m+j)] / E[Y^m]``."""
    if j < 1:
        raise ValueError(f"j must be a positive integer, got {j}")
    return spec.dist.moment(spec.m + j) / (math.comb(spec.m + j, j) * spec.moment_m)


def _laplace_of_lifetime(dist: LifetimeDistribution, s: float) -> float:
    # E[e^(-sY)] = 1 - s * int e^(-st) sf(t) dt, which needs only the CDF.
    return 1.0 - s * quad(lambda t: math.exp(-s * t) * dist.sf(t), 0.0, dist.support_hi)


def laplace_transform(spec: ChainSpec, s_vec, *, verify: bool = False,
                      mc_samples: int = 200_000, seed: int = 0) -> float:
    """Joint Laplace transform E[exp(-sum_i s_i X_i)] of m stationary values.

    Evaluates ``C_m * sum_i (1 - L_Y(s_i))/s_i * prod_{j!=i} (s_j - s_i)^-1``
    for distinct positive rates.  With ``verify=True`` the value is checked
    against a Monte-Carlo estimate over the sampled chain (the closed form
    has been validated this way for the built-in distributions; e.g. for
    Exp(1) it factorizes into ``prod_i 1/(1+s_i)``) and a RuntimeError is
    raised if they disagree beyond sampling error.
    """
    s = np.asarray(s_vec, dtype=float)
    if s.shape != (spec.m,):
        raise ValueError(f"need exactly m={spec.m} rates, got shape {s.shape}")
    if np.any(s <= 0):
        raise ValueError("all rates must be positive")
    if np.unique(s).size != s.size:
        raise ValueError("rates must be pairwise distinct")

    c_m = math.factorial(spec.m) / spec.moment_m
    total = 0.0
    for i in range(spec.m):
        term = (1.0 - _laplace_of_lifetime(spec.dist, s[i])) / s[i]
        for j in range(spec.m):
            if j != i:
                term /= s[j] - s[i]
        total += term
    value = c_m * total

    if verify:
        draws = sample_chain(spec, steps=mc_samples + 1000 + spec.m, burn_in=1000, seed=seed)
        windows = np.lib.stride_tricks.sliding_window_view(draws, spec.m)
        w = np.exp(-(windows @ s))
        est = float(w.mean())
        nb = 20
        batches = w[: (w.size // nb) * nb].reshape(nb, -1).mean(axis=1)
        se = float(batches.std(ddof=1) / math.sqrt(nb))
        tol = max(6.0 * se, 1e-3 * abs(value) + 1e-5)
        if abs(value - est) > tol:
            raise RuntimeError(
                f"Laplace transform mismatch: closed form {value!r} vs "
                f"Monte-Carlo {est!r} (tolerance {tol:.3g})"
            )
    return value


def sample_chain(spec: ChainSpec, steps: int, burn_in: int, seed: int) -> np.ndarray:
    """Simulate the chain; returns the `steps - burn_in` post-burn-in values.

    Uses conditional inverse-CDF sampling of the overshoot: with history
    sum sigma, the next value is ``F^-1(F(sigma) + u (1 - F(sigma))) -
    sigma`` with u uniform on (0, 1].  The chain starts from the empty
    history (m zeros), a state of every such chain; burn-in discards that
    start.  A step moves the window sum from sigma to at most the lifetime
    just drawn, so every window visited leaves mass beyond its sum.  Where
    F(sigma) rounds to 1 the step is 0 instead; for Exp(1) that skews the
    law from about m = 25 (mean 0.96 at m = 30).
    """
    if not steps > burn_in >= 0:
        raise ValueError(f"need steps > burn_in >= 0, got steps={steps}, burn_in={burn_in}")
    rng = np.random.default_rng(seed)
    dist = spec.dist
    window = [0.0] * spec.m
    out = np.empty(steps - burn_in)
    for t in range(steps):
        sigma = math.fsum(window)
        f_sigma = dist.cdf(sigma)
        p = f_sigma + (1.0 - rng.random()) * (1.0 - f_sigma)
        if p >= 1.0:
            # u = 1, or f_sigma rounded to 1: stay inside inverse_cdf's domain
            p = math.nextafter(1.0, 0.0)
        x = dist.inverse_cdf(p) - sigma
        if x < 0.0:
            x = 0.0
        if t >= burn_in:
            out[t - burn_in] = x
        window.pop(0)
        window.append(x)
    return out


def simplex_integral_check(m: int, g):
    """Self-test of the orthant-collapse identity
    ``int_{[0,inf)^(m+1)} G(sum x) dx = int x^m G(x) / m! dx``
    for m = 0, 1 or 2.

    Returns (lhs, rhs); the left side is nested quadrature.
    """
    if m not in (0, 1, 2):
        raise ValueError(f"m must be 0, 1 or 2, got {m}")
    rhs = quad(lambda x: x**m * g(x), 0.0, math.inf) / math.factorial(m)
    if m == 0:
        lhs = quad(g, 0.0, math.inf)
    elif m == 1:
        lhs = quad(lambda x: quad(lambda y: g(x + y), 0.0, math.inf), 0.0, math.inf,
                   epsabs=1e-9, epsrel=1e-7)
    else:
        lhs = quad(
            lambda x: quad(
                lambda y: quad(lambda z: g(x + y + z), 0.0, math.inf,
                               epsabs=1e-10, epsrel=1e-8),
                0.0, math.inf, epsabs=1e-9, epsrel=1e-7),
            0.0, math.inf, epsabs=1e-8, epsrel=1e-6)
    return lhs, rhs


def double_integral_check(m: int, j: int, g):
    """Self-test of the two-variable collapse
    ``int int x^j y^m G(x+y) dy dx = [ (m+1) binom(m+j+1, j) ]^-1 int z^(m+j+1) G(z) dz``.

    Returns (lhs, rhs).
    """
    if m < 0 or j < 0:
        raise ValueError(f"m and j must be >= 0, got m={m}, j={j}")
    lhs = quad(
        lambda x: x**j * quad(lambda y: y**m * g(x + y), 0.0, math.inf),
        0.0, math.inf, epsabs=1e-9, epsrel=1e-7)
    rhs = quad(lambda z: z ** (m + j + 1) * g(z), 0.0, math.inf) / (
        (m + 1) * math.comb(m + j + 1, j))
    return lhs, rhs
