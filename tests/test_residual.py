import math

import numpy as np
import pytest
from scipy.stats import kstest

from tricklesim.quadrature import QuadratureError, quad
from tricklesim.residual import (
    ChainSpec,
    LifetimeDistribution,
    double_integral_check,
    exponential,
    invariant_density,
    laplace_transform,
    sample_chain,
    shifted_rayleigh,
    simplex_integral_check,
    stationary_cdf,
    stationary_moment,
    stationary_sf,
    sum_density,
    uniform,
)


# --------------------------------------------------------------------------
# lifetime constructors and fallbacks

def test_exponential_basics():
    d = exponential(1.0)
    assert 1.0 - d.sf(math.log(2.0)) == pytest.approx(0.5, rel=1e-14)
    assert d.sf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    for j in (1, 2, 3, 4):
        assert d.moment(j) == math.factorial(j)
    assert d.inverse_sf(1 - 0.5) == pytest.approx(math.log(2.0), rel=1e-14)
    with pytest.raises(ValueError):
        exponential(0.0)


def test_uniform_basics():
    d = uniform(0.0, 2.0)
    assert 1.0 - d.sf(0.5) == 0.25
    assert 1.0 - d.sf(-1.0) == 0.0 and 1.0 - d.sf(3.0) == 1.0
    assert d.moment(1) == pytest.approx(1.0)
    assert d.moment(2) == pytest.approx(4.0 / 3.0)
    assert d.inverse_sf(1 - 0.75) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        uniform(-1.0, 1.0)


def test_shifted_rayleigh_basics():
    d = shifted_rayleigh(shift=0.5, scale=0.1)
    assert 1.0 - d.sf(0.5) == 0.0
    assert d.sf(0.6) == pytest.approx(math.exp(-0.5), rel=1e-14)
    u = 1.0 - d.sf(0.73)
    assert d.inverse_sf(1 - u) == pytest.approx(0.73, rel=1e-12)
    with pytest.raises(ValueError):
        shifted_rayleigh(shift=-0.1, scale=1.0)
    with pytest.raises(ValueError):
        shifted_rayleigh(shift=0.0, scale=0.0)


@pytest.mark.parametrize(
    "shift,scale,j", [(0.0, 0.022, 11), (0.0, 0.005, 9), (0.5, 0.01, 3), (0.75, 0.02, 6)]
)
def test_shifted_rayleigh_moments_of_narrow_laws(shift, scale, j):
    # E[(shift + R)^j] with E[R^i] = scale^i 2^(i/2) Gamma(1 + i/2) for a
    # Rayleigh R; these moments lie far below quad's default absolute
    # tolerance, so they hold only to the relative one
    exact = sum(math.comb(j, i) * shift ** (j - i) * scale**i * 2 ** (i / 2)
                * math.gamma(1 + i / 2) for i in range(j + 1))
    assert shifted_rayleigh(shift, scale).moment(j) == pytest.approx(exact, rel=1e-9, abs=0.0)


def test_lifetime_moment_fallback():
    # Exp(1) given no moment: the moments come from quadrature of sf
    bare = LifetimeDistribution(sf=lambda t: math.exp(-t), inverse_sf=lambda q: -math.log(q),
                                name="bare-exp")
    assert bare.moment(2) == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(ValueError):
        LifetimeDistribution(sf=lambda t: 1.0 - t, inverse_sf=lambda q: 1.0 - q,
                             support=(-1.0, 1.0))
    with pytest.raises(ValueError):
        LifetimeDistribution(sf=lambda t: 1.0 - t, inverse_sf=lambda q: 1.0 - q,
                             support=(1.0, 1.0))


def test_heavy_tail_moment_raises():
    # sf(t) = 1/(1+t) has no finite mean; quadrature must refuse, not hang
    d = LifetimeDistribution(sf=lambda t: 1.0 / (1.0 + t), inverse_sf=lambda q: 1.0 / q - 1.0,
                             name="heavy")
    with pytest.raises(QuadratureError):
        d.moment(1)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(exponential(1.0), 0)
    assert ChainSpec(exponential(1.0), 2).moment_m == 2.0


@pytest.mark.parametrize("make", [
    lambda: ChainSpec(exponential(1.0), 2.0),
    lambda: ChainSpec(exponential(1.0), 1.5),
    lambda: exponential(math.inf),
    lambda: uniform(0.0, math.inf),
    lambda: shifted_rayleigh(0.0, math.inf),
], ids=["m_float", "m_fraction", "exp_inf_rate", "uniform_inf_hi", "rayleigh_inf_scale"])
def test_bad_lifetime_and_chain_parameters_raise_value_error(make):
    with pytest.raises(ValueError):
        make()


# --------------------------------------------------------------------------
# stationary law

@pytest.mark.parametrize("m", [1, 2, 3])
def test_exponential_is_fixed_point(m):
    # memorylessness: the stationary coordinate law is Exp(1) for every m
    spec = ChainSpec(exponential(1.0), m)
    for y in np.linspace(0.0, 4.0, 17):
        want = -math.expm1(-y)
        assert stationary_cdf(spec, float(y)) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("m", [8, 10])
def test_exponential_fixed_point_at_deep_memory(m):
    # the integrand sf(s + y) s^(m-1) must stay exact far into the tail, or
    # quadrature of it runs out of subdivisions
    spec = ChainSpec(exponential(1.0), m)
    for y in np.linspace(0.0, 12.0, 49):
        y = float(y)
        assert stationary_sf(spec, y) == pytest.approx(math.exp(-y), rel=0, abs=1e-12)
        assert stationary_cdf(spec, y) == pytest.approx(-math.expm1(-y), rel=0, abs=1e-12)


def test_uniform_stationary_closed_forms():
    m1 = ChainSpec(uniform(0.0, 1.0), 1)
    m2 = ChainSpec(uniform(0.0, 1.0), 2)
    assert stationary_cdf(m1, 0.3) == pytest.approx(0.51, abs=1e-10)
    assert stationary_cdf(m2, 0.3) == pytest.approx(0.657, abs=1e-10)
    for y in np.linspace(0.0, 1.0, 11):
        assert stationary_cdf(m1, float(y)) == pytest.approx(
            1.0 - (1.0 - y) ** 2, abs=1e-10
        )
        assert stationary_cdf(m2, float(y)) == pytest.approx(
            1.0 - (1.0 - y) ** 3, abs=1e-10
        )
    assert stationary_sf(m1, 2.0) == 0.0  # beyond the support
    with pytest.raises(ValueError):
        stationary_sf(m1, -0.5)


def test_stationary_moments_closed_values():
    u1 = ChainSpec(uniform(0.0, 1.0), 1)
    u2 = ChainSpec(uniform(0.0, 1.0), 2)
    assert stationary_moment(u1, 1) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert stationary_moment(u1, 2) == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert stationary_moment(u1, 3) == pytest.approx(0.1, rel=1e-12)
    assert stationary_moment(u2, 1) == pytest.approx(0.25, rel=1e-12)
    assert stationary_moment(u2, 2) == pytest.approx(0.1, rel=1e-12)
    assert stationary_moment(u2, 3) == pytest.approx(0.05, rel=1e-12)
    for m in (1, 2, 3):
        e = ChainSpec(exponential(1.0), m)
        for j in (1, 2, 3):
            assert stationary_moment(e, j) == pytest.approx(math.factorial(j), rel=1e-12)
    with pytest.raises(ValueError):
        stationary_moment(u1, 0)


def test_stationary_moment_matches_tail_quadrature():
    spec = ChainSpec(uniform(0.0, 1.0), 2)
    for j in (1, 2):
        direct = quad(lambda y: j * y ** (j - 1) * stationary_sf(spec, y), 0.0, 1.0)
        assert stationary_moment(spec, j) == pytest.approx(direct, rel=1e-9)


def test_invariant_density():
    spec = ChainSpec(exponential(1.0), 2)
    # C_2 = 2!/E[Y^2] = 1, so the joint density is exp(-(x1+x2))
    assert invariant_density(spec, [0.4, 0.6]) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert invariant_density(spec, [1.0, 0.0]) == invariant_density(spec, [0.0, 1.0])
    with pytest.raises(ValueError):
        invariant_density(spec, [0.4])
    with pytest.raises(ValueError):
        invariant_density(spec, [0.4, -0.1])


def test_sum_density():
    spec = ChainSpec(exponential(1.0), 2)
    # Exp(1), m=2: the stationary pair is iid Exp(1), so the sum is
    # Gamma(2, 1) with density s * exp(-s).
    assert sum_density(spec, 1.2) == pytest.approx(0.36143305429464252, rel=1e-12)
    total = quad(lambda s: sum_density(spec, s), 0.0, math.inf)
    assert total == pytest.approx(1.0, rel=1e-9)
    with pytest.raises(ValueError):
        sum_density(spec, -1.0)


@pytest.mark.parametrize("law,arg", [
    (stationary_sf, math.nan),
    (stationary_cdf, math.nan),
    (sum_density, math.nan),
    (invariant_density, [0.4, math.nan]),
], ids=["stationary_sf", "stationary_cdf", "sum_density", "invariant_density"])
def test_laws_reject_nan(law, arg):
    with pytest.raises(ValueError):
        law(ChainSpec(exponential(1.0), 2), arg)


# --------------------------------------------------------------------------
# Laplace transform

def test_laplace_transform_exponential_factorizes():
    for m, rates in ((1, [0.7]), (2, [1.0, 2.0]), (3, [0.5, 1.3, 2.9])):
        spec = ChainSpec(exponential(1.0), m)
        got = laplace_transform(spec, rates)
        want = math.prod(1.0 / (1.0 + s) for s in rates)
        assert got == pytest.approx(want, rel=1e-9), m
    spec2 = ChainSpec(exponential(1.0), 2)
    assert laplace_transform(spec2, [1.0, 2.0]) == pytest.approx(1.0 / 6.0, rel=1e-9)


def test_laplace_transform_validation():
    spec = ChainSpec(exponential(1.0), 2)
    with pytest.raises(ValueError):
        laplace_transform(spec, [1.0])
    with pytest.raises(ValueError):
        laplace_transform(spec, [1.0, 1.0])
    with pytest.raises(ValueError):
        laplace_transform(spec, [1.0, -2.0])


def test_laplace_transform_verify_path():
    spec = ChainSpec(uniform(0.0, 1.0), 2)
    val = laplace_transform(spec, [0.5, 1.5], verify=True, mc_samples=40_000, seed=3)
    assert 0.0 < val < 1.0


def test_laplace_transform_verify_catches_bad_moment():
    # a lifetime whose claimed E[Y^m] contradicts its sf must be caught by
    # the Monte-Carlo cross-check
    lying = LifetimeDistribution(
        sf=lambda t: math.exp(-t),
        inverse_sf=lambda q: -math.log(q),
        moment=lambda j: 2.0 * math.factorial(j),
        name="lying-exp",
    )
    spec = ChainSpec(lying, 1)
    with pytest.raises(RuntimeError, match="mismatch"):
        laplace_transform(spec, [1.0], verify=True, mc_samples=30_000, seed=0)


# --------------------------------------------------------------------------
# chain sampler

def test_sample_chain_matches_stationary_law():
    spec = ChainSpec(exponential(1.0), 1)
    draws = sample_chain(spec, steps=31_000, burn_in=1000, seed=11)
    assert draws.size == 30_000
    assert kstest(draws, lambda y: 1.0 - np.exp(-np.asarray(y))).statistic < 0.025


def test_sample_chain_uniform_m2():
    spec = ChainSpec(uniform(0.0, 1.0), 2)
    draws = sample_chain(spec, steps=21_000, burn_in=1000, seed=12)
    grid = np.linspace(0.0, 1.0, 201)
    vals = np.array([stationary_cdf(spec, float(y)) for y in grid])
    assert kstest(draws, lambda y: np.interp(y, grid, vals)).statistic < 0.03
    assert np.all(draws >= 0.0) and np.all(draws <= 1.0)


def test_sample_chain_narrow_uniform_m2():
    # two independent U(0.9, 1) draws always sum past the support end, but
    # the chain from the empty history lives on windows that sum below it
    spec = ChainSpec(uniform(0.9, 1.0), 2)
    draws = sample_chain(spec, steps=161_000, burn_in=1000, seed=13)
    grid = np.linspace(0.0, 1.0, 201)
    vals = np.array([stationary_cdf(spec, float(y)) for y in grid])
    assert kstest(draws, lambda y: np.interp(y, grid, vals)).statistic < 0.015
    assert abs(draws.mean() - stationary_moment(spec, 1)) < 5e-4


def test_sample_chain_starts_from_empty_history():
    # the first value is a whole lifetime, drawn at u = 1 - rng.random()
    dist = uniform(0.5, 1.0)
    for seed in (0, 1, 2, 3):
        first = sample_chain(ChainSpec(dist, 2), steps=1, burn_in=0, seed=seed)[0]
        assert first == dist.inverse_sf(1.0 - np.random.default_rng(seed).random())


def test_sample_chain_deep_memory_exponential():
    # Exp(1) is the stationary law at every m; the step must resolve a
    # survival far below one ulp of 1
    draws = sample_chain(ChainSpec(exponential(1.0), 30), steps=51_000, burn_in=1000, seed=1)
    assert kstest(draws, lambda y: 1.0 - np.exp(-np.asarray(y))).statistic < 0.01
    assert abs(draws.mean() - 1.0) < 0.01
    assert not np.any(draws == 0.0)


def test_sample_chain_where_sf_underflows():
    # 800 Exp(1) values sum past 745, where sf underflows to 0: the step is 0
    # there instead of raising in log(0)
    draws = sample_chain(ChainSpec(exponential(1.0), 800), steps=3000, burn_in=0, seed=1)
    assert np.all(draws >= 0.0) and np.all(np.isfinite(draws))
    assert np.any(draws == 0.0)


def test_sample_chain_clamps_rounded_inverse():
    # an inverse that lands slightly short of sigma gives a clamped 0 step,
    # never a negative value
    short = LifetimeDistribution(sf=lambda t: math.exp(-t),
                                 inverse_sf=lambda q: -math.log(q) * 0.999, name="short-exp")
    draws = sample_chain(ChainSpec(short, 3), steps=10_000, burn_in=0, seed=1)
    assert np.all(draws >= 0.0)
    assert np.any(draws == 0.0)


def test_sample_chain_validation_and_m3_run():
    spec = ChainSpec(uniform(0.0, 1.0), 3)
    with pytest.raises(ValueError):
        sample_chain(spec, steps=5, burn_in=5, seed=0)
    draws = sample_chain(spec, steps=40, burn_in=0, seed=1)
    assert draws.size == 40 and np.all(draws >= 0.0) and np.all(draws <= 1.0)


# --------------------------------------------------------------------------
# collapse identities

def test_simplex_integral_check_quadrature_regime():
    for m in (0, 1, 2):
        lhs, rhs = simplex_integral_check(m, lambda x: math.exp(-x))
        assert lhs == pytest.approx(rhs, abs=1e-5), m
        assert rhs == pytest.approx(1.0, rel=1e-8)  # int x^m e^-x / m! = 1


def test_simplex_integral_check_rejects_m_outside_0_to_2():
    for m in (-1, 3):
        with pytest.raises(ValueError):
            simplex_integral_check(m, math.exp)


def test_double_integral_check():
    for m, j in ((1, 1), (0, 2), (2, 1)):
        lhs, rhs = double_integral_check(m, j, lambda x: math.exp(-x))
        assert lhs == pytest.approx(rhs, rel=1e-6), (m, j)
    # closed value for m = j = 1: int int x y e^-(x+y) collapses to
    # Gamma(4)/(2*3) = 1
    lhs, rhs = double_integral_check(1, 1, lambda x: math.exp(-x))
    assert rhs == pytest.approx(1.0, rel=1e-8)
    with pytest.raises(ValueError):
        double_integral_check(1, -1, math.exp)
