import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfc, xlogy

from tricklesim import analytics as an
from tricklesim.quadrature import quad
from tricklesim.residual import ChainSpec, stationary_cdf

# Expected values below were computed independently with 50-digit
# mpmath evaluations of the defining integrals.

P50_0 = an.AnalyticParams(k=1, n=50, eta=0.0)
P50_H = an.AnalyticParams(k=1, n=50, eta=0.5)


def test_params_validation():
    for bad in (dict(k=0, n=5), dict(k=1, n=0), dict(k=1, n=5, eta=1.0001),
                dict(k=1, n=10.5), dict(k=2.0, n=5)):
        with pytest.raises(ValueError):
            an.AnalyticParams(**bad)
    for side, k in ((0, 1), (2.5, 1), (5, 1.5)):
        with pytest.raises(ValueError):
            an.GridParams(side=side, radio_range=1.0, eta=0.0, k=k)
    with pytest.raises(ValueError):
        an.GridParams(side=5, radio_range=0.0, eta=0.0, k=1)


# --------------------------------------------------------------------------
# k = 1 closed forms

def test_hazard_shape():
    assert an.hazard_unconditional(0.0, P50_H) == 0.0
    assert an.hazard_unconditional(0.49, P50_H) == 0.0
    assert an.hazard_unconditional(0.7, P50_H) == pytest.approx(50 * 0.2 / 0.5)
    assert an.hazard_unconditional(0.3, P50_0) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        an.hazard_unconditional(-0.1, P50_0)
    p1 = an.AnalyticParams(k=1, n=5, eta=1.0)
    assert an.hazard_unconditional(0.99, p1) == 0.0
    assert math.isinf(an.hazard_unconditional(1.0, p1))


def test_hazard_rejects_nan():
    for p in (P50_0, P50_H, an.AnalyticParams(k=1, n=5, eta=1.0)):
        with pytest.raises(ValueError, match="NaN"):
            an.hazard_unconditional(math.nan, p)


def test_cdf_T1_frozen_value():
    assert an.cdf_T1(0.1, P50_0) == pytest.approx(0.22119921692859513, rel=1e-14)
    assert an.cdf_T1(0.0, P50_0) == 0.0
    assert an.cdf_T1(0.5, P50_H) == 0.0
    assert an.cdf_T1(10.0, P50_0) == pytest.approx(1.0)


def test_cdf_T1_eta_one_step():
    p = an.AnalyticParams(k=1, n=9, eta=1.0)
    assert an.cdf_T1(0.999, p) == 0.0
    assert an.cdf_T1(1.0, p) == 1.0
    with pytest.raises(ValueError):
        an.pdf_T1(0.5, p)


def test_pdf_T1_is_derivative_of_cdf():
    for t in (0.05, 0.12, 0.3):
        h = 1e-7
        num = (an.cdf_T1(t + h, P50_0) - an.cdf_T1(t - h, P50_0)) / (2 * h)
        assert an.pdf_T1(t, P50_0) == pytest.approx(num, rel=1e-6)
    assert an.pdf_T1(0.2, P50_H) == 0.0


def test_mean_T1_and_mean_N1_frozen():
    assert an.mean_T1(P50_0) == pytest.approx(0.17724538509055160, rel=1e-15)
    assert an.mean_N1(P50_0) == pytest.approx(5.6418958354775629, rel=1e-15)
    assert an.mean_T1(P50_H) == pytest.approx(0.62533141373155003, rel=1e-15)
    assert an.mean_N1(P50_H) == pytest.approx(1.5991520304932135, rel=1e-15)


def test_mean_T1_matches_quadrature_of_sf():
    for p in (P50_0, P50_H):
        direct = quad(lambda t: 1.0 - an.cdf_T1(t, p), 0.0, 5.0)
        assert an.mean_T1(p) == pytest.approx(direct, rel=1e-10)


def test_conditional_cdf_T2():
    p = an.AnalyticParams(k=2, n=50, eta=0.5)
    # v = 0 reduces to the unconditional law
    for t in (0.3, 0.6, 0.9):
        assert an.conditional_cdf_T2(t, 0.0, p) == pytest.approx(
            an.cdf_T1(t, an.AnalyticParams(k=1, n=50, eta=0.5)), rel=1e-12
        )
    # continuity across v = eta
    lo = an.conditional_cdf_T2(0.4, 0.5 - 1e-12, p)
    hi = an.conditional_cdf_T2(0.4, 0.5 + 1e-12, p)
    assert lo == pytest.approx(hi, abs=1e-9)
    assert an.conditional_cdf_T2(0.1, 0.2, p) == 0.0  # still inside listen window
    with pytest.raises(ValueError):
        an.conditional_cdf_T2(0.1, 0.1, an.AnalyticParams(k=3, n=50, eta=0.5))


def test_conditional_cdf_T2_rejects_nan():
    p = an.AnalyticParams(k=2, n=50, eta=0.5)
    # v on either side of eta, and t and v NaN together
    for t, v in ((math.nan, 0.1), (math.nan, 0.6), (0.1, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="NaN"):
            an.conditional_cdf_T2(t, v, p)


# --------------------------------------------------------------------------
# normalization constant

def test_norm_const_frozen_values():
    cases = {
        (2, 50, 0.0): 5.6418958354775629,
        (3, 50, 0.0): 50.0,
        (4, 50, 0.0): 564.18958354775629,
        (2, 50, 0.5): 1.5991520304932135,
        (3, 50, 0.5): 5.0590464874063889,
        (5, 50, 0.25): 717.33024390703362,
    }
    for (k, n, eta), want in cases.items():
        got = an.norm_const(an.AnalyticParams(k=k, n=n, eta=eta))
        assert got == pytest.approx(want, rel=1e-12), (k, n, eta)


def test_norm_const_degenerate_cases():
    assert an.norm_const(an.AnalyticParams(k=1, n=7, eta=0.3)) == 1.0
    for k in (2, 3, 6):
        got = an.norm_const(an.AnalyticParams(k=k, n=11, eta=1.0))
        assert got == math.factorial(k - 1)


@pytest.mark.parametrize("k,n,eta", [(147, 2000, 0.3), (140, 2000, 0.0), (147, 2000, 0.0)])
def test_norm_const_outside_float_range_raises(k, n, eta):
    # its reciprocal underflows to a subnormal (the constant was inf) or to 0
    with pytest.raises(ArithmeticError, match=f"k={k}, n={n}, eta={eta}"):
        an.norm_const(an.AnalyticParams(k=k, n=n, eta=eta))


def test_norm_const_eta0_closed_form():
    # (2n)^((k-1)/2) Gamma(k/2) / sqrt(pi)
    for k in (2, 3, 4, 7):
        for n in (20, 50, 200):
            want = (2 * n) ** (0.5 * (k - 1)) * math.gamma(0.5 * k) / math.sqrt(math.pi)
            got = an.norm_const(an.AnalyticParams(k=k, n=n, eta=0.0))
            assert got == pytest.approx(want, rel=1e-12)


def test_norm_const_is_reciprocal_of_sigma_integral():
    # C is defined so that the gap-sum density integrates to one
    # at k=200 and 300, log C is 752 and 1151: C itself is not a float there
    for k, eta in ((2, 0.0), (3, 0.5), (5, 0.25), (8, 0.5), (200, 0.5), (300, 0.0)):
        p = an.AnalyticParams(k=k, n=20, eta=eta)
        total = quad(lambda s: an.sigma_density(s, p), 0.0, 6.0)
        assert total == pytest.approx(1.0, abs=1e-9), (k, eta)


def test_sigma_density_rejects_nan():
    for eta in (0.0, 0.5, 1.0):
        with pytest.raises(ValueError, match="NaN"):
            an.sigma_density(math.nan, an.AnalyticParams(k=3, n=20, eta=eta))
        for k in (2, 3, 5):  # inf is a valid s, where the density is 0
            assert an.sigma_density(math.inf, an.AnalyticParams(k=k, n=20, eta=eta)) == 0.0


# --------------------------------------------------------------------------
# joint/gap-sum densities and the general-k laws

def test_joint_density_exchangeable():
    p = an.AnalyticParams(k=4, n=30, eta=0.4)
    a = an.joint_density([0.05, 0.2, 0.01], p)
    b = an.joint_density([0.2, 0.01, 0.05], p)
    assert a == pytest.approx(b, rel=1e-15)
    with pytest.raises(ValueError):
        an.joint_density([0.1], p)
    with pytest.raises(ValueError):
        an.joint_density([0.1, -0.1, 0.2], p)
    with pytest.raises(ValueError):
        an.joint_density([0.1], an.AnalyticParams(k=1, n=30))


def test_joint_density_frozen_value():
    p = an.AnalyticParams(k=2, n=50, eta=0.0)
    assert an.joint_density([0.1], p) == pytest.approx(4.3939128946772240, rel=1e-12)


def test_joint_density_flat_inside_listen_window():
    p = an.AnalyticParams(k=3, n=40, eta=0.6)
    c = an.norm_const(p)
    assert an.joint_density([0.1, 0.2], p) == pytest.approx(c, rel=1e-15)
    assert an.joint_density([0.0, 0.0], p) == pytest.approx(c, rel=1e-15)


def test_joint_density_past_float_range():
    # C is e^752 here; the density is a float where C * sf_1(s) is, and
    # spread over the simplex of volume s^(k-2)/(k-2)! it is sigma_density
    k = 200
    p = an.AnalyticParams(k=k, n=20, eta=0.5)
    t = np.full(k - 1, 6.6 / (k - 1))
    s = float(t.sum())
    want = an.sigma_density(s, p) * math.exp(math.lgamma(k - 1) - (k - 2) * math.log(s))
    assert 0.0 < an.joint_density(t, p) == pytest.approx(want, rel=1e-11)


def test_pdf_T_normalizes_and_matches_cdf():
    p = an.AnalyticParams(k=3, n=50, eta=0.5)
    total = quad(lambda t: an.pdf_T(t, p), 0.0, 3.0)
    assert total == pytest.approx(1.0, abs=1e-9)
    for t in (0.1, 0.4, 0.8):
        via_pdf = quad(lambda s: an.pdf_T(s, p), 0.0, t, epsabs=1e-11, epsrel=1e-9)
        assert an.cdf_T(t, p) == pytest.approx(via_pdf, abs=1e-8)


def test_cdf_T_basics():
    p = an.AnalyticParams(k=4, n=50, eta=0.25)
    assert an.cdf_T(0.0, p) <= 1e-12
    grid = np.linspace(0.0, 2.0, 41)
    vals = [an.cdf_T(float(t), p) for t in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)
    assert an.cdf_T(0.2, an.AnalyticParams(k=1, n=50)) == an.cdf_T1(
        0.2, an.AnalyticParams(k=1, n=50)
    )
    with pytest.raises(ValueError):
        an.cdf_T(0.5, an.AnalyticParams(k=2, n=5, eta=1.0))
    for q in (p, an.AnalyticParams(k=1, n=50, eta=0.25)):
        for law in (an.cdf_T, an.pdf_T):
            for bad in (-0.5, math.nan, [0.1, -0.5], [0.1, math.nan]):
                with pytest.raises(ValueError):
                    law(bad, q)
        assert an.cdf_T(math.inf, q) == 1.0
        assert an.pdf_T(math.inf, q) == 0.0
        assert an.cdf_T([0.1, math.inf], q)[1] == 1.0
        assert an.pdf_T([0.1, math.inf], q)[1] == 0.0


@pytest.mark.parametrize("k", [1, 2, 5, 147])
def test_gap_law_array_equals_scalar_calls(k):
    # Bit for bit on a grid longer than one block of the fixed rule: a row's
    # value must not depend on the rows evaluated with it.
    p = an.AnalyticParams(k=k, n=50, eta=0.25)
    grid = np.linspace(0.0, 1.5, 150)
    for law in (an.cdf_T, an.pdf_T):
        vals = law(grid, p)
        assert vals.shape == grid.shape
        assert isinstance(law(0.3, p), float)
        assert np.array_equal(vals, [law(t, p) for t in grid.tolist()])
        assert np.array_equal(law(grid.reshape(10, 15), p), vals.reshape(10, 15))


def test_gap_law_grid_memory():
    p = an.AnalyticParams(k=100, n=50, eta=0.0)
    grid = np.linspace(0.0, 1.0, 1025)
    for law in (an.cdf_T, an.pdf_T):
        law(0.5, p)
        tracemalloc.start()
        try:
            law(grid, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, (law.__name__, peak)


def log_integral(log_f, a: float, b: float) -> float:
    """log of the integral of exp(log_f) over [a, b] by adaptive quadrature,
    the integrand divided by its largest value on an interior grid."""
    top = max(log_f(x) for x in np.linspace(a, b, 203)[1:-1].tolist())
    val = integrate.quad(lambda x: math.exp(log_f(x) - top), a, b, epsabs=0.0, epsrel=1e-13,
                         limit=400)[0]
    return top + math.log(val)


def adaptive_gap_law(t: float, p: an.AnalyticParams) -> tuple[float, float]:
    """(cdf, pdf) of the general-k gap law at `t` by adaptive quadrature in
    the scaled variable x = s/sigma, every integral kept as its logarithm and
    normalized by its own integral of the defining one, (k-2)!/C =
    eta^(k-1)/(k-1) + sigma int (eta + sigma x)^(k-2) e^(-x^2/2) dx; it does not
    use `norm_const` or its finite sum."""
    eta, n, k = p.eta, p.n, p.k
    sigma = math.sqrt((1.0 - eta) / n)
    width = 20.0 + 4.0 * math.sqrt(k)  # past each integrand's peak by 20 of its sds
    log_norm = np.logaddexp(
        xlogy(k - 1, eta) - math.log(k - 1),
        math.log(sigma)
        + log_integral(lambda x: (k - 2) * math.log(eta + sigma * x) - 0.5 * x * x, 0.0, width),
    )
    a, w = max(0.0, eta - t) / sigma, (t - eta) / sigma

    def log_g(x: float) -> float:  # s^(k-2) sf_1(s + t) at s = sigma x, over sigma^(k-2)
        return (k - 2) * math.log(x) - 0.5 * (x + w) ** 2

    log_tail = (k - 1) * math.log(sigma) + log_integral(log_g, a, a + width)
    log_dens = (k - 2) * math.log(sigma) + log_integral(
        lambda x: log_g(x) + math.log(x + w), a, a + width)
    below = xlogy(k - 1, a * sigma) - math.log(k - 1)  # log(lo^(k-1)/(k-1))
    cdf = 1.0 - math.exp(np.logaddexp(below, log_tail) - log_norm)
    return min(1.0, max(0.0, cdf)), math.exp(log_dens - log_norm)


@pytest.mark.parametrize("eta", [0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("k", [2, 3, 8, 100, 147, 200, 300])
def test_gap_law_matches_adaptive_quadrature(k, eta):
    for n in (20, 200, 2000):
        p = an.AnalyticParams(k=k, n=n, eta=eta)
        m1, m2 = an.moment_T(1, p), an.moment_T(2, p)
        grid = np.linspace(0.0, m1 + 6.0 * math.sqrt(m2 - m1 * m1), 25)
        cdf, pdf = an.cdf_T(grid, p), an.pdf_T(grid, p)
        for t, F, f in zip(grid.tolist(), cdf, pdf):
            ref_cdf, ref_pdf = adaptive_gap_law(t, p)
            assert F == pytest.approx(ref_cdf, rel=0, abs=1e-12), (n, t)
            # densities below 1e-12 are compared absolutely
            assert f == pytest.approx(ref_pdf, rel=1e-10, abs=1e-12), (n, t)


def scaled_gap_law(t: float, k: int, n: int) -> tuple[float, float]:
    """(cdf, pdf) of the eta=0 gap law at `t`, by adaptive quadrature in the
    scaled variable x = s/sigma with no absolute floor, normalized by its
    own value at t=0: F = 1 - I(u)/I(0), f = J(u)/(sigma I(0)), u = t/sigma,
    I(u) = int x^(k-2) e^(-(x+u)^2/2) dx, J(u) = int x^(k-2) (x+u) e^(-(x+u)^2/2) dx."""
    sigma = 1.0 / math.sqrt(n)
    u = t / sigma

    def integral(f):
        return integrate.quad(f, 0.0, 20.0 + 4.0 * math.sqrt(k), epsabs=0.0, epsrel=1e-13,
                              limit=400)[0]

    i0 = integral(lambda x: x ** (k - 2) * math.exp(-0.5 * x * x))
    i = integral(lambda x: x ** (k - 2) * math.exp(-0.5 * (x + u) ** 2))
    j = integral(lambda x: x ** (k - 2) * (x + u) * math.exp(-0.5 * (x + u) ** 2))
    return 1.0 - i / i0, j / (sigma * i0)


@pytest.mark.parametrize("n", [200, 2000])
@pytest.mark.parametrize("k", [8, 12, 16, 32])
def test_gap_law_large_k_eta0(k, n):
    # c = C/(k-2)! reaches 1e19 here, so the quadrature's absolute
    # tolerance must bound the returned value, not the raw integral
    p = an.AnalyticParams(k=k, n=n, eta=0.0)
    m1, m2 = an.moment_T(1, p), an.moment_T(2, p)
    for t in np.linspace(0.0, m1 + 6.0 * math.sqrt(m2 - m1 * m1), 25).tolist():
        cdf, pdf = scaled_gap_law(t, k, n)
        assert an.cdf_T(t, p) == pytest.approx(cdf, rel=0, abs=1e-10), t
        assert an.pdf_T(t, p) == pytest.approx(pdf, rel=1e-8, abs=0), t


def test_moment_T_frozen_values():
    assert an.moment_T(1, an.AnalyticParams(k=2, n=50)) == pytest.approx(
        0.11283791670955126, rel=1e-12
    )
    assert an.moment_T(2, an.AnalyticParams(k=2, n=50)) == pytest.approx(0.02, rel=1e-12)
    assert an.moment_T(3, an.AnalyticParams(k=3, n=50)) == pytest.approx(
        0.0026586807763582740, rel=1e-12
    )
    assert an.moment_T(0, P50_0) == 1.0
    with pytest.raises(ValueError):
        an.moment_T(-1, P50_0)


def test_moment_T_against_closed_eta0_everywhere():
    for k in (1, 2, 3, 5, 9):
        for n in (20, 100):
            p = an.AnalyticParams(k=k, n=n, eta=0.0)
            for j in (1, 2, 3, 4):
                assert an.moment_T(j, p) == pytest.approx(
                    an.moment_T_closed_eta0(j, p), rel=1e-11
                ), (k, n, j)
    with pytest.raises(ValueError):
        an.moment_T_closed_eta0(1, P50_H)


def test_moment_T_against_pdf_quadrature():
    p = an.AnalyticParams(k=3, n=50, eta=0.5)
    for j in (1, 2):
        direct = quad(lambda t: t**j * an.pdf_T(t, p), 0.0, 3.0, epsabs=1e-12, epsrel=1e-10)
        assert an.moment_T(j, p) == pytest.approx(direct, rel=1e-8)


def test_moment_limit_eta_pos():
    assert an.moment_T_limit_eta_pos(1, 2, 0.5) == pytest.approx(0.25, rel=1e-15)
    assert an.moment_T_limit_eta_pos(2, 3, 0.5) == pytest.approx(1.0 / 24.0, rel=1e-15)
    # finite-n moments approach the limit as the cell grows
    for j, k in ((1, 2), (2, 3)):
        lim = an.moment_T_limit_eta_pos(j, k, 0.5)
        got = an.moment_T(j, an.AnalyticParams(k=k, n=10**6, eta=0.5))
        assert got == pytest.approx(lim, rel=1e-2)
    with pytest.raises(ValueError):
        an.moment_T_limit_eta_pos(1, 2, 0.0)


def test_mean_N_frozen_tables():
    eta0 = {
        (1, 20): 3.5682482323055422,
        (1, 50): 5.6418958354775629,
        (1, 100): 7.9788456080286536,
        (2, 20): 5.6049912163979287,
        (2, 50): 8.8622692545275801,
        (2, 100): 12.533141373155003,
        (3, 20): 7.1364964646110845,
        (3, 50): 11.283791670955126,
        (3, 100): 15.957691216057307,
    }
    for (k, n), want in eta0.items():
        got = an.mean_N(an.AnalyticParams(k=k, n=n, eta=0.0))
        assert got == pytest.approx(want, rel=1e-12), (k, n)
    half = {
        (1, 20): 1.4323233691893025,
        (1, 50): 1.5991520304932135,
        (1, 100): 1.6988811553898456,
        (2, 20): 2.8029446148900720,
        (2, 50): 3.1635806921034694,
        (2, 100): 3.3768466891685835,
        (3, 20): 4.1115584946141114,
        (3, 50): 4.6922031444082866,
        (3, 100): 5.0331395538250539,
    }
    for (k, n), want in half.items():
        got = an.mean_N(an.AnalyticParams(k=k, n=n, eta=0.5))
        assert got == pytest.approx(want, rel=1e-12), (k, n)
        assert got < 2 * k  # ceiling k/eta


def test_mean_N_is_reciprocal_mean_gap():
    for k, eta in ((1, 0.0), (3, 0.5), (5, 0.25)):
        p = an.AnalyticParams(k=k, n=35, eta=eta)
        assert an.mean_N(p) == pytest.approx(1.0 / an.moment_T(1, p), rel=1e-12)


def test_mean_N_monotone_in_n():
    for eta in (0.0, 0.5):
        vals = [an.mean_N(an.AnalyticParams(k=2, n=n, eta=eta)) for n in (10, 40, 160, 640)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_mean_N_asymptotic():
    # at eta = 0 the large-n expression coincides with the exact ratio
    for k in (1, 2, 3, 6):
        for n in (20, 100):
            p = an.AnalyticParams(k=k, n=n, eta=0.0)
            assert an.mean_N_asymptotic(p) == pytest.approx(an.mean_N(p), rel=1e-12)
    # at eta > 0 it converges to the ratio from below
    p_big = an.AnalyticParams(k=2, n=10**6, eta=0.5)
    assert an.mean_N_asymptotic(p_big) == pytest.approx(an.mean_N(p_big), rel=1e-3)
    assert an.mean_N_asymptotic(P50_H) == pytest.approx(1.4986743450738, rel=1e-12)


# --------------------------------------------------------------------------
# limit laws

def test_limiting_pdf_eta_pos_is_beta():
    k, eta = 4, 0.5
    total = quad(lambda t: an.limiting_pdf_eta_pos(t, k, eta), 0.0, eta)
    assert total == pytest.approx(1.0, rel=1e-10)
    assert an.limiting_pdf_eta_pos(0.6, k, eta) == 0.0
    assert an.limiting_pdf_eta_pos(0.1, 2, 0.5) == pytest.approx(2.0)  # flat for k=2
    with pytest.raises(ValueError):
        an.limiting_pdf_eta_pos(0.1, 1, 0.5)
    with pytest.raises(ValueError):
        an.limiting_pdf_eta_pos(0.1, 3, 0.0)


def test_limiting_pdf_eta_pos_rejects_nan():
    for k, eta in ((2, 0.5), (3, 0.5), (4, 1.0)):
        with pytest.raises(ValueError, match="NaN"):
            an.limiting_pdf_eta_pos(math.nan, k, eta)


def test_limiting_pdf_eta0_closed_values():
    assert an.limiting_pdf_eta0(0.0, 2) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-15)
    assert an.limiting_pdf_eta0(0.0, 3) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert an.limiting_pdf_eta0(0.0, 4) == pytest.approx(2.2567583341910251, rel=1e-12)
    assert an.limiting_pdf_eta0(0.7, 4) == pytest.approx(0.48039306356584887, rel=1e-10)
    assert an.limiting_pdf_eta0(0.7, 5) == pytest.approx(0.40959964099060804, rel=1e-10)


def test_limiting_pdf_eta0_arrays_and_validation():
    t = np.linspace(0.0, 2.0, 9)
    vals = an.limiting_pdf_eta0(t, 6)
    assert vals.shape == t.shape
    assert isinstance(an.limiting_pdf_eta0(0.5, 6), float)
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError):
            an.limiting_pdf_eta0(bad, 4)
    with pytest.raises(ValueError):
        an.limiting_pdf_eta0(0.1, 1)


def test_limiting_pdf_eta0_normalizes():
    for k in (2, 5, 8):
        total = quad(lambda t: float(an.limiting_pdf_eta0(t, k)), 0.0, 8.0)
        assert total == pytest.approx(1.0, abs=1e-8), k


def test_limiting_exp_checks_structure():
    rows = an.limiting_exp_checks(16, 2000, 0.0)
    assert [r[0] for r in rows] == [1, 2, 3]
    assert rows[0][1] == pytest.approx(1.0157374237913089, rel=1e-10)
    assert rows[1][1] == pytest.approx(2.0, rel=1e-10)
    assert rows[2][1] == pytest.approx(5.7359289814097446, rel=1e-10)
    assert [r[2] for r in rows] == [1.0, 2.0, 6.0]
    # eta > 0 scaling approaches the same factorial pattern for large k
    for j, scaled, target in an.limiting_exp_checks(40, 10**7, 0.5):
        assert scaled == pytest.approx(target, rel=0.2)


# --------------------------------------------------------------------------
# bridge to the residual-chain library

def test_first_transmission_lifetime_matches_cdf():
    for eta in (0.0, 0.5):
        p = an.AnalyticParams(k=1, n=50, eta=eta)
        life = an.first_transmission_lifetime(p)
        for t in (0.05, 0.2, 0.6, 1.0):
            assert 1.0 - life.sf(t) == pytest.approx(an.cdf_T1(t, p), rel=1e-12)
    with pytest.raises(ValueError):
        an.first_transmission_lifetime(an.AnalyticParams(k=1, n=50, eta=1.0))


def test_gap_law_equals_residual_chain_law():
    p = an.AnalyticParams(k=3, n=50, eta=0.5)
    spec = ChainSpec(an.first_transmission_lifetime(p), m=p.k - 1)
    for t in (0.0, 0.1, 0.3, 0.6, 1.0):
        assert an.cdf_T(t, p) == pytest.approx(stationary_cdf(spec, t), abs=1e-8)


@pytest.mark.parametrize(
    "k,n,eta",
    [(5, 445, 0.0), (3, 465, 0.5), (2, 213, 0.75), (2, 500, 0.0), (3, 120, 0.25),
     (4, 300, 0.75), (5, 500, 0.5), (8, 500, 0.0), (6, 400, 0.9)],
)
def test_gap_law_equals_residual_chain_law_narrow(k, n, eta):
    # C7 (1e-6) at cell sizes where the first-transmission lifetime is
    # narrow: scale sqrt((1-eta)/n) far below its shift eta, or below 0.05.
    # Both sides are quadratures good to about 1e-13 here, so the bound
    # keeps a wide margin under C7's.
    p = an.AnalyticParams(k=k, n=n, eta=eta)
    spec = ChainSpec(an.first_transmission_lifetime(p), m=k - 1)
    m1, m2 = an.moment_T(1, p), an.moment_T(2, p)
    grid = np.linspace(0.0, m1 + 8.0 * math.sqrt(m2 - m1 * m1), 1025)[::16]
    worst = max(abs(an.cdf_T(float(t), p) - stationary_cdf(spec, float(t))) for t in grid)
    assert worst <= 1e-10


# --------------------------------------------------------------------------
# grid estimate

def test_multicell_estimate_collapses_to_single_cell():
    # a range covering the whole torus makes the grid one big cell
    g = an.GridParams(side=5, radio_range=10.0, eta=0.0, k=2)
    est = an.multicell_estimate(g, s_cell=25)
    assert est == pytest.approx(an.mean_N(an.AnalyticParams(k=2, n=25, eta=0.0)), rel=1e-12)
    with pytest.raises(ValueError):
        an.multicell_estimate(g, s_cell=0)


def test_multicell_large_range_agrees_for_big_r():
    from tricklesim.topology import Grid, cell_size

    # the closed asymptote drops O(1/sqrt(S k)) terms, so push S high enough
    # that the residual correction sits well inside the tolerance
    side, r = 400, 80.0
    s = cell_size(Grid(side=side, radio_range=r))
    for eta in (0.0, 0.5):
        g = an.GridParams(side=side, radio_range=r, eta=eta, k=2)
        full = an.multicell_estimate(g, s)
        approx = an.multicell_large_range(g)
        assert approx == pytest.approx(full, rel=0.02), eta


def test_multicell_ratio():
    g = an.GridParams(side=50, radio_range=8.0, eta=0.0, k=4)
    est = an.multicell_estimate(g, 197)
    assert an.multicell_ratio(1.03 * est, g, 197) == pytest.approx(1.03, rel=1e-12)
    with pytest.raises(ValueError):
        an.multicell_ratio(0.0, g, 197)
