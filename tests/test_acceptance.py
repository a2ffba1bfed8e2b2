"""Acceptance gate: one test per published claim, at the stated tolerance.

Each test prints a single ``ACCEPTANCE <id> ...: <detail> -> PASS/FAIL``
line (visible with ``pytest -s``) and asserts the same condition, so the
per-criterion verdicts also appear as ordinary test results.  The sizes
here are the reduced CI profile; the full-size runs use the CLI's
``--profile paper``.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from tricklesim import analytics as an
from tricklesim import residual as rm
from tricklesim.cli import _analytic_cdf_callable, main as cli_main
from tricklesim.core import TrickleConfig
from tricklesim.engine import SimRunConfig, replicate, run
from tricklesim.quadrature import quad
from tricklesim.topology import Grid, SingleCell, cell_size

SCALING_GRID = [(k, n) for k in (1, 2, 3) for n in (20, 50, 100)]


def report(cid, title, detail, ok):
    print(f"ACCEPTANCE {cid} {title}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"{cid} {title}: {detail}"


def cell(k, n, eta, seed, duration=110.0):
    return SimRunConfig(
        trickle=TrickleConfig(k=k, tau_l=1.0, tau_h=1.0, eta=eta),
        topology=SingleCell(n),
        duration=duration,
        warmup=10.0,
        seed=seed,
    )


def test_c01_scaling_law_eta0():
    # mean transmissions per interval vs sqrt(2n)*Gamma((k+1)/2)/Gamma(k/2):
    # within 10%, and the analytic value is conservative up to the 95% CI
    worst_rel, worst_gap = 0.0, -math.inf
    for k, n in SCALING_GRID:
        pooled = replicate(cell(k, n, 0.0, seed=101), 200)
        mean, ci = pooled.mean, pooled.ci_halfwidth
        analytic = an.mean_N_asymptotic(an.AnalyticParams(k=k, n=n, eta=0.0))
        worst_rel = max(worst_rel, abs(mean - analytic) / analytic)
        worst_gap = max(worst_gap, analytic - mean - ci)
    ok = worst_rel <= 0.10 and worst_gap <= 0.0
    report(
        "C1",
        "scaling law at eta=0",
        f"max rel dev {worst_rel:.4f} (<=0.10), max conservative excess "
        f"{worst_gap:.4f} (<=0)",
        ok,
    )


def test_c02_bounded_count_eta_half():
    # mean below the k/eta = 2k ceiling everywhere and within 10% of the
    # exact normalization-constant ratio
    worst_rel, ceiling_ok = 0.0, True
    for k, n in SCALING_GRID:
        mean = replicate(cell(k, n, 0.5, seed=102), 200).mean
        ratio = an.mean_N(an.AnalyticParams(k=k, n=n, eta=0.5))
        worst_rel = max(worst_rel, abs(mean - ratio) / ratio)
        ceiling_ok = ceiling_ok and mean < 2 * k
    ok = worst_rel <= 0.10 and ceiling_ok
    report(
        "C2",
        "bounded count at eta=1/2",
        f"max rel dev {worst_rel:.4f} (<=0.10), all means below 2k: {ceiling_ok}",
        ok,
    )


def test_c03_gap_distribution_k1():
    details, ok = [], True
    for eta, reps in ((0.0, 25), (0.5, 70)):
        p = an.AnalyticParams(k=1, n=50, eta=eta)
        gaps = replicate(cell(1, 50, eta, seed=103), reps).gaps
        ks = stats.kstest(gaps, lambda t: an.cdf_T1(t, p)).statistic
        details.append(f"eta={eta:g}: {gaps.size} gaps KS={ks:.4f}")
        ok = ok and gaps.size >= 10_000 and ks <= 0.05
    report("C3", "k=1 gap law (n=50)", "; ".join(details) + " (<=0.05)", ok)


def test_c04_gap_distribution_k3():
    details, ok = [], True
    for eta, reps in ((0.0, 10), (0.5, 24)):
        p = an.AnalyticParams(k=3, n=50, eta=eta)
        gaps = replicate(cell(3, 50, eta, seed=104), reps).gaps
        ks = stats.kstest(gaps, _analytic_cdf_callable(p, float(gaps.max()))).statistic
        details.append(f"eta={eta:g}: {gaps.size} gaps KS={ks:.4f}")
        ok = ok and gaps.size >= 10_000 and ks <= 0.05
    report("C4", "k=3 gap law (n=50)", "; ".join(details) + " (<=0.05)", ok)


def test_c05_attempt_process_poisson():
    details, ok = [], True
    for eta in (0.0, 0.5):
        # The fires depend only on (seed, node), and at k = 2n + 1 no fire is
        # suppressed, so the transmissions are the attempts.
        cfg = SimRunConfig(
            trickle=TrickleConfig(k=2 * 200 + 1, tau_l=1.0, tau_h=1.0, eta=eta),
            topology=SingleCell(200),
            duration=520.0,
            warmup=10.0,
            seed=105,
        )
        scaled = np.diff(run(cfg).transmission_times) * 200
        ks = stats.kstest(scaled, "expon").statistic
        details.append(f"eta={eta:g}: {scaled.size + 1} attempts KS={ks:.4f}")
        ok = ok and scaled.size + 1 >= 100_000 and ks <= 0.02
    report("C5", "attempt process vs Exp(1) (n=200)", "; ".join(details) + " (<=0.02)", ok)


def test_c06_residual_chain_oracles():
    parts, ok = [], True
    ygrid = np.linspace(0.0, 4.0, 17)

    err_exp = max(
        abs(rm.stationary_cdf(rm.ChainSpec(rm.exponential(1.0), m), float(y)) - (-math.expm1(-y)))
        for m in (1, 2, 3)
        for y in ygrid
    )
    parts.append(f"exp fixed point {err_exp:.2e}")
    ok = ok and err_exp <= 1e-8

    u1 = rm.ChainSpec(rm.uniform(0.0, 1.0), 1)
    err_u = max(
        abs(rm.stationary_cdf(u1, float(y)) - (1.0 - (1.0 - y) ** 2))
        for y in np.linspace(0.0, 1.0, 11)
    )
    parts.append(f"uniform m=1 {err_u:.2e}")
    ok = ok and err_u <= 1e-8

    draws = rm.sample_chain(rm.ChainSpec(rm.exponential(1.0), 1), 101_000, 1000, seed=106)
    ks = stats.kstest(draws, lambda y: 1.0 - np.exp(-np.asarray(y))).statistic
    parts.append(f"sampler KS {ks:.4f}")
    ok = ok and ks <= 0.02

    lhs, rhs = rm.simplex_integral_check(2, lambda x: math.exp(-x))
    err_s = abs(lhs - rhs)
    lhs, rhs = rm.double_integral_check(1, 1, lambda x: math.exp(-x))
    err_d = abs(lhs - rhs)
    parts.append(f"collapse identities {max(err_s, err_d):.2e}")
    ok = ok and err_s <= 1e-6 and err_d <= 1e-6

    spec = rm.ChainSpec(rm.exponential(1.0), 2)
    err_m = 0.0
    for j in (1, 2):
        closed = rm.stationary_moment(spec, j)
        direct = quad(lambda y: j * y ** (j - 1) * rm.stationary_sf(spec, y), 0.0, math.inf)
        err_m = max(err_m, abs(closed - direct) / closed)
    parts.append(f"moment vs quadrature {err_m:.2e}")
    ok = ok and err_m <= 1e-6

    report("C6", "residual-chain oracles", "; ".join(parts), ok)


def test_c07_module_equivalence():
    worst = 0.0
    tgrid = np.linspace(0.0, 1.2, 25)
    for k in (2, 3, 5):
        for eta in (0.0, 0.5):
            p = an.AnalyticParams(k=k, n=50, eta=eta)
            spec = rm.ChainSpec(an.first_transmission_lifetime(p), m=k - 1)
            for t in tgrid:
                worst = max(
                    worst, abs(an.cdf_T(float(t), p) - rm.stationary_cdf(spec, float(t)))
                )
    ok = worst <= 1e-6
    report("C7", "gap law == residual chain law", f"max |diff| {worst:.2e} (<=1e-6)", ok)


def limit_eta0_adaptive(t: float, k: int) -> float:
    """The eta=0 limit density's defining integral by adaptive quadrature."""
    integrand = lambda v: (t + v) * v ** (k - 2) * math.exp(-((t + v) ** 2))
    val = integrate.quad(integrand, 0.0, 12.0 + 2.0 * math.sqrt(k), epsabs=1e-13, epsrel=1e-11)
    return 4.0 / math.gamma(0.5 * (k - 1)) * val[0]


def test_c08_limit_recursion_eta0():
    tgrid = np.linspace(0.0, 3.0, 61)
    # the library cross-checks recursion vs a fixed-rule quadrature to 1e-8
    # on every k >= 4 evaluation and raises on disagreement; here the
    # recursion meets an adaptive quadrature to the same bound
    worst_internal = 0.0
    for k in range(4, 11):
        vals = an.limiting_pdf_eta0(tgrid, k)
        direct = np.array([limit_eta0_adaptive(float(t), k) for t in tgrid])
        worst_internal = max(worst_internal, float(np.max(np.abs(vals - direct))))

    e2 = abs(an.limiting_pdf_eta0(0.0, 2) - 2.0 / math.sqrt(math.pi))
    e3 = abs(an.limiting_pdf_eta0(0.0, 3) - math.sqrt(math.pi))

    from scipy.special import erfc

    hand4 = 4.0 / math.sqrt(math.pi) * np.exp(-(tgrid**2)) - 4.0 * tgrid * erfc(tgrid)
    e4 = float(np.max(np.abs(an.limiting_pdf_eta0(tgrid, 4) - hand4)))

    ok = worst_internal <= 1e-8 and e2 <= 1e-12 and e3 <= 1e-12 and e4 <= 1e-10
    report(
        "C8",
        "eta=0 limit-density recursion",
        f"recursion vs quadrature {worst_internal:.2e} (<=1e-8), boundary values "
        f"{max(e2, e3):.2e} (<=1e-12), k=4 hand form {e4:.2e} (<=1e-10)",
        ok,
    )


def test_c09_limiting_distributions():
    # (a) eta=1/2, k=2: gaps/eta at n=2000 approach the uniform law.
    # Pool independent replications so the sample is not conditioned on a
    # single frozen draw of 2000 phase offsets; at n=2000 the finite-size
    # law itself sits about 0.038 away from the uniform limit in sup norm,
    # so the pooled statistic concentrates just below the 0.05 budget.
    gaps = replicate(cell(2, 2000, 0.5, seed=109, duration=660.0), 32).gaps
    ks = stats.kstest(gaps / 0.5, "uniform").statistic
    ok_a = ks <= 0.05

    # (b) eta=0, k=16: moments of sqrt(nk) T approach j!
    scaled = run(cell(16, 2000, 0.0, seed=110, duration=610.0)).inter_transmission_times
    scaled = scaled * math.sqrt(2000 * 16)
    rels = [
        abs(float(np.mean(scaled**j)) - target) / target
        for j, target in ((1, 1.0), (2, 2.0), (3, 6.0))
    ]
    ok_b = max(rels) <= 0.15
    report(
        "C9",
        "limiting gap distributions",
        f"(a) {gaps.size} gaps KS={ks:.4f} (<=0.05); "
        f"(b) moment rel devs {', '.join(f'{r:.3f}' for r in rels)} (<=0.15)",
        ok_a and ok_b,
    )


def test_c10_multicell_approximation():
    def theta_ci(k, r, eta):
        grid = Grid(side=50, radio_range=r)
        s_cell = cell_size(grid)
        st = run(
            SimRunConfig(
                trickle=TrickleConfig(k=k, tau_l=1.0, tau_h=1.0, eta=eta),
                topology=grid,
                duration=110.0,
                warmup=10.0,
                seed=111,
            )
        )
        w = st.per_interval_counts
        est = an.multicell_estimate(
            an.GridParams(side=50, radio_range=r, eta=eta, k=k), s_cell
        )
        ci = 1.96 * float(w.std(ddof=1)) / math.sqrt(w.size)
        return float(w.mean()) / est, ci / est

    ranges = (2.0, 4.0, 6.0, 8.0)
    thetas0 = {}
    for k in (1, 2, 4):
        for r in ranges:
            thetas0[k, r], _ = theta_ci(k, r, 0.0)
    ok_a = all(0.95 <= th <= 1.25 for th in thetas0.values())

    ok_b = True
    rhos = []
    for k in (1, 2, 4):
        row = []
        for r in ranges:
            th, ci = theta_ci(k, r, 0.5)
            ok_b = ok_b and th >= 1.0 - ci
            row.append(th)
        rho = float(stats.spearmanr(ranges, row).statistic)
        rhos.append(rho)
        ok_b = ok_b and rho >= 0.0
    report(
        "C10",
        "multicell estimate (50x50 torus)",
        f"eta=0 theta in [{min(thetas0.values()):.3f}, {max(thetas0.values()):.3f}] "
        f"(within [0.95, 1.25]); eta=0.5 above 1-CI with Spearman "
        f"{', '.join(f'{r:+.2f}' for r in rhos)} (>=0)",
        ok_a and ok_b,
    )


def test_c11_determinism_byte_identical(tmp_path):
    cases = [
        ("simulate", ["--k", "1,2", "--n", "10", "--eta", "0,0.5",
                      "--replications", "2", "--duration", "14"]),
        ("analytic", ["--k", "1,3", "--n", "20", "--eta", "0,0.5", "--bins", "8"]),
        ("compare", ["--k", "1", "--n", "20", "--eta", "0.5", "--replications", "3",
                     "--duration", "25", "--ks-threshold", "0.5"]),
        ("multicell", ["--k", "1", "--side", "8", "--range", "1,1.5", "--eta", "0",
                       "--replications", "1", "--duration", "14"]),
        ("markov-validate", []),
    ]
    mismatches = []
    for mode, args in cases:
        d1, d2 = tmp_path / f"{mode}-1", tmp_path / f"{mode}-2"
        for d in (d1, d2):
            code = cli_main([mode, *args, "--seed", "7", "--name", "det", "--out", str(d)])
            assert code == 0, (mode, code)
        files1 = sorted(p.name for p in d1.iterdir())
        files2 = sorted(p.name for p in d2.iterdir())
        if files1 != files2:
            mismatches.append(f"{mode}: file sets differ")
            continue
        for name in files1:
            if (d1 / name).read_bytes() != (d2 / name).read_bytes():
                mismatches.append(f"{mode}/{name}")
    ok = not mismatches
    report(
        "C11",
        "byte-identical reruns",
        f"{len(cases)} commands re-run" + (f"; mismatches: {mismatches}" if mismatches else ""),
        ok,
    )
