import math

import numpy as np
import pytest

from tricklesim.core import (
    NodeState,
    TrickleConfig,
    hear_consistent,
    initial_state,
    interval_end,
    start_interval,
    timer_fire,
)

CFG = TrickleConfig(k=1, tau_l=1.0, tau_h=1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        TrickleConfig(k=0, tau_l=1.0, tau_h=1.0)
    with pytest.raises(ValueError):
        TrickleConfig(k=1, tau_l=0.0, tau_h=1.0)
    with pytest.raises(ValueError):
        TrickleConfig(k=1, tau_l=2.0, tau_h=1.0)
    with pytest.raises(ValueError):
        TrickleConfig(k=1, tau_l=1.0, tau_h=1.0, eta=1.5)
    with pytest.raises(ValueError):
        TrickleConfig(k=1, tau_l=1.0, tau_h=1.0, eta=-0.1)
    for tau_l, tau_h in ((1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            TrickleConfig(k=1, tau_l=tau_l, tau_h=tau_h)


@pytest.mark.parametrize(
    "eta,tau,u,expected",
    [
        (0.0, 1.0, 0.3, 0.3),
        (0.5, 2.0, 0.25, 1.25),
        (1.0, 1.0, 0.7, 1.0),
        (1.0, 4.0, 0.0, 4.0),
        (0.25, 1.0, 0.0, 0.25),
    ],
)
def test_theta_formula(eta, tau, u, expected):
    cfg = TrickleConfig(k=1, tau_l=tau, tau_h=tau, eta=eta)
    st = initial_state(cfg, 0.0, u)
    assert st.theta == pytest.approx(expected, abs=1e-15)
    assert st.c == 0 and not st.has_fired and st.interval_start == 0.0


def test_draw_validation():
    with pytest.raises(ValueError):
        initial_state(CFG, 0.0, 1.0)
    with pytest.raises(ValueError):
        initial_state(CFG, 0.0, -0.1)
    initial_state(CFG, 0.0, 0.999999)  # top of the half-open range is fine


def test_initial_state_tau_choice():
    cfg = TrickleConfig(k=1, tau_l=0.5, tau_h=4.0)
    assert initial_state(cfg, 0.0, 0.5).tau == 4.0
    assert initial_state(cfg, 0.0, 0.5, tau=0.5).tau == 0.5
    with pytest.raises(ValueError):
        initial_state(cfg, 0.0, 0.5, tau=8.0)
    with pytest.raises(ValueError):
        initial_state(cfg, 0.0, 0.5, tau=0.25)


@pytest.mark.parametrize("k", range(1, 11))
@pytest.mark.parametrize("c", range(11))
def test_timer_fire_threshold(k, c):
    cfg = TrickleConfig(k=k, tau_l=1.0, tau_h=1.0)
    st = NodeState(tau=1.0, c=c, theta=0.5, interval_start=0.0)
    fired, transmit = timer_fire(st, cfg)
    assert transmit == (c < k)
    assert fired.has_fired and fired.c == c


def test_timer_fires_once():
    st = NodeState(tau=1.0, c=0, theta=0.5, interval_start=0.0)
    fired, _ = timer_fire(st, CFG)
    with pytest.raises(RuntimeError):
        timer_fire(fired, CFG)


def test_hear_consistent_counts():
    st = initial_state(CFG, 0.0, 0.5)
    for i in range(1, 6):
        st = hear_consistent(st)
        assert st.c == i
    # counting continues after the node's own broadcast time
    fired, _ = timer_fire(st, CFG)
    assert hear_consistent(fired).c == 6


def test_interval_doubling_ladder():
    cfg = TrickleConfig(k=1, tau_l=1.0, tau_h=1024.0)
    st = initial_state(cfg, 0.0, 0.5, tau=1.0)
    now = 0.0
    expected = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 1024.0]
    for want in expected:
        now += st.tau
        st = interval_end(st, cfg, now, 0.5)
        assert st.tau == want
        assert st.interval_start == now
        assert st.c == 0 and not st.has_fired


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
def test_theta_bounds_fuzz(eta):
    rng = np.random.default_rng(42)
    cfg = TrickleConfig(k=1, tau_l=1.0, tau_h=1.0, eta=eta)
    st = initial_state(cfg, 0.0, rng)
    for _ in range(20_000):
        st = start_interval(st, cfg, 0.0, rng)
        assert eta <= st.theta <= 1.0
        if eta < 1.0:
            assert st.theta < 1.0
        else:
            assert st.theta == 1.0


def test_theta_uniform_on_window():
    # (theta - eta*tau) / ((1-eta)*tau) must be uniform on [0, 1)
    rng = np.random.default_rng(7)
    eta, tau = 0.4, 2.0
    cfg = TrickleConfig(k=1, tau_l=tau, tau_h=tau, eta=eta)
    st = initial_state(cfg, 0.0, rng)
    vals = np.empty(100_000)
    for i in range(vals.size):
        st = start_interval(st, cfg, 0.0, rng)
        vals[i] = (st.theta - eta * tau) / ((1 - eta) * tau)
    from scipy.stats import kstest

    assert kstest(vals, "uniform").statistic < 0.01


def test_same_draws_same_trajectory():
    cfg = TrickleConfig(k=3, tau_l=1.0, tau_h=4.0, eta=0.2)
    draws = np.random.default_rng(11).random(50).tolist()

    def play(seq):
        st = initial_state(cfg, 0.0, seq[0], tau=1.0)
        hist = [st]
        now = 0.0
        for u in seq[1:]:
            now += st.tau
            st = interval_end(st, cfg, now, u)
            hist.append(st)
        return hist

    assert play(draws) == play(list(draws))


def test_eta_one_fire_at_interval_end():
    cfg = TrickleConfig(k=1, tau_l=3.0, tau_h=3.0, eta=1.0)
    st = initial_state(cfg, 1.0, 0.123)
    assert st.theta == st.tau == 3.0
