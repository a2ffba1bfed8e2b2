import math

import numpy as np
import pytest
from scipy.stats import kstest

from tricklesim.core import TrickleConfig
from tricklesim.engine import SimRunConfig, Skew, _sweep_single_cell, _thetas, node_schedule
from tricklesim.topology import SingleCell


def one_node(eta, tau, intervals, seed):
    """A synchronized single node over `intervals` intervals of length `tau`:
    `node_schedule` gives it one theta draw per interval."""
    return SimRunConfig(
        trickle=TrickleConfig(k=1, tau_l=tau, tau_h=tau, eta=eta),
        topology=SingleCell(1),
        duration=tau * (intervals - 1),
        warmup=0.0,
        seed=seed,
        skew=Skew.SYNCHRONIZED,
    )


def test_config_validation():
    for k in (0, 1.5, 2.0):  # a non-integer count ran on a grid, crashed on a cell
        with pytest.raises(ValueError, match="k must be a positive integer"):
            TrickleConfig(k=k, tau_l=1.0, tau_h=1.0)
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
    assert _thetas(cfg, u) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("k", range(1, 11))
@pytest.mark.parametrize("c", range(11))
def test_timer_fire_threshold(k, c):
    # c fires that each start their own interval and so transmit, then a
    # fire whose interval began before all of them: it has heard c messages
    # and transmits iff c < k
    lo = np.array([*range(c), 0], dtype=np.intp)
    tx = _sweep_single_cell(lo, k, 0, [])
    assert tx.tolist() == list(range(c)) + ([c] if c < k else [])


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
def test_theta_bounds_fuzz(eta):
    s, thetas = node_schedule(one_node(eta, 1.0, 20_000, seed=42), 0)
    assert s == 0.0 and thetas.size == 20_000
    assert np.all((eta <= thetas) & (thetas <= 1.0))
    if eta < 1.0:
        assert np.all(thetas < 1.0)
    else:
        assert np.all(thetas == 1.0)


def test_theta_uniform_on_window():
    # (theta - eta*tau) / ((1-eta)*tau) must be uniform on [0, 1)
    eta, tau = 0.4, 2.0
    _, thetas = node_schedule(one_node(eta, tau, 100_000, seed=7), 0)
    assert thetas.size == 100_000
    vals = (thetas - eta * tau) / ((1 - eta) * tau)
    assert kstest(vals, "uniform").statistic < 0.01


def test_eta_one_fire_at_interval_end():
    _, thetas = node_schedule(one_node(1.0, 3.0, 50, seed=1), 0)
    assert np.all(thetas == 3.0)
