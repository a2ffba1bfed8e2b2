"""Output checks for the benchmark, written apart from the code they check.

Every check returns a list of problems; an empty list means the output
passed.  Each check tests a property the method must have (the protocol's
suppression rule, agreement of two independent evaluations, a probability
law's shape), not a stored copy of earlier output.  The only library calls
made here are the public ones that produce a check's reference side
(``engine.node_schedule`` for the per-node draws, ``analytics`` and
``residual`` for independent evaluations of one law).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy import stats as _stats

from tricklesim import analytics as an
from tricklesim.engine import node_schedule


# --------------------------------------------------------------------------
# simulation runs: the suppression rule, fire by fire


def node_fires(cfg, node: int):
    """(interval starts, fire times) of one node, rebuilt from its draws."""
    return interval_events(cfg, *node_schedule(cfg, node))


def interval_events(cfg, s: float, thetas):
    """(interval starts, fire times) from a node's skew and offset draws.

    A fire belongs to its own interval, so it is capped at the next
    interval start (this only matters at offset tau).  Only events up to
    ``cfg.duration`` exist in a run.
    """
    tau = cfg.trickle.tau_h
    j = np.arange(thetas.size)
    starts = s + tau * j
    fires = np.minimum(starts + thetas, s + tau * (j + 1))
    keep = fires <= cfg.duration
    return starts[keep], fires[keep]


def _rank(tx_t, tx_n, tx_q, q_t, q_n, q_q):
    """Number of transmissions whose (time, node, seq) key lies below each
    query key; the transmissions are sorted by that key."""
    lo = np.searchsorted(tx_t, q_t, side="left")
    hi = np.searchsorted(tx_t, q_t, side="right")
    rank = lo.astype(np.int64)
    one = np.flatnonzero(hi - lo == 1)
    if one.size:
        a = lo[one]
        rank[one] += (tx_n[a] < q_n[one]) | ((tx_n[a] == q_n[one]) & (tx_q[a] < q_q[one]))
    for i in np.flatnonzero(hi - lo > 1):
        a, b = lo[i], hi[i]
        n, q = tx_n[a:b], tx_q[a:b]
        rank[i] += int(np.count_nonzero((n < q_n[i]) | ((n == q_n[i]) & (q < q_q[i]))))
    return rank


def check_run(cfg, stats, hearers) -> list[str]:
    """The suppression rule for every fire whose interval starts after warmup.

    A node transmits at a fire if and only if fewer than ``k`` of the
    transmissions it can hear have keys in [interval start, fire), where an
    event's key is (time, node, per-node sequence) with starts at even and
    fires at odd sequence numbers.  ``hearers`` is None when every node
    hears every other (a single cell); otherwise row ``i`` holds the ids of
    the nodes whose broadcasts reach node ``i``.
    """
    problems: list[str] = []
    k, tau = cfg.trickle.k, cfg.trickle.tau_h
    warm, dur = cfg.warmup, cfg.duration
    tx_t = np.asarray(stats.transmission_times, dtype=float)
    tx_n = np.asarray(stats.transmission_nodes, dtype=np.int64)
    if tx_t.size == 0:
        return ["no transmissions in the measured span"]
    if np.any(np.diff(tx_t) < 0):
        problems.append("transmission times are not sorted")
    if tx_t[0] <= warm or tx_t[-1] > dur:
        problems.append("a transmission lies outside (warmup, duration]")
    if not np.array_equal(stats.inter_transmission_times, np.diff(tx_t)):
        problems.append("inter-transmission times are not the gaps of the transmissions")
    w0 = math.ceil(warm / tau)
    edges = tau * np.arange(w0, math.floor(dur / tau) + 1)
    counts = np.diff(np.searchsorted(tx_t, edges, side="left"))
    if stats.first_window != w0 or not np.array_equal(stats.per_interval_counts, counts):
        problems.append("per-interval counts do not match the transmissions")
    n_nodes = len(stats.per_node_counts)
    if list(stats.per_node_counts.values()) != np.bincount(tx_n, minlength=n_nodes).tolist():
        problems.append("per-node counts do not match the transmissions")

    starts, fires = zip(*(node_fires(cfg, i) for i in range(n_nodes)))
    # Match every transmission to a fire of its node: sequence 2j+1.
    tx_q = np.empty(tx_t.size, dtype=np.int64)
    sent = [np.zeros(f.size, dtype=bool) for f in fires]
    by_node = np.argsort(tx_n, kind="stable")
    bounds = np.searchsorted(tx_n[by_node], np.arange(n_nodes + 1))
    for i in range(n_nodes):
        idx = by_node[bounds[i]:bounds[i + 1]]
        if idx.size == 0:
            continue
        j = np.searchsorted(fires[i], tx_t[idx])
        ok = (j < fires[i].size) & (fires[i][np.minimum(j, fires[i].size - 1)] == tx_t[idx])
        if not ok.all():
            problems.append(f"node {i} transmitted at a time that is not one of its fires")
            return problems
        if np.unique(j).size != j.size:
            problems.append(f"node {i} transmitted twice at one fire")
            return problems
        sent[i][j] = True
        tx_q[idx] = 2 * j + 1

    order = np.lexsort((tx_q, tx_n, tx_t))
    keys = (tx_t[order], tx_n[order], tx_q[order])
    if hearers is not None:
        # positions, in key order, of each node's transmissions
        by_node = np.argsort(keys[1], kind="stable")
        bounds = np.searchsorted(keys[1][by_node], np.arange(n_nodes + 1))
        positions = [by_node[bounds[m]:bounds[m + 1]] for m in range(n_nodes)]
    for i in range(n_nodes):
        if hearers is None:
            heard = keys
        else:
            pos = np.sort(np.concatenate([positions[m] for m in hearers[i]]))
            heard = (keys[0][pos], keys[1][pos], keys[2][pos])
        j = np.flatnonzero(starts[i] > warm)
        if j.size == 0:
            continue
        node = np.full(j.size, i)
        before_fire = _rank(*heard, fires[i][j], node, 2 * j + 1)
        before_start = _rank(*heard, starts[i][j], node, 2 * j)
        should = (before_fire - before_start) < k
        bad = np.flatnonzero(should != sent[i][j])
        if bad.size:
            jj = int(j[bad[0]])
            problems.append(
                f"node {i} fire at {float(fires[i][jj])!r}: heard {int(before_fire[bad[0]] - before_start[bad[0]])} "
                f"(k={k}) but transmitted={bool(sent[i][jj])}"
            )
            break
    return problems


def torus_hearers(side: int, radio_range: float) -> np.ndarray:
    """Neighbour sets of a side x side torus with unit spacing: row ``i``
    lists the nodes at wrapped lattice distance at most ``radio_range``
    from node ``i``, the node itself excluded.  The disc must not wrap onto
    itself, so each offset names a distinct node."""
    if not 2 * radio_range < side:
        raise ValueError(f"range {radio_range} wraps a torus of side {side}")
    r = int(math.floor(radio_range))
    dx, dy = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    keep = (dx * dx + dy * dy <= radio_range * radio_range) & ((dx != 0) | (dy != 0))
    dx, dy = dx[keep], dy[keep]
    row, col = np.divmod(np.arange(side * side), side)
    return ((row[:, None] + dx) % side) * side + (col[:, None] + dy) % side


def check_grid_theta(theta: float, eta: float) -> list[str]:
    """The mean-field estimate is within its stated accuracy at eta = 0."""
    if eta == 0.0 and not 0.95 <= theta <= 1.25:
        return [f"theta {theta:.4f} outside [0.95, 1.25] at eta=0"]
    return []


# --------------------------------------------------------------------------
# command-line sweep outputs


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    return lines[0], list(csv.reader(lines[1:]))


def check_sweep(out_dir: Path, name: str, k: int, n: int, eta: float,
                codes: tuple[int, int]) -> list[str]:
    """A ``simulate`` then ``compare`` pair for one (k, n, eta), both
    writing under the file prefix ``name``."""
    problems = [f"{cmd} exited {c}" for cmd, c in zip(("simulate", "compare"), codes) if c != 0]
    files = [out_dir / f"{name}_{kind}.csv" for kind in ("counts", "gaps", "compare")]
    tables = {}
    for f in files:
        if not f.exists():
            return problems + [f"{f.name} missing"]
        first, rows = _read_csv(f)
        if not first.startswith("# spec:"):
            problems.append(f"{f.name} has no '# spec:' header")
        tables[f.name] = rows
    counts = tables[files[0].name]
    if len(counts) != 2:
        return problems + ["counts table does not hold exactly one combination"]
    mean_sim = float(counts[1][3])
    mean_ana = an.mean_N(an.AnalyticParams(k=k, n=n, eta=eta))
    if not abs(mean_sim - mean_ana) <= 0.10 * mean_ana:
        problems.append(f"mean_N_sim {mean_sim:.5g} not within 10% of mean_N {mean_ana:.5g}")
    gaps = np.array([float(r[3]) for r in tables[files[1].name][1:]])
    if gaps.size == 0 or np.any(gaps < 0):
        problems.append("gap column is empty or has a negative gap")
    return problems


# --------------------------------------------------------------------------
# analytics and residual


def check_gap_law(p, moments, mean_n, grid, cdf, pdf, stationary) -> list[str]:
    """One (k, n, eta) triple: moments, count mean, CDF grid, density and
    the residual-chain CDF on every 32nd grid point."""
    problems = []
    if np.any(cdf < 0) or np.any(cdf > 1):
        problems.append("CDF leaves [0, 1]")
    if np.any(np.diff(cdf) < -1e-9):
        problems.append("CDF is not monotone")
    if cdf[0] > 1e-9 or cdf[-1] < 1 - 1e-4:
        problems.append(f"CDF runs from {cdf[0]:.3g} to {cdf[-1]:.6g}, not 0 to 1")
    diff = float(np.max(np.abs(cdf[::32] - stationary)))
    if not diff <= 1e-6:
        problems.append(f"cdf_T vs stationary_cdf differ by {diff:.2e} (> 1e-6)")
    cum = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(grid) * (pdf[1:] + pdf[:-1]))])
    trap = float(np.max(np.abs(cum - (cdf - cdf[0]))))
    if not trap <= 1e-4:
        problems.append(f"trapezoid integral of pdf_T misses cdf_T by {trap:.2e} (> 1e-4)")
    if p.eta == 0.0:
        for j, m in enumerate(moments, start=1):
            closed = an.moment_T_closed_eta0(j, p)
            if not abs(m - closed) <= 1e-9 * closed:
                problems.append(f"moment {j} {m!r} != closed form {closed!r}")
    elif not mean_n < p.k / p.eta:
        problems.append(f"mean_N {mean_n!r} not below k/eta = {p.k / p.eta!r}")
    return problems


def check_density_integral(t, values) -> list[str]:
    """A limiting density on the uniform grid ``t`` (an odd number of
    points) integrates to 1 by Simpson's rule; the grid must reach far
    enough into the tail."""
    h = t[1] - t[0]
    total = float(h / 3 * (values[0] + 4 * values[1:-1:2].sum() + 2 * values[2:-1:2].sum()
                           + values[-1]))
    if np.any(values < 0) or not abs(total - 1.0) <= 1e-6:
        return [f"limiting density integrates to {total:.6f}, not 1"]
    return []


def check_exp1_sample(sample) -> list[str]:
    """The m=1 chain over Exp(1) is i.i.d. Exp(1) (memorylessness).  The
    KS bound 2.6/sqrt(N) is exceeded by a correct sampler with probability
    about 3e-6."""
    d = float(_stats.kstest(sample, "expon").statistic)
    bound = 2.6 / math.sqrt(sample.size)
    return [] if d <= bound else [f"sampler KS {d:.4f} > {bound:.4f}"]


def check_laplace(value: float) -> list[str]:
    """E[exp(-X1 - 2 X2)] for the m=2 chain over Exp(1) is 1/(2*3)."""
    return [] if abs(value - 1.0 / 6.0) <= 1e-6 else [f"Laplace value {value!r} != 1/6"]
