"""Each benchmark check accepts a correct output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from spans import NULL  # noqa: E402
from tricklesim import cli  # noqa: E402
from tricklesim import residual as rm  # noqa: E402
from tricklesim.core import TrickleConfig  # noqa: E402
from tricklesim.engine import SimRunConfig, run  # noqa: E402
from tricklesim.topology import Grid, SingleCell  # noqa: E402


def with_transmissions(st, times, nodes):
    """The same run with its transmission record replaced, and every
    statistic derived from it made consistent again, so only the
    suppression rule can catch the change."""
    per_node = dict(enumerate(np.bincount(nodes, minlength=len(st.per_node_counts)).tolist()))
    tau, w0 = st.config.trickle.tau_h, st.first_window
    edges = tau * np.arange(w0, w0 + st.per_interval_counts.size + 1)
    counts = np.diff(np.searchsorted(times, edges, side="left"))
    return dataclasses.replace(
        st, transmission_times=times, transmission_nodes=nodes,
        inter_transmission_times=np.diff(times), per_interval_counts=counts,
        per_node_counts=per_node,
    )


def drop(st, i):
    return with_transmissions(st, np.delete(st.transmission_times, i),
                              np.delete(st.transmission_nodes, i))


def move(st, i, dt):
    t = st.transmission_times.copy()
    t[i] += dt
    order = np.argsort(t, kind="stable")
    return with_transmissions(st, t[order], st.transmission_nodes[order])


@pytest.fixture(scope="module")
def cell():
    cfg = SimRunConfig(trickle=TrickleConfig(k=2, tau_l=1.0, tau_h=1.0, eta=0.5),
                       topology=SingleCell(60), duration=40.0, warmup=10.0, seed=3)
    return cfg, run(cfg)


@pytest.fixture(scope="module")
def grid():
    cfg = SimRunConfig(trickle=TrickleConfig(k=1, tau_l=1.0, tau_h=1.0, eta=0.0),
                       topology=Grid(side=12, radio_range=2.0), duration=30.0, warmup=10.0,
                       seed=4)
    return cfg, run(cfg), checks.torus_hearers(12, 2.0)


def test_cell_run_passes(cell):
    cfg, st = cell
    assert checks.check_run(cfg, st, None) == []


@pytest.mark.parametrize("corrupt", [
    lambda st: drop(st, st.total_transmissions // 2),
    lambda st: drop(st, st.total_transmissions - 1),
    lambda st: move(st, st.total_transmissions // 3, 1e-3),
    lambda st: dataclasses.replace(st, inter_transmission_times=st.inter_transmission_times * 1.01),
    lambda st: dataclasses.replace(st, per_interval_counts=st.per_interval_counts + 1),
])
def test_cell_run_rejects(cell, corrupt):
    cfg, st = cell
    assert checks.check_run(cfg, corrupt(st), None)


def test_cell_run_handles_tied_times():
    # synchronized skew at eta=1: every fire lands on the next interval
    # start of every node, so the check must order ties by (time, node, seq)
    from tricklesim.engine import Skew

    cfg = SimRunConfig(trickle=TrickleConfig(k=1, tau_l=1.0, tau_h=1.0, eta=1.0),
                       topology=SingleCell(8), duration=20.0, warmup=5.0, seed=1,
                       skew=Skew.SYNCHRONIZED)
    assert checks.check_run(cfg, run(cfg), None) == []


def test_grid_run_passes_and_rejects(grid):
    cfg, st, hearers = grid
    assert checks.check_run(cfg, st, hearers) == []
    assert checks.check_run(cfg, drop(st, st.total_transmissions // 2), hearers)
    assert checks.check_run(cfg, st, checks.torus_hearers(12, 3.0))


def test_torus_hearers_geometry():
    h = checks.torus_hearers(50, 8.0)
    assert h.shape == (2500, 196)  # 197 lattice points within range 8, less the node
    assert np.array_equal(np.sort(h[0])[:3], [1, 2, 3])
    assert not np.any(h == np.arange(2500)[:, None])


def test_grid_theta():
    assert checks.check_grid_theta(1.1, 0.0) == []
    assert checks.check_grid_theta(0.9, 0.0)
    assert checks.check_grid_theta(0.9, 0.5) == []


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    args = ["--k", "2", "--n", "20", "--eta", "0.5", "--replications", "10",
            "--duration", "60", "--seed", "5", "--out", str(out), "--name", "s"]
    codes = (cli.main(["simulate", *args]), cli.main(["compare", *args]))
    return out, codes


def test_sweep_passes(sweep):
    out, codes = sweep
    assert checks.check_sweep(out, "s", 2, 20, 0.5, codes) == []


def _rewrite(path, fn):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(fn(lines)) + "\n")


def _scale_mean(lines):
    # lines: spec comment, header, the one data row; field 3 is mean_N_sim
    f = lines[2].split(",")
    f[3] = repr(float(f[3]) * 1.2)
    return lines[:2] + [",".join(f)]


@pytest.mark.parametrize("corrupt", [
    lambda out: (1, 0),
    lambda out: (0, 1),
    lambda out: _rewrite(out / "s_gaps.csv", lambda l: l[:2] + ["2,20,0.5,-0.001"] + l[2:]),
    lambda out: _rewrite(out / "s_gaps.csv", lambda l: l[1:]),
    lambda out: _rewrite(out / "s_counts.csv", _scale_mean),
])
def test_sweep_rejects(sweep, tmp_path, corrupt):
    src, codes = sweep
    out = tmp_path / "copy"
    shutil.copytree(src, out)
    got = corrupt(out)
    assert checks.check_sweep(out, "s", 2, 20, 0.5, got or codes)


@pytest.fixture(scope="module")
def analytic():
    wl = workloads.Analytic(seed=1, out_dir=None)
    outs = {}
    for k, eta in ((3, 0.5), (2, 0.0)):
        op = wl._triple_op(0, k, eta)
        outs[eta] = (op, op.call(NULL))
    return outs


def test_gap_law_passes(analytic):
    for op, out in analytic.values():
        assert op.check(out) == []


def _perturbed(out, index, fn):
    out = list(out)
    out[index] = fn(out[index])
    return tuple(out)


def _bump(a, i, d):
    a = np.array(a, dtype=float)
    a[i] += d
    return a


@pytest.mark.parametrize("eta,index,fn", [
    (0.5, 3, lambda c: _bump(c, 100, 1e-3)),       # one CDF value
    (0.5, 3, lambda c: _bump(c, 1024, -0.01)),     # CDF does not reach 1
    (0.5, 5, lambda s: _bump(s, 3, 1e-5)),         # residual-chain CDF value
    (0.5, 4, lambda p: p * 1.01),                  # density scaled
    (0.5, 1, lambda m: 6.0 + 1e-9),                # mean_N at the k/eta ceiling
    (0.0, 0, lambda m: [m[0], m[1] * (1 + 1e-6), m[2]]),  # second moment
])
def test_gap_law_rejects(analytic, eta, index, fn):
    op, out = analytic[eta]
    assert op.check(_perturbed(out, index, fn))


def test_limiting_density():
    from tricklesim import analytics as an

    t = workloads.Analytic.LIMIT_GRID
    v = an.limiting_pdf_eta0(t, 6)
    assert checks.check_density_integral(t, v) == []
    assert checks.check_density_integral(t, v * 1.0001)
    assert checks.check_density_integral(t, np.where(t < 0.5, v, -v))


def test_sampler_and_laplace():
    sample = rm.sample_chain(rm.ChainSpec(rm.exponential(1.0), 1), 101_000, 1000, 7)
    assert checks.check_exp1_sample(sample) == []
    assert checks.check_exp1_sample(sample * 1.03)
    assert checks.check_laplace(1.0 / 6.0) == []
    assert checks.check_laplace(1.0 / 6.0 + 1e-5)


def _scripted_op(name, outputs):
    """An operation that returns the given outputs in turn; negative fails its check."""
    outputs = iter(outputs)
    return workloads.Op(key=(name,), call=lambda tr: next(outputs), digest=repr,
                        check=lambda out: [] if out >= 0 else ["negative"])


def test_verifier_checks_outputs_held_before_the_memory_mark():
    ver = bench.Verifier()
    ver.holding = True
    later = _scripted_op("later", [1, 1])  # checked by a later pass
    rerun = _scripted_op("rerun", [2, 2])  # checked by running it again
    differs = _scripted_op("differs", [3, 4])  # the run again differs from the held output
    bad = _scripted_op("bad", [-1, -1])  # fails its check
    for op in (later, rerun, differs, bad):
        ver.run(op)
    assert ver.failed == 0 and ver.digests == {}
    ver.holding = False
    ver.run(later)
    ver.settle()
    assert (ver.attempted, ver.failed) == (5, 2)
    assert set(ver.digests) == {repr(("later",)), repr(("rerun",)), repr(("differs",))}


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout or "x")
