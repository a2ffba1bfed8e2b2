"""The four workloads: their inputs, operations and output checks.

Inputs come from the workload seed only; tricklesim receives the generated
configurations and nothing else.  An operation is one closed-loop call into
the library whose time is measured; its output is checked after the clock
stops.  Operation order inside a pass is fixed and interleaves the shapes,
so a slow shape never sits at one end of a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from tricklesim import analytics as an
from tricklesim import cli
from tricklesim import residual as rm
from tricklesim.core import TrickleConfig
from tricklesim.engine import SimRunConfig, node_schedule, replication_seeds, run
from tricklesim.topology import Grid, SingleCell, cell_size, neighbor_table

import checks

# set-up rounds per run, each building the inputs and running one warm-up operation
SETUP_ROUNDS = 5


def derived_seed(seed: int, *path: int) -> int:
    """A library seed for one input, drawn from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, dtype=np.uint32)[0])


def digest(*arrays) -> str:
    """Digest of arrays, hashed in place (no copy of a contiguous array)."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()


def cold_norm_const() -> None:
    """Empty the library's normalisation-constant cache, if it has one."""
    clear = getattr(getattr(an, "_norm_const_cached", None), "cache_clear", None)
    if clear is not None:
        clear()


@dataclass
class Op:
    """One timed call.  ``key`` names its inputs: an output whose key was
    already checked in this process is checked by digest equality."""

    key: tuple
    call: Callable[[Any], Any]  # tracer -> output
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], str]
    # simulation configs the op runs and the traced run re-derives apart
    configs: list = field(default_factory=list)
    # the output is files on disk, so keeping it until its check costs no memory
    on_disk: bool = False


def _cell(k, n, eta, duration, seed) -> SimRunConfig:
    return SimRunConfig(
        trickle=TrickleConfig(k=k, tau_l=1.0, tau_h=1.0, eta=eta),
        topology=SingleCell(n), duration=duration, warmup=10.0, seed=seed,
    )


def _engine_op(key, cfg, check) -> Op:
    def call(tr):
        with tr.span("engine.run"):
            return run(cfg)

    return Op(
        key=key, call=call, check=check, configs=[cfg],
        digest=lambda st: digest(st.transmission_times, st.transmission_nodes,
                                 st.inter_transmission_times, st.per_interval_counts),
    )


# --------------------------------------------------------------------------


class CellLarge:
    """The two C9 shapes at n=2000: schedule build and single-cell sweep."""

    SHAPES = ((2, 0.5, 660.0), (16, 0.0, 610.0))

    def __init__(self, seed: int, out_dir: Path):
        self.cfgs = [
            _cell(k, 2000, eta, dur, derived_seed(seed, 1, i))
            for i, (k, eta, dur) in enumerate(self.SHAPES)
        ]

    def pass_ops(self, p: int) -> list[Op]:
        return [
            _engine_op(("cell", i), cfg, lambda st, cfg=cfg: checks.check_run(cfg, st, None))
            for i, cfg in enumerate(self.cfgs)
        ]

    def warmup_op(self, rep: int) -> Op:
        return self.pass_ops(0)[0]


class GridTorus:
    """50x50 torus runs: per-node-counter sweep and the neighbour table."""

    SIDE = 50
    # (R, k, eta), interleaved so sizes alternate
    SHAPES = (
        (2, 1, 0.0), (8, 4, 0.5), (4, 1, 0.5), (8, 1, 0.0), (2, 4, 0.5), (4, 4, 0.0),
        (8, 4, 0.0), (2, 1, 0.5), (4, 4, 0.5), (2, 4, 0.0), (8, 1, 0.5), (4, 1, 0.0),
    )

    def __init__(self, seed: int, out_dir: Path):
        self.cfgs = [
            SimRunConfig(
                trickle=TrickleConfig(k=k, tau_l=1.0, tau_h=1.0, eta=eta),
                topology=Grid(side=self.SIDE, radio_range=float(r)),
                duration=110.0, warmup=10.0, seed=derived_seed(seed, 3, i),
            )
            for i, (r, k, eta) in enumerate(self.SHAPES)
        ]

    def _check(self, cfg, st) -> list[str]:
        grid = cfg.topology
        hearers = checks.torus_hearers(grid.side, grid.radio_range)
        s_cell = hearers.shape[1] + 1
        if cell_size(grid) != s_cell:
            return [f"cell_size {cell_size(grid)} != {s_cell} lattice points in range"]
        g = an.GridParams(side=grid.side, radio_range=grid.radio_range,
                          eta=cfg.trickle.eta, k=cfg.trickle.k)
        theta = st.mean_per_interval / an.multicell_estimate(g, s_cell)
        return checks.check_grid_theta(theta, cfg.trickle.eta) + checks.check_run(cfg, st, hearers)

    def pass_ops(self, p: int) -> list[Op]:
        return [
            _engine_op(("grid", i), cfg, lambda st, cfg=cfg: self._check(cfg, st))
            for i, cfg in enumerate(self.cfgs)
        ]

    def warmup_op(self, rep: int) -> Op:
        return self.pass_ops(0)[0]


class CellSweep:
    """``tricklesim simulate`` then ``compare`` at ``--profile quick``, one
    (k, n, eta) combination per operation: the command-line user path."""

    REPLICATIONS, DURATION = cli.PROFILES["quick"]
    SHAPES = tuple(
        (k, n, eta)
        for n, k in ((20, 1), (100, 2), (50, 3), (50, 1), (20, 2), (100, 3),
                     (100, 1), (50, 2), (20, 3))
        for eta in (0.0, 0.5)
    )

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.seeds = [derived_seed(seed, 2, i) for i in range(len(self.SHAPES))]

    def _op(self, i: int) -> Op:
        k, n, eta = self.SHAPES[i]
        seed = self.seeds[i]
        out = self.out_dir
        # a file prefix per combination, so outputs stay until checked
        name = f"sweep{i}"
        args = ["--k", str(k), "--n", str(n), "--eta", f"{eta:g}", "--profile", "quick",
                "--seed", str(seed), "--out", str(out), "--name", name]

        def call(tr):
            codes = []
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                for mode in ("simulate", "compare"):
                    with tr.span("cli.main"):
                        codes.append(cli.main([mode, *args]))
            return tuple(codes)

        files = [f"{name}_counts.csv", f"{name}_gaps.csv", f"{name}_compare.csv",
                 f"{name}_hist_k{k}_n{n}_eta{eta:g}.csv"]

        def out_digest(codes):
            h = hashlib.sha256(repr(codes).encode())
            for f in files:
                with open(out / f, "rb") as fh:
                    h.update(hashlib.file_digest(fh, "sha256").digest())
            return h.hexdigest()

        cfg = _cell(k, n, eta, self.DURATION, seed)
        # the two commands each run these replications
        configs = [SimRunConfig(trickle=cfg.trickle, topology=cfg.topology,
                                duration=cfg.duration, warmup=cfg.warmup, seed=s)
                   for s in replication_seeds(seed, self.REPLICATIONS)] * 2
        return Op(
            key=("sweep", i), call=call, digest=out_digest, configs=configs, on_disk=True,
            check=lambda codes: checks.check_sweep(out, name, k, n, eta, codes),
        )

    def pass_ops(self, p: int) -> list[Op]:
        return [self._op(i) for i in range(len(self.SHAPES))]

    def warmup_op(self, rep: int) -> Op:
        return self._op(0)


class Analytic:
    """Closed forms, quadrature and the residual chain; the engine is idle.

    Each gap-law operation takes a (k, n, eta) triple that no earlier
    operation in the process used, so the normalisation-constant cache
    starts cold.  n is drawn from the seed in [20, 70]; k and eta follow a
    fixed cycle so every pass does the same mix of work.  Above n = 70
    ``residual.stationary_cdf`` misses the exact law by more than 1e-6 at
    scattered n (up to 1.6e-5 at k=5, n=445, eta=0), so the C7 comparison
    would fail on some seeds only.  Every triple in the range was checked.
    After 51 blocks (far beyond any run length) the triples repeat.
    """

    KS = (2, 3, 4, 5)
    ETAS = (0.0, 0.25, 0.5, 0.75)
    N_RANGE = (20, 71)
    LIMIT_GRID = np.linspace(0.0, 4.0, 401)
    CHAIN_STEPS, BURN_IN = 101_000, 1000

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        rng = np.random.default_rng(derived_seed(seed, 4))
        pairs = [(k, eta) for k in self.KS for eta in self.ETAS]
        # step 5 through the 4x4 table: neighbouring operations differ in k and eta
        self.pairs = [pairs[(5 * i) % 16] for i in range(16)]
        # block b of operations uses the b-th entry of each pair's permutation
        self.ns = {pr: rng.permutation(np.arange(*self.N_RANGE)) for pr in pairs}

    def _triple_op(self, block: int, k: int, eta: float) -> Op:
        ns = self.ns[k, eta]
        p = an.AnalyticParams(k=k, n=int(ns[block % ns.size]), eta=eta)

        def call(tr):
            with tr.span("analytics.norm_const_cold"):
                an.norm_const(p)
            with tr.span("analytics.moments"):
                moments = [an.moment_T(j, p) for j in (1, 2, 3)]
                mean_n = an.mean_N(p)
            m1, m2 = moments[0], moments[1]
            grid = np.linspace(0.0, m1 + 8.0 * math.sqrt(m2 - m1 * m1), 1025)
            with tr.span("analytics.cdf_T_grid"):
                cdf = np.array([an.cdf_T(float(t), p) for t in grid])
            with tr.span("analytics.pdf_T"):
                pdf = np.array([an.pdf_T(float(t), p) for t in grid])
            with tr.span("residual.stationary_cdf"):
                spec = rm.ChainSpec(an.first_transmission_lifetime(p), m=k - 1)
                stationary = np.array([rm.stationary_cdf(spec, float(t)) for t in grid[::32]])
            return moments, mean_n, grid, cdf, pdf, stationary

        return Op(
            key=("triple", k, p.n, eta), call=call,
            check=lambda out: checks.check_gap_law(p, *out),
            digest=lambda out: digest(np.array(out[0] + [out[1]]), *out[2:]),
        )

    def _limit_op(self) -> Op:
        def call(tr):
            with tr.span("analytics.limiting_pdf_eta0"):
                return [an.limiting_pdf_eta0(self.LIMIT_GRID, k) for k in range(4, 11)]

        return Op(
            key=("limit",), call=call, digest=lambda out: digest(*out),
            check=lambda out: [e for v in out for e in checks.check_density_integral(self.LIMIT_GRID, v)],
        )

    def _chain_op(self, block: int) -> Op:
        seed = derived_seed(self.seed, 5, block)

        def call(tr):
            with tr.span("residual.sample_chain"):
                return rm.sample_chain(rm.ChainSpec(rm.exponential(1.0), 1),
                                       self.CHAIN_STEPS, self.BURN_IN, seed)

        return Op(key=("chain", block), call=call, digest=digest, check=checks.check_exp1_sample)

    def _laplace_op(self, block: int) -> Op:
        seed = derived_seed(self.seed, 6, block)

        def call(tr):
            with tr.span("residual.laplace_verify"):
                return rm.laplace_transform(rm.ChainSpec(rm.exponential(1.0), 2), [1.0, 2.0],
                                            verify=True, mc_samples=100_000, seed=seed)

        return Op(key=("laplace", block), call=call, check=checks.check_laplace,
                  digest=lambda v: repr(v))

    def pass_ops(self, p: int) -> list[Op]:
        b = SETUP_ROUNDS + p  # lower blocks belong to the warm-ups
        ops = [self._triple_op(b, k, eta) for k, eta in self.pairs]
        # the per-pass operations sit between gap-law operations
        ops.insert(4, self._limit_op())
        ops.insert(9, self._chain_op(b))
        ops.insert(14, self._laplace_op(b))
        return ops

    def warmup_op(self, rep: int) -> Op:
        return self._triple_op(rep, *self.pairs[0])


WORKLOADS = {"cell_large": CellLarge, "cell_sweep": CellSweep,
             "grid_torus": GridTorus, "analytic": Analytic}


def build(name: str, seed: int, out_dir: Path):
    return WORKLOADS[name](seed, out_dir)


# --------------------------------------------------------------------------
# layer work the traced run re-derives apart from the timed calls


def layer_work(op: Op, tr, counters: dict) -> None:
    """Time every node's ``node_schedule`` for each simulation config of
    the operation, and ``neighbor_table`` for each grid; count timer fires
    of the configs the benchmark passes to ``engine.run`` itself."""
    direct = op.key[0] in ("cell", "grid")
    for cfg in op.configs:
        n = cfg.topology.n if isinstance(cfg.topology, SingleCell) else cfg.topology.side ** 2
        with tr.span("engine.node_schedule"):
            draws = [node_schedule(cfg, i) for i in range(n)]
        if direct:
            counters["attempts"] += sum(
                checks.interval_events(cfg, s, th)[1].size for s, th in draws)
        if isinstance(cfg.topology, Grid):
            with tr.span("topology.neighbor_table"):
                table = neighbor_table(cfg.topology)
            counters["neighbors"] += sum(len(t) for t in table)
            counters["grid_nodes"] += len(table)
