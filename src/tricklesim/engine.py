"""Seeded discrete-event simulation of the steady-state broadcast process.

Every node runs the suppression timer with a fixed interval length
``tau_h`` (the steady-state regime: all messages consistent, intervals
never shrink or grow).  Each node's interval starts and timer fires are
pre-generated from its own seeded stream; simultaneous events are ordered
by (time, node id, per-node sequence).  Each topology has its own kernel:

* single cell -- every node hears every transmission, so a fire transmits
  iff the k-th most recent transmission came before the firing node's
  interval start.  Only the fires are sorted, each tagged with the number
  of fires ahead of its interval start, and a chunked vectorized scan
  steps through the candidate transmitters alone;
* grid -- interval starts and fires are merged into one schedule and swept
  event by event with per-node counters, bumped for all lattice neighbors
  in range of each sender.

Determinism: node ``i``'s draws come from a stream derived from
``(seed, i)``, so runs are bit-reproducible and changing the node count
does not perturb the other nodes' draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import ceil, floor, sqrt

import numpy as np

from .core import TrickleConfig
from .topology import SingleCell, Topology, neighbor_table, num_nodes

__all__ = [
    "Skew",
    "SimRunConfig",
    "SimStats",
    "Pooled",
    "run",
    "replicate",
    "node_schedule",
    "replication_seeds",
]


class Skew(Enum):
    """How nodes' interval boundaries are offset against absolute time."""

    UNIFORM_RANDOM = "uniform"
    SYNCHRONIZED = "synchronized"


@dataclass(frozen=True)
class SimRunConfig:
    """One simulation run: algorithm parameters, topology, horizon, seed.

    ``duration`` and ``warmup`` are in absolute time units; statistics are
    collected for events in ``(warmup, duration]`` only.  Per-interval
    counts use windows of length ``tau_h`` aligned to absolute time, and
    only windows lying entirely inside the measured span are kept.
    """

    trickle: TrickleConfig
    topology: Topology
    duration: float = 100.0
    warmup: float = 10.0
    seed: int = 0
    skew: Skew = Skew.UNIFORM_RANDOM
    record_attempts: bool = False

    def __post_init__(self) -> None:
        if not self.duration > self.warmup:
            raise ValueError(
                f"duration must exceed warmup, got duration={self.duration} warmup={self.warmup}"
            )
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")


@dataclass
class SimStats:
    """Statistics collected from one run, all restricted to the measured span.

    Attributes
    ----------
    transmission_times, transmission_nodes : ndarray
        Time-ordered successful broadcasts in ``(warmup, duration]``.
    inter_transmission_times : ndarray
        Gaps between consecutive network-wide transmissions; pairs spanning
        the warmup boundary are never formed.
    per_interval_counts : ndarray of int
        Transmissions per window ``[w*tau_h, (w+1)*tau_h)`` for the whole
        windows after warmup; ``first_window`` is the absolute index of the
        first one.
    per_node_counts : dict
        node id -> number of transmissions (every node has an entry).
    attempt_times : ndarray or None
        All timer fires (suppressed or not), when recording was requested.
    """

    config: SimRunConfig
    transmission_times: np.ndarray
    transmission_nodes: np.ndarray
    inter_transmission_times: np.ndarray
    per_interval_counts: np.ndarray
    per_node_counts: dict[int, int]
    first_window: int
    attempt_times: np.ndarray | None = None

    @property
    def total_transmissions(self) -> int:
        return int(self.transmission_times.size)

    @property
    def mean_per_interval(self) -> float:
        return float(self.per_interval_counts.mean())


def node_schedule(config: SimRunConfig, node_id: int) -> tuple[float, np.ndarray]:
    """Deterministic schedule for one node: (first interval start, theta draws).

    The node's stream yields its interval skew first (uniform-random mode
    only), then one broadcast offset per interval.  Interval ``j`` runs
    over ``[s + j*tau_h, s + (j+1)*tau_h)`` and its broadcast time is
    ``s + j*tau_h + theta_j`` with ``theta_j`` in ``[eta*tau_h, tau_h)``.
    Exposed so tests can audit a run event-by-event.
    """
    tau = config.trickle.tau_h
    eta = config.trickle.eta
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(node_id,)))
    if config.skew is Skew.UNIFORM_RANDOM:
        s = rng.random() * tau
    else:
        s = 0.0
    n_intervals = int(floor((config.duration - s) / tau)) + 1
    u = rng.random(n_intervals)
    thetas = tau * (eta + u * (1.0 - eta))
    return s, thetas


def _intervals(config: SimRunConfig, n: int):
    """Every node's intervals, node-major: (node, start, fire) per interval."""
    tau = config.trickle.tau_h
    skews, thetas = zip(*(node_schedule(config, i) for i in range(n)))
    counts = np.array([th.size for th in thetas], dtype=np.intp)
    node = np.repeat(np.arange(n), counts)
    s = np.repeat(np.asarray(skews, dtype=np.float64), counts)
    j = np.arange(node.size) - np.repeat(np.cumsum(counts) - counts, counts)
    starts = s + tau * j
    # Cap each fire at the next interval start as computed here, so a fire
    # at offset tau (eta = 1, or rounding on the last ulp) compares equal to
    # the rollover time and the tie-break keeps it inside its own interval.
    fires = np.minimum(starts + np.concatenate(thetas), s + tau * (j + 1))
    return node, starts, fires


def _event_schedule(config: SimRunConfig, n: int):
    """Merged, time-ordered event arrays for all nodes of a grid.

    Returns (times, nodes, is_fire) with simultaneous events ordered by
    (time, node id, per-node sequence).  The per-node sequence interleaves
    interval starts and fires (start_j < fire_j < start_{j+1}), which keeps
    the two degenerate corners right: a fire at offset zero lands after its
    own interval start, and a fire at offset tau (eta = 1) lands before the
    next interval start.  The arrays are built in (node, sequence) order, so
    one stable sort on time yields the full three-key order.
    """
    node, starts, fires = _intervals(config, n)
    t = np.empty(2 * starts.size)
    t[0::2] = starts
    t[1::2] = fires
    keep = t <= config.duration
    t = t[keep]
    order = np.argsort(t, kind="stable")
    nodes = np.repeat(node, 2)[keep]
    is_fire = np.tile([False, True], starts.size)[keep]
    return t[order], nodes[order], is_fire[order]


def _cell_fires(config: SimRunConfig, n: int):
    """Every fire of a single cell, in (time, node) order.

    Returns (times, nodes, lo) where ``lo[p]`` is the number of fires that
    precede fire ``p``'s own interval start in the (time, node, sequence)
    order.  A fire at exactly a start time precedes that start iff its node
    id is no larger; that tie-break keeps eta = 1 and synchronized skew
    exact.  (A node's own fire at offset zero also counts under it, giving
    ``lo[p] = p + 1``, which the sweep treats the same as ``p``.)
    """
    node, start, t = _intervals(config, n)
    keep = t <= config.duration
    t = t[keep]
    order = np.argsort(t, kind="stable")
    t = t[order]
    node = node[keep][order]
    start = start[keep][order]
    lo = np.searchsorted(t, start)
    tie = np.flatnonzero(t[np.minimum(lo, t.size - 1)] == start)
    if tie.size:
        # Rank fires by (first position of their time, node); a tied start
        # then sits after every fire of its time with node id <= its own.
        new_time = np.ones(t.size, dtype=bool)
        new_time[1:] = t[1:] != t[:-1]
        first = np.maximum.accumulate(np.where(new_time, np.arange(t.size), 0))
        lo[tie] = np.searchsorted(first * n + node, lo[tie] * n + node[tie], side="right")
    return t, node, lo


# Fewest fires scanned per vectorized step of the single-cell sweep.
_MIN_CHUNK = 256


def _sweep_single_cell(lo: np.ndarray, k: int) -> np.ndarray:
    """Sorted positions of the transmitting fires of a single cell.

    Every node hears every transmission, so fire ``p`` transmits iff fewer
    than ``k`` transmissions lie at positions ``[lo[p], p)``: iff
    ``lo[p] > thr``, where ``thr`` is the position of the k-th most recent
    transmission (-1 while there are fewer than k).  ``thr`` only grows, so
    the fires of a chunk that pass the test against the chunk's starting
    ``thr`` are a superset of its transmissions; only those are re-tested
    one by one.
    """
    tx: list[int] = []
    thr = -1
    pos = 0
    while pos < lo.size:
        end = pos + max(_MIN_CHUNK, pos - thr)
        seg = lo[pos:end]
        cand = np.flatnonzero(seg > thr)
        for p, lo_p in zip((cand + pos).tolist(), seg[cand].tolist()):
            if lo_p > thr:
                tx.append(p)
                if len(tx) >= k:
                    thr = tx[-k]
        pos = end
    return np.asarray(tx, dtype=np.intp)


def _sweep_grid(times, nodes, is_fire, neighbors, k: int):
    """Grid sweep with explicit per-node counters; a transmission bumps the
    counter of every in-range node at the same timestamp, before any later
    event is processed."""
    n = len(neighbors)
    c = np.zeros(n, dtype=np.int64)
    tx_t: list[float] = []
    tx_i: list[int] = []
    for t, i, fire in zip(times.tolist(), nodes.tolist(), is_fire.tolist()):
        if fire:
            if c[i] < k:
                c[neighbors[i]] += 1
                tx_t.append(t)
                tx_i.append(i)
        else:
            c[i] = 0
    return np.asarray(tx_t, dtype=np.float64), np.asarray(tx_i, dtype=np.intp)


def _windows(config: SimRunConfig) -> tuple[int, int]:
    """(absolute index of the first whole window, number of whole windows)
    inside the measured span."""
    tau = config.trickle.tau_h
    w0 = int(ceil(config.warmup / tau))
    return w0, max(0, int(floor(config.duration / tau)) - w0)


def run(config: SimRunConfig) -> SimStats:
    """Execute one seeded run and collect statistics.

    Transmissions are delivered instantaneously and losslessly to all
    topology neighbors of the sender; all messages are consistent, so
    interval lengths never change.  Identical configs (including the seed)
    produce bit-identical results.
    """
    n = num_nodes(config.topology)
    k = config.trickle.k
    if isinstance(config.topology, SingleCell):
        fire_t, fire_i, lo = _cell_fires(config, n)
        tx = _sweep_single_cell(lo, k)
        tx_times, tx_nodes = fire_t[tx], fire_i[tx]
    else:
        times, nodes, is_fire = _event_schedule(config, n)
        tx_times, tx_nodes = _sweep_grid(
            times, nodes, is_fire, neighbor_table(config.topology), k
        )
        fire_t = times[is_fire]

    tau = config.trickle.tau_h
    warm, dur = config.warmup, config.duration
    m = (tx_times > warm) & (tx_times <= dur)
    tx_times = tx_times[m]
    tx_nodes = tx_nodes[m]

    w0, n_windows = _windows(config)
    if n_windows > 0:
        in_win = (tx_times >= w0 * tau) & (tx_times < (w0 + n_windows) * tau)
        idx = np.floor(tx_times[in_win] / tau).astype(np.int64) - w0
        per_interval = np.bincount(idx, minlength=n_windows)
    else:
        per_interval = np.zeros(0, dtype=np.int64)

    per_node = dict(enumerate(np.bincount(tx_nodes, minlength=n).tolist()))

    attempts = None
    if config.record_attempts:
        attempts = fire_t[(fire_t > warm) & (fire_t <= dur)]

    return SimStats(
        config=config,
        transmission_times=tx_times,
        transmission_nodes=tx_nodes,
        inter_transmission_times=np.diff(tx_times),
        per_interval_counts=per_interval,
        per_node_counts=per_node,
        first_window=w0,
        attempt_times=attempts,
    )


def replication_seeds(seed: int, replications: int) -> list[int]:
    """Independent per-replication seeds derived from one master seed.

    Pre-assigned up front so result merging is order-independent no matter
    how replications are scheduled.
    """
    ss = np.random.SeedSequence(seed)
    return [int(s) for s in ss.generate_state(replications, dtype=np.uint64)]


@dataclass(frozen=True)
class Pooled:
    """Per-window counts and gaps of one config, pooled over replications.

    ``mean``, ``std`` and ``ci_halfwidth`` treat every pooled window as one
    sample: the half-width is ``1.96 * std / sqrt(pooled window count)``.
    """

    config: SimRunConfig
    replications: int
    counts: np.ndarray
    gaps: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.counts.mean())

    @property
    def std(self) -> float:
        return float(self.counts.std(ddof=1)) if self.counts.size > 1 else 0.0

    @property
    def ci_halfwidth(self) -> float:
        return 1.96 * self.std / sqrt(self.counts.size)


def replicate(config: SimRunConfig, replications: int) -> Pooled:
    """Run `config` once per seed of ``replication_seeds(config.seed,
    replications)`` and pool the per-window counts and the gaps in seed
    order."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if _windows(config)[1] == 0:
        raise ValueError(
            "no whole measurement window between warmup and duration; "
            f"got warmup={config.warmup}, duration={config.duration}"
        )
    counts, gaps = [], []
    for s in replication_seeds(config.seed, replications):
        st = run(replace(config, seed=s))
        counts.append(st.per_interval_counts)
        gaps.append(st.inter_transmission_times)
    return Pooled(config, replications, np.concatenate(counts), np.concatenate(gaps))
