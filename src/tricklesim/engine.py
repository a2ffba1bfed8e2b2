"""Seeded discrete-event simulation of the steady-state broadcast process.

Every node runs the suppression timer with a fixed interval length
``tau_h`` (the steady-state regime: all messages consistent, intervals
never shrink or grow).  Each node's interval starts and timer fires come
from its own seeded stream; simultaneous events are ordered by (time, node
id, per-node sequence).

Only the fires are scheduled and sorted.  Each fire is tagged with ``lo``,
the number of fires ahead of its own interval start in that order, and fire
``p`` of node ``i`` transmits iff fewer than ``k`` transmissions that ``i``
hears lie at positions ``[lo_p, p)``.  The fires are built in time chunks.
A window of interval indices ``[j0, j0 + W)`` draws ``W`` offsets from
every node's stream and emits the fires before ``B = (j0 + W)*tau_h``;
every fire of a later interval is at or after ``B``, so the few fires at
or past it carry over to the next window.  A chunk is laid out in (node,
sequence) order, carried fires first, and sorted stably on time, so chunks
split no tie and their concatenation is the whole schedule in (time, node,
sequence) order.  ``W = max(2, _SCHEDULE_FIRES // n)``: a chunk holds about
2**17 fires of the n nodes, so a run's memory is O(n + chunk) whatever its
duration.  Runs of up to 2**17 fires (small cells over the usual horizons)
are one chunk.  The constant is fixed, not a setting: results do not
depend on it, and it trades per-chunk work for memory.

One chunk loop serves both topologies; only the sweep over a chunk's
sorted fires differs:

* single cell -- every node hears every transmission, so a fire transmits
  iff the k-th most recent transmission lies before its ``lo``; a
  vectorized scan steps through the candidate transmitters alone,
  carrying the last k transmissions from chunk to chunk;
* grid -- each node counts the transmissions it has heard so far, and the
  count at its latest interval start bounds what a fire has heard from
  below.  Taken ``_GRID_STEP`` fires at a time, that bound suppresses most
  fires in one vectorized test, and the few left are resolved together
  against the step's earlier transmitters among their neighbors
  (`_GridSweep`); the counts carry from chunk to chunk.

Determinism: node ``i``'s draws come from the PCG64 stream of
``SeedSequence(seed, spawn_key=(i,))``, so runs are bit-reproducible,
changing the node count does not perturb the other nodes' draws, and
drawing a stream in pieces yields the same values as drawing it at once
(`node_schedule`).  `run` derives every node's PCG64 state words in one
vectorized pass (`_node_words`): the seed sequence's mixing of the seed
words is shared by all nodes and done once, and only its last step, which
folds in the node id, is array arithmetic.  `node_schedule` builds numpy's
own `SeedSequence`, so it stays the oracle for those words.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import ceil, floor, sqrt

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

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


def _stream(config: SimRunConfig, node_id: int):
    """Node ``node_id``'s generator and interval skew (its first draw in
    uniform-random mode; zero, with no draw, when synchronized), seeded
    through numpy's own `SeedSequence`."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(node_id,)))
    if config.skew is Skew.UNIFORM_RANDOM:
        return rng, rng.random() * config.trickle.tau_h
    return rng, 0.0


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): a pool
# of 4 uint32 words, hashed and mixed as below.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(h: int, mult: int):
    """Successive (hash constant, next constant) pairs, from ``h`` on."""
    while True:
        h_next = (h * mult) & _MASK32
        yield h, h_next
        h = h_next


def _hash(value, h, h_next):
    """SeedSequence's hash of ``value`` with constants ``h`` and ``h_next``
    (Python ints, or uint32 arrays that broadcast)."""
    value = ((value ^ h) * h_next) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    value = (((_MIX_L * x) & _MASK32) - _MIX_R * y) & _MASK32
    return value ^ (value >> 16)


def _node_words(seed: int, n: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)``
    for every node id ``i < n``, as an (n, 4) array.

    The entropy is the seed's uint32 words (zero-padded to the pool size)
    followed by ``i``.  Every mixing step before ``i`` is folded in is the
    same for all nodes and runs once on Python ints; the last step and the
    state generation run on (n, pool) uint32 arrays.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (_POOL - len(entropy))
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(value, *next(consts)) for value in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(consts)))
    for value in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hash(value, *next(consts)))
    # the node id is hashed into each pool word with the next constant
    h, h_next = np.array([next(consts) for _ in range(_POOL)], dtype=np.uint32).T
    node = np.arange(n, dtype=np.uint32)[:, None]
    pool = _mix(np.array(pool, dtype=np.uint32), _hash(node, h, h_next))
    # generate_state cycles through the pool for 8 uint32 words
    consts = _hash_constants(_INIT_B, _MULT_B)
    g, g_next = np.array([next(consts) for _ in range(2 * _POOL)], dtype=np.uint32).T
    state = _hash(np.tile(pool, 2), g, g_next)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _Words(ISeedSequence):
    """Hands a bit generator precomputed state words (a `_node_words` row):
    the words PCG64 asks for, ``generate_state(4, np.uint64)``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _streams(config: SimRunConfig, n: int):
    """Every node's generator and the (n,) array of interval skews, each
    equal to `_stream`'s for that node."""
    rngs = [Generator(PCG64(_Words(w))) for w in _node_words(config.seed, n)]
    if config.skew is Skew.UNIFORM_RANDOM:
        return rngs, np.array([rng.random() for rng in rngs]) * config.trickle.tau_h
    return rngs, np.zeros(n)


def _thetas(trickle: TrickleConfig, u):
    """Broadcast offsets in ``[eta*tau_h, tau_h)`` from uniform draws."""
    return trickle.tau_h * (trickle.eta + u * (1.0 - trickle.eta))


def node_schedule(config: SimRunConfig, node_id: int) -> tuple[float, np.ndarray]:
    """Deterministic schedule for one node: (first interval start, theta draws).

    The node's stream yields its interval skew first (uniform-random mode
    only), then one broadcast offset per interval.  Interval ``j`` runs
    over ``[s + j*tau_h, s + (j+1)*tau_h)`` and its broadcast time is
    ``s + j*tau_h + theta_j`` with ``theta_j`` in ``[eta*tau_h, tau_h)``.
    Exposed so tests can audit a run event-by-event; `run` draws the same
    values in pieces.
    """
    rng, s = _stream(config, node_id)
    n_intervals = int(floor((config.duration - s) / config.trickle.tau_h)) + 1
    return s, _thetas(config.trickle, rng.random(n_intervals))


# Fires per schedule chunk: each chunk covers max(2, _SCHEDULE_FIRES // n)
# interval indices of every node.  2**17 keeps a chunk's arrays to a few MB;
# at 2**16 the per-window stream draws start to cost time at n = 2000.
_SCHEDULE_FIRES = 1 << 17


def _interval_chunks(config: SimRunConfig, rngs, s: np.ndarray):
    """Every node's intervals, in windows of consecutive interval indices.

    Yields (bound, j, starts, fires) per window: ``j`` holds the window's
    interval indices, ``starts`` and ``fires`` are (node, index) arrays, +inf
    where a node has no interval ``j``.  Every event of a later window is at
    or after ``bound`` (+inf for the last window).  Each node's offsets are
    drawn window by window from its stream, so they equal `node_schedule`'s.
    """
    tau = config.trickle.tau_h
    n = s.size
    m = np.floor((config.duration - s) / tau).astype(np.intp) + 1
    end = int(m.max())
    width = max(2, _SCHEDULE_FIRES // n)
    for j0 in range(0, end, width):
        j = np.arange(j0, min(j0 + width, end))
        u = np.zeros((n, j.size))
        drawn = np.maximum(np.minimum(m - j0, j.size), 0)
        for rng, row, d in zip(rngs, u, drawn.tolist()):
            rng.random(out=row[:d])
        starts = s[:, None] + tau * j
        # Cap each fire at the next interval start as computed here, so a
        # fire at offset tau (eta = 1, or rounding on the last ulp) compares
        # equal to the rollover time and the tie-break keeps it inside its
        # own interval.
        fires = np.minimum(starts + _thetas(config.trickle, u), s[:, None] + tau * (j + 1))
        if drawn.min() < j.size:
            gone = j >= m[:, None]
            starts[gone] = np.inf
            fires[gone] = np.inf
        bound = tau * (j0 + j.size) if j0 + j.size < end else np.inf
        del u
        yield bound, j, starts, fires
        del starts, fires  # freed before the next window is drawn


def _chunk_order(t: np.ndarray, carry_t, carry_node, bound: float, duration: float):
    """Lay out and order one chunk: a window's fires plus those carried in.

    ``t`` holds the window's fire times as a (node, interval) array;
    carried fire ``r`` (in (node, sequence) order) is source index
    ``t.size + r`` and goes to the head of its node's row, so the layout
    stays in (node, sequence) order and one stable sort on time yields the
    (time, node, sequence) order.  Returns (src_t, src_node, now, later):
    the source times and nodes, the sorted source indices of the fires
    before ``bound``, and those of the fires in ``[bound, duration]``,
    which carry on, in layout order.
    """
    n, width = t.shape
    src_t = np.concatenate([t.ravel(), carry_t])
    src_node = np.concatenate([np.repeat(np.arange(n), width), carry_node])
    ix = np.arange(t.size)
    if carry_t.size:
        ix = np.insert(ix, carry_node * width, np.arange(t.size, src_t.size))
    tl = src_t[ix]
    live = tl <= duration
    now = ix[live & (tl < bound)]
    return src_t, src_node, now[np.argsort(src_t[now], kind="stable")], ix[live & (tl >= bound)]


def _fires_before(t, node, start, start_node, n: int) -> np.ndarray:
    """For each interval start, the number of fires of sorted ``t`` that
    precede it in the (time, node, sequence) order.

    A fire at exactly a start time precedes that start iff its node id is
    no larger; that tie-break keeps eta = 1 and synchronized skew exact.
    (A node's own fire at offset zero also counts, giving ``lo[p] = p + 1``
    for that fire ``p``, which the sweep treats the same as ``p``.)
    """
    lo = np.searchsorted(t, start)
    if t.size:
        tie = np.flatnonzero(t[np.minimum(lo, t.size - 1)] == start)
        if tie.size:
            # Rank fires by (first position of their time, node); a tied
            # start then sits after every fire of its time with node id <=
            # its own.
            new_time = np.ones(t.size, dtype=bool)
            new_time[1:] = t[1:] != t[:-1]
            first = np.maximum.accumulate(np.where(new_time, np.arange(t.size), 0))
            lo[tie] = np.searchsorted(
                first * n + node, lo[tie] * n + start_node[tie], side="right"
            )
    return lo


def _run_chunks(config: SimRunConfig, n: int, sweep):
    """Transmission times and nodes, and attempt times, of a run.

    Each chunk's fires are tagged with ``lo``, the number of fires of the
    whole run ahead of their interval start, computed in the window of
    that start: a start before the window's bound has every fire up to its
    time in this chunk or an earlier one.  A carried fire keeps its ``lo``
    unless its start is itself at or past the bound, which only rounding
    on the last ulp can bring about.

    ``sweep(node, lo, offset, start_node, start_lo)`` decides one chunk's
    sorted fires, the first of which is fire ``offset`` of the run, and
    returns the positions within the chunk of those that transmit.
    ``start_node`` and ``start_lo`` list, in two pieces each, the interval
    starts that the chunk reaches: the window's own and those of carried
    fires that no fire of the last chunk followed.
    """
    tau = config.trickle.tau_h
    rngs, s = _streams(config, n)
    # Starts listed by (interval index, skew rank) come out in time order,
    # up to rounding, which keeps the search for them cache-friendly.
    rank = np.argsort(s, kind="stable")
    s_ranked = s[rank]
    carry_t = carry_start = np.empty(0)
    carry_node = carry_lo = np.empty(0, dtype=np.intp)
    done = 0
    prev_bound = -np.inf
    tx_t, tx_i, attempts = [], [], []
    for bound, j, starts, fires in _interval_chunks(config, rngs, s):
        src_t, src_node, now, later = _chunk_order(
            fires, carry_t, carry_node, bound, config.duration
        )
        t, node = src_t[now], src_node[now]
        redo = carry_start >= prev_bound
        start_node = np.tile(rank, j.size)
        lo = done + _fires_before(
            t,
            node,
            np.concatenate([(s_ranked + (tau * j)[:, None]).ravel(), carry_start[redo]]),
            np.concatenate([start_node, carry_node[redo]]),
            n,
        )
        start_lo = lo[: fires.size]
        carry_lo[redo] = lo[fires.size:]
        lo_new = np.empty((n, j.size), dtype=np.intp)
        lo_new[rank] = start_lo.reshape(j.size, n).T
        src_lo = np.concatenate([lo_new.ravel(), carry_lo])
        reached = carry_lo >= done
        tx = sweep(
            node,
            src_lo[now],
            done,
            [start_node, carry_node[reached]],
            [start_lo, carry_lo[reached]],
        )
        tx_t.append(t[tx])
        tx_i.append(node[tx])
        if config.record_attempts:
            attempts.append(t[t > config.warmup])
        src_start = np.concatenate([starts.ravel(), carry_start])
        carry_t, carry_node = src_t[later], src_node[later]
        carry_start, carry_lo = src_start[later], src_lo[later]
        done += t.size
        prev_bound = bound
        # drop this chunk's arrays before the next one is built
        del src_t, src_node, now, t, node, lo, start_node, start_lo, lo_new, src_lo, src_start
        del starts, fires
    return _joined(tx_t, np.float64), _joined(tx_i, np.intp), _joined(attempts, np.float64)


# Fewest fires scanned per vectorized step of the single-cell sweep.
_MIN_CHUNK = 256


def _sweep_single_cell(lo: np.ndarray, k: int, offset: int, recent: list[int]) -> np.ndarray:
    """Positions, within the chunk, of the transmitting fires of one chunk
    of a single cell's fires, the first of which is fire ``offset``.

    Every node hears every transmission, so fire ``p`` transmits iff fewer
    than ``k`` transmissions lie at positions ``[lo[p], p)``: iff
    ``lo[p] > thr``, where ``thr`` is the position of the k-th most recent
    transmission (-1 while there are fewer than k).  ``thr`` only grows, so
    the fires of a step that pass the test against the step's starting
    ``thr`` are a superset of its transmissions; only those are re-tested
    one by one.  ``recent`` holds the positions of the last k transmissions
    of the earlier chunks and is updated in place.
    """
    before = len(recent)
    thr = recent[-k] if before >= k else -1
    pos = 0
    while pos < lo.size:
        end = pos + max(_MIN_CHUNK, pos + offset - thr)
        seg = lo[pos:end]
        cand = np.flatnonzero(seg > thr)
        for p, lo_p in zip((cand + (pos + offset)).tolist(), seg[cand].tolist()):
            if lo_p > thr:
                recent.append(p)
                if len(recent) >= k:
                    thr = recent[-k]
        pos = end
    tx = np.asarray(recent[before:], dtype=np.intp) - offset
    del recent[:-k]
    return tx


# Fires per step of the grid sweep.  Fixed, not a setting, like the chunk:
# results do not depend on it; it trades the per-step numpy calls against
# the fires of a step that the heard-count bound keeps.
_GRID_STEP = 512


def _pairs(rows: np.ndarray, nodes: np.ndarray, flag: np.ndarray, index: np.ndarray):
    """Every (r, q) with ``nodes[q]`` in ``rows[r]``, by one gather of
    ``rows`` through ``flag``.  ``flag`` and ``index`` are node-indexed
    work arrays; ``flag`` is False everywhere (the padding id included)
    and is left so.  A node listed more than once in ``nodes`` is matched
    in further rounds."""
    width = rows.shape[1]
    flat = rows.ravel()
    out_r, out_q = [], []
    todo = np.arange(nodes.size)
    while todo.size:
        at = nodes[todo]
        flag[at] = True
        index[at] = todo
        hit = np.flatnonzero(flag[rows])
        out_r.append(hit // width)
        out_q.append(index[flat[hit]])
        flag[at] = False
        todo = todo[index[at] != todo]
    return _joined(out_r, np.intp), _joined(out_q, np.intp)


class _GridSweep:
    """Grid sweep over a run's chunks of sorted, ``lo``-tagged fires.

    Fire ``p`` of node ``i`` transmits iff fewer than ``k`` transmissions
    by i's neighbors lie at positions ``[lo[p], p)``.  ``heard[i]`` counts
    the transmissions node i has heard so far and only grows; ``base[i]``
    is ``heard[i]`` at i's latest interval start.  The fires are taken
    ``_GRID_STEP`` at a time:

    * a fire whose interval started before the step has heard at least
      ``heard[i] - base[i]`` by now, so it is suppressed if that reaches
      ``k``; one whose interval starts inside the step has heard 0 so far;
    * the fires left are resolved together: each adds the earlier ones of
      the step that transmitted, are its neighbors and lie at or after its
      ``lo``.  Those pairs come from one gather of the padded neighbor
      matrix, and as they all point backwards, re-deciding every fire from
      "all transmit" settles on the exact answer within as many rounds as
      the longest chain of pairs;
    * the starts whose ``lo`` falls in the step get their ``base``:
      ``heard`` before the step plus the step's transmissions ahead of
      ``lo`` that the node hears; then ``heard`` takes the step's
      transmissions.

    ``heard`` and ``base`` carry from chunk to chunk.
    """

    def __init__(self, grid, n: int, k: int):
        table = neighbor_table(grid)
        sizes = np.fromiter((a.size for a in table), dtype=np.intp, count=n)
        # Rows padded with node id n, which no node is; the node-indexed
        # arrays have an entry for it that is never read.
        self.nbr = np.full((n, int(sizes.max())), n, dtype=np.intp)
        self.nbr[np.arange(self.nbr.shape[1]) < sizes[:, None]] = _joined(table, np.intp)
        self.k = k
        self.heard = np.zeros(n + 1, dtype=np.intp)
        self.base = np.zeros(n + 1, dtype=np.intp)
        self.flag = np.zeros(n + 1, dtype=bool)
        self.index = np.zeros(n + 1, dtype=np.intp)

    def __call__(self, node, lo, offset: int, start_node, start_lo) -> np.ndarray:
        k, nbr, heard, base = self.k, self.nbr, self.heard, self.base
        marks = self.flag, self.index
        start_node, start_lo = np.concatenate(start_node), np.concatenate(start_lo)
        by_lo = np.argsort(start_lo, kind="stable")
        start_node, start_lo = start_node[by_lo], start_lo[by_lo] - offset
        steps = np.append(np.arange(0, node.size, _GRID_STEP), node.size)
        cuts = np.searchsorted(start_lo, steps).tolist()
        steps = steps.tolist()
        tx = []
        for a, b, c0, c1 in zip(steps, steps[1:], cuts, cuts[1:]):
            seg = node[a:b]
            seg_lo = lo[a:b] - (offset + a)
            count = heard[seg] - base[seg]
            count[seg_lo >= 0] = 0
            cand = np.flatnonzero(count < k)
            cand_node = seg[cand]
            rows = nbr[cand_node]
            count = count[cand]
            later, earlier = _pairs(rows, cand_node, *marks)
            keep = (earlier < later) & (cand[earlier] >= seg_lo[cand[later]])
            sends = count < k
            if keep.any():
                # every pair points backwards, so this settles (class docstring)
                later, earlier = later[keep], earlier[keep]
                while True:
                    again = count + np.bincount(later, sends[earlier], count.size) < k
                    if np.array_equal(again, sends):
                        break
                    sends = again
            rows = rows[sends]
            sent = cand[sends]
            if c1 > c0:
                starting = start_node[c0:c1]
                r, q = _pairs(rows, starting, *marks)
                ahead = sent[r] < start_lo[c0:c1][q] - a
                heard_at_start = heard[starting] + np.bincount(q[ahead], minlength=starting.size)
                # heard only grows, so the largest is the node's latest start
                np.maximum.at(base, starting, heard_at_start)
            np.add.at(heard, rows, 1)
            tx.append(sent + a)
        return _joined(tx, np.intp)


def _joined(parts: list, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


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
        recent: list[int] = []

        def sweep(node, lo, offset, start_node, start_lo):
            return _sweep_single_cell(lo, k, offset, recent)
    else:
        sweep = _GridSweep(config.topology, n, k)
    tx_times, tx_nodes, attempts = _run_chunks(config, n, sweep)

    tau = config.trickle.tau_h
    m = tx_times > config.warmup
    tx_times = tx_times[m]
    tx_nodes = tx_nodes[m]

    w0, n_windows = _windows(config)
    # Window w is [w*tau_h, (w+1)*tau_h), with the edges computed as such
    # (not by dividing the times by tau_h, which rounds differently).
    edges = np.arange(w0, w0 + n_windows + 1) * tau
    idx = np.searchsorted(edges, tx_times, side="right") - 1
    per_interval = np.bincount(idx[(idx >= 0) & (idx < n_windows)], minlength=n_windows)

    per_node = dict(enumerate(np.bincount(tx_nodes, minlength=n).tolist()))

    return SimStats(
        config=config,
        transmission_times=tx_times,
        transmission_nodes=tx_nodes,
        inter_transmission_times=np.diff(tx_times),
        per_interval_counts=per_interval,
        per_node_counts=per_node,
        first_window=w0,
        attempt_times=attempts if config.record_attempts else None,
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
