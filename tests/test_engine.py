import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy import stats

import _reference
from _reference import reference_run
from tricklesim import engine
from tricklesim.core import TrickleConfig
from tricklesim.engine import (
    SimRunConfig,
    Skew,
    node_schedule,
    replicate,
    replication_seeds,
    run,
)
from tricklesim.topology import Grid, SingleCell, cell_size, neighbor_table, num_nodes


def cell_cfg(k, n, eta, duration=60.0, warmup=10.0, seed=0, **kw):
    return SimRunConfig(
        trickle=TrickleConfig(k=k, tau_l=1.0, tau_h=1.0, eta=eta),
        topology=SingleCell(n),
        duration=duration,
        warmup=warmup,
        seed=seed,
        **kw,
    )


# --------------------------------------------------------------------------
# topology

def test_cell_size_reference_values():
    # hand-checked neighborhood sizes on the 50x50 torus
    expected = {1.0: 5, 1.5: 9, 2.0: 13, 4.0: 49, 6.0: 113, 8.0: 197}
    for r, s in expected.items():
        assert cell_size(Grid(side=50, radio_range=r)) == s
        assert cell_size(Grid(side=50, radio_range=r), include_self=False) == s - 1


def test_cell_size_small_grid_wraparound():
    # side 2: offsets (0,1),(1,0) wrap to distance 1; (1,1) to sqrt(2)
    assert cell_size(Grid(side=2, radio_range=1.0)) == 3
    assert cell_size(Grid(side=2, radio_range=1.5)) == 4
    assert cell_size(Grid(side=3, radio_range=1.0)) == 5


def test_cell_size_rejects_single_cell():
    with pytest.raises(TypeError):
        cell_size(SingleCell(5))


@pytest.mark.parametrize("toroidal", [True, False])
def test_neighbor_table_symmetric_no_self(toroidal):
    g = Grid(side=5, radio_range=2.2, toroidal=toroidal)
    nbrs = [set(a.tolist()) for a in neighbor_table(g)]
    for i, s in enumerate(nbrs):
        assert i not in s
        for h in s:
            assert i in nbrs[h]


def brute_force_neighbors(grid):
    """Per node, the other nodes within range, by a scan of all nodes:
    coordinate differences on the flat grid, wrapped lattice offsets on the
    torus."""
    side = grid.side
    rows, cols = np.divmod(np.arange(side * side), side)
    x, y = rows * grid.spacing, cols * grid.spacing
    out = []
    for i in range(side * side):
        if grid.toroidal:
            dr, dc = np.abs(rows - rows[i]), np.abs(cols - cols[i])
            d2 = ((np.minimum(dr, side - dr) * grid.spacing) ** 2
                  + (np.minimum(dc, side - dc) * grid.spacing) ** 2)
        else:
            d2 = (x - x[i]) ** 2 + (y - y[i]) ** 2
        ids = np.nonzero(d2 <= grid.radio_range**2)[0]
        out.append(ids[ids != i])
    return out


@pytest.mark.parametrize("toroidal", [True, False])
def test_neighbor_table_equals_brute_force(toroidal):
    for side in range(1, 13):
        # 0.1 and 0.3 put some ranges on a lattice distance up to rounding
        for spacing in (1.0, 0.5, 0.7, 1.5, 0.1, 0.3):
            for r in (0.5, 1.0, 1.5, 2.2, 3.0, 20.0):
                g = Grid(side=side, radio_range=r, spacing=spacing, toroidal=toroidal)
                table = neighbor_table(g)
                assert len(table) == side * side
                for got, want in zip(table, brute_force_neighbors(g)):
                    assert got.dtype == np.intp
                    assert np.array_equal(got, want), (side, spacing, r)


def test_neighbor_table_torus_uniform_edge_shrinks():
    g = Grid(side=6, radio_range=1.0)
    sizes = {a.size for a in neighbor_table(g)}
    assert sizes == {4}
    flat = Grid(side=6, radio_range=1.0, toroidal=False)
    sizes = [a.size for a in neighbor_table(flat)]
    assert sizes[0] == 2  # corner
    assert max(sizes) == 4


def test_num_nodes():
    assert num_nodes(SingleCell(7)) == 7
    assert num_nodes(Grid(side=4, radio_range=1.0)) == 16


# --------------------------------------------------------------------------
# config validation and determinism

def test_run_config_validation():
    with pytest.raises(ValueError):
        cell_cfg(1, 5, 0.0, duration=5.0, warmup=5.0)
    with pytest.raises(ValueError):
        cell_cfg(1, 5, 0.0, warmup=-1.0)
    for seed in ("abc", 5.0):
        with pytest.raises(ValueError, match="seed must be an integer"):
            cell_cfg(1, 5, 0.0, seed=seed)
    assert cell_cfg(1, 5, 0.0, seed=np.uint64(5)).seed == 5
    for make in (lambda: SingleCell(0), lambda: SingleCell(2.5), lambda: Grid(2.5, 1.0),
                 lambda: cell_cfg(1.5, 5, 0.0)):
        with pytest.raises(ValueError, match="integer"):
            make()
    for duration, warmup in ((math.inf, 10.0), (math.nan, 10.0), (60.0, math.nan),
                             (math.inf, math.inf)):
        with pytest.raises(ValueError):
            cell_cfg(1, 5, 0.0, duration=duration, warmup=warmup)


def test_bit_identical_reruns():
    a = run(cell_cfg(2, 30, 0.3, seed=77))
    b = run(cell_cfg(2, 30, 0.3, seed=77))
    assert np.array_equal(a.transmission_times, b.transmission_times)
    assert np.array_equal(a.transmission_nodes, b.transmission_nodes)
    assert np.array_equal(a.per_interval_counts, b.per_interval_counts)
    c = run(cell_cfg(2, 30, 0.3, seed=78))
    assert not np.array_equal(a.transmission_times, c.transmission_times)


def test_replication_seeds_deterministic_distinct():
    s1 = replication_seeds(9, 64)
    assert s1 == replication_seeds(9, 64)
    assert len(set(s1)) == 64
    assert s1[:32] == replication_seeds(9, 32)


# --------------------------------------------------------------------------
# exact invariants

def test_single_node_synchronized_one_per_window():
    st = run(cell_cfg(1, 1, 0.0, duration=40.0, skew=Skew.SYNCHRONIZED))
    assert np.all(st.per_interval_counts == 1)
    assert st.mean_per_interval == 1.0


@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
def test_single_node_uniform_mean_near_one(eta):
    # absolute windows straddle the node's own skewed intervals, so the
    # window counts are 0/1/2 but the mean is off by at most a boundary term
    st = run(cell_cfg(1, 1, eta, duration=110.0, seed=5))
    w = st.per_interval_counts
    assert set(np.unique(w)) <= {0, 1, 2}
    assert abs(st.mean_per_interval - 1.0) <= 1.5 / w.size


def test_synchronized_cell_exactly_k_per_window():
    for k in (1, 2, 3):
        st = run(cell_cfg(k, 40, 0.0, duration=30.0, skew=Skew.SYNCHRONIZED, seed=2))
        assert np.all(st.per_interval_counts == k)


def test_no_suppression_when_threshold_unreachable():
    # With skewed intervals a listening window can overlap two intervals of
    # each neighbour, so a node can hear up to 2*(n-1) messages per interval.
    # Past that threshold every attempt transmits.
    cfg = cell_cfg(8, 4, 0.2, duration=80.0, seed=13, record_attempts=True)
    st = run(cfg)
    assert np.array_equal(st.attempt_times, st.transmission_times)
    assert abs(st.mean_per_interval - 4.0) <= 1.5 * 4 / st.per_interval_counts.size
    assert sum(st.per_node_counts.values()) == st.total_transmissions


def test_eta_one_single_transmitter():
    # with theta pinned to the interval end, one node wins and suppresses
    # the rest of the cell forever (k=1); two survive at k=2
    st = run(cell_cfg(1, 5, 1.0, duration=60.0, seed=3))
    assert np.all(st.per_interval_counts == 1)
    st = run(cell_cfg(2, 6, 1.0, duration=60.0, seed=3))
    assert st.mean_per_interval == 2.0


def test_gaps_are_diffs_in_window():
    st = run(cell_cfg(2, 20, 0.0, seed=31))
    assert st.inter_transmission_times.size == st.total_transmissions - 1
    assert np.all(st.inter_transmission_times >= 0)
    assert np.allclose(st.inter_transmission_times, np.diff(st.transmission_times))
    assert st.transmission_times.min() > 10.0
    assert st.transmission_times.max() <= 60.0


def test_window_bookkeeping():
    st = run(cell_cfg(1, 10, 0.0, duration=25.5, warmup=3.2, seed=8))
    assert st.first_window == 4
    assert st.per_interval_counts.size == 25 - 4
    assert st.per_interval_counts.sum() <= st.total_transmissions


@pytest.mark.parametrize("warmup", [0.5, 1.5])
def test_window_counts_follow_window_edges(warmup):
    # synchronized, eta = 1: the two lowest node ids transmit at each
    # interval end.  Some of those times sit exactly on a window edge w*0.7
    # (8.399999999999999 = 12*0.7, where floor(t / 0.7) is 11), others round
    # just below it (0.7*12 + 0.7 = 9.099999999999998 < 13*0.7 = 9.1).
    cfg = SimRunConfig(
        trickle=TrickleConfig(k=2, tau_l=0.7, tau_h=0.7, eta=1.0),
        topology=SingleCell(30),
        duration=21.0,
        warmup=warmup,
        seed=61,
        skew=Skew.SYNCHRONIZED,
    )
    st = run(cfg)
    assert 8.399999999999999 in st.transmission_times.tolist()
    assert st.per_interval_counts.size == 30 - st.first_window
    assert np.array_equal(st.per_interval_counts, recount_windows(cfg, st.transmission_times))


def recount_windows(cfg, times):
    """Transmissions per whole window [w*tau_h, (w+1)*tau_h) after warmup,
    counted one window at a time."""
    tau = cfg.trickle.tau_h
    w0 = math.ceil(cfg.warmup / tau)
    windows = range(w0, math.floor(cfg.duration / tau))
    return np.array([sum(w * tau <= t < (w + 1) * tau for t in times.tolist())
                     for w in windows], dtype=np.int64)


def test_per_node_counts_cover_all_nodes():
    st = run(cell_cfg(1, 12, 0.5, seed=21))
    assert sorted(st.per_node_counts) == list(range(12))
    assert sum(st.per_node_counts.values()) == st.total_transmissions


# --------------------------------------------------------------------------
# schedule audit

def test_transmissions_are_scheduled_attempts():
    cfg = cell_cfg(2, 9, 0.3, duration=40.0, seed=17, record_attempts=True)
    st = run(cfg)
    scheduled = set()
    for i in range(9):
        s, thetas = node_schedule(cfg, i)
        for j, th in enumerate(thetas.tolist()):
            scheduled.add(min(s + 1.0 * j + th, s + 1.0 * (j + 1)))
    assert set(st.attempt_times.tolist()) <= scheduled
    assert set(st.transmission_times.tolist()) <= set(st.attempt_times.tolist())


def test_node_schedule_offsets_in_listen_window():
    cfg = cell_cfg(1, 3, 0.6, duration=200.0, seed=4)
    for i in range(3):
        s, thetas = node_schedule(cfg, i)
        assert 0.0 <= s < 1.0
        assert np.all(thetas >= 0.6) and np.all(thetas < 1.0)
        assert thetas.size == math.floor(200.0 - s) + 1


# 0, the word edges of 32, 64, 96, 128 and 200-bit seeds, and replication
# seeds: 45 seeds in all
DERIVED_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 3, 2**127 + 11,
                 2**128, 2**200 + 9, *replication_seeds(7, 24), *replication_seeds(2**70, 10)]


@pytest.mark.parametrize("seed", DERIVED_SEEDS)
def test_node_words_match_seed_sequence(seed):
    n = 300
    words = engine._node_words(seed, n)
    assert words.shape == (n, 4) and words.dtype == np.uint64
    for i in (0, 1, 255, n - 1):
        ss = np.random.SeedSequence(seed, spawn_key=(i,))
        assert np.array_equal(words[i], ss.generate_state(4, np.uint64))
        rng = np.random.Generator(np.random.PCG64(engine._Words(words[i])))
        assert rng.random() == np.random.default_rng(ss).random()


@pytest.mark.parametrize("skew", list(Skew))
def test_streams_match_node_schedule_streams(skew):
    cfg = cell_cfg(2, 40, 0.3, seed=2**96 + 3, skew=skew)
    rngs, s = engine._streams(cfg, 40)
    for i in (0, 1, 39):
        rng, s_i = engine._stream(cfg, i)
        assert s[i] == s_i
        assert np.array_equal(rngs[i].random(5), rng.random(5))


def test_node_words_reject_negative_seed():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1, spawn_key=(0,))
    with pytest.raises(ValueError):
        engine._node_words(-1, 3)
    with pytest.raises(ValueError):
        run(cell_cfg(1, 3, 0.0, seed=-1))


def test_synchronized_schedule_has_no_skew_draw():
    cfg = cell_cfg(1, 2, 0.0, skew=Skew.SYNCHRONIZED, seed=99)
    s, thetas = node_schedule(cfg, 0)
    assert s == 0.0
    # first theta must reuse the stream's first value, not the second
    rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(0,)))
    assert thetas[0] == rng.random()


# --------------------------------------------------------------------------
# equivalence against the event-loop reference

@pytest.fixture
def two_interval_windows(monkeypatch):
    """Build every schedule in windows of two interval indices, so a run
    crosses a chunk boundary every two time units."""
    monkeypatch.setattr(engine, "_SCHEDULE_FIRES", 1)


CELL_CASES = [
    (1, 6, 0.0, Skew.UNIFORM_RANDOM),
    (2, 7, 0.4, Skew.UNIFORM_RANDOM),
    (3, 5, 0.9, Skew.UNIFORM_RANDOM),
    (1, 4, 1.0, Skew.UNIFORM_RANDOM),
    (2, 5, 1.0, Skew.SYNCHRONIZED),
    (1, 8, 0.0, Skew.SYNCHRONIZED),
]


def short_cell(k, n, eta, skew):
    return cell_cfg(k, n, eta, duration=23.0, warmup=2.0, seed=123, skew=skew,
                    record_attempts=True)


@pytest.mark.parametrize("k,n,eta,skew", CELL_CASES)
def test_single_cell_matches_reference(k, n, eta, skew):
    assert_matches_reference(short_cell(k, n, eta, skew))


@pytest.mark.parametrize("k,n,eta,skew", CELL_CASES)
def test_chunked_single_cell_matches_reference(two_interval_windows, k, n, eta, skew):
    assert_matches_reference(short_cell(k, n, eta, skew))


def assert_matches_reference(cfg):
    st = run(cfg)
    att, tx_t, tx_i = reference_run(cfg)
    m = (tx_t > cfg.warmup) & (tx_t <= cfg.duration)
    assert np.array_equal(st.transmission_times, tx_t[m])
    assert np.array_equal(st.transmission_nodes, tx_i[m])
    am = (att > cfg.warmup) & (att <= cfg.duration)
    assert np.array_equal(st.attempt_times, att[am])


LONG_CELL_CASES = [
    # about 12k fires: the sweep crosses many of its scan steps
    (1, 300, 0.0, Skew.UNIFORM_RANDOM),
    (1, 300, 0.5, Skew.UNIFORM_RANDOM),
    (3, 300, 0.0, Skew.UNIFORM_RANDOM),
    (3, 300, 0.5, Skew.UNIFORM_RANDOM),
    (16, 300, 0.0, Skew.UNIFORM_RANDOM),
    (16, 300, 0.5, Skew.UNIFORM_RANDOM),
    (1, 1, 0.0, Skew.UNIFORM_RANDOM),
    (2, 1, 1.0, Skew.SYNCHRONIZED),
    (5, 5, 0.0, Skew.UNIFORM_RANDOM),  # k >= n
    (30, 12, 0.3, Skew.UNIFORM_RANDOM),  # k >= 2(n-1): nothing is suppressed
    (2, 40, 0.5, Skew.SYNCHRONIZED),
    (2, 40, 1.0, Skew.SYNCHRONIZED),
]


def long_cell(k, n, eta, skew):
    return cell_cfg(k, n, eta, duration=40.0, warmup=2.0, seed=9, skew=skew,
                    record_attempts=True)


@pytest.mark.parametrize("k,n,eta,skew", LONG_CELL_CASES)
def test_single_cell_matches_reference_long(k, n, eta, skew):
    assert_matches_reference(long_cell(k, n, eta, skew))


@pytest.mark.parametrize("k,n,eta,skew", LONG_CELL_CASES)
def test_chunked_single_cell_matches_reference_long(two_interval_windows, k, n, eta, skew):
    assert_matches_reference(long_cell(k, n, eta, skew))


@pytest.mark.parametrize("k,eta", [(1, 0.0), (2, 0.0), (1, 1.0), (2, 1.0)])
def test_single_cell_matches_all_in_range_grid(k, eta):
    assert_cell_matches_all_in_range_grid(k, eta)


@pytest.mark.parametrize("k,eta", [(1, 0.0), (2, 0.0), (1, 1.0), (2, 1.0)])
def test_chunked_single_cell_matches_all_in_range_grid(two_interval_windows, k, eta):
    assert_cell_matches_all_in_range_grid(k, eta)


def assert_cell_matches_all_in_range_grid(k, eta):
    # node schedules depend only on (seed, node), so a grid whose radio range
    # covers the whole torus is the same cell swept by the grid kernel
    def cfg(topology):
        return SimRunConfig(
            trickle=TrickleConfig(k=k, tau_l=1.0, tau_h=1.0, eta=eta),
            topology=topology,
            duration=60.0,
            warmup=5.0,
            seed=41,
            record_attempts=True,
        )

    cell = run(cfg(SingleCell(25)))
    grid = run(cfg(Grid(side=5, radio_range=10.0)))
    assert cell.total_transmissions > 0
    assert np.array_equal(cell.transmission_times, grid.transmission_times)
    assert np.array_equal(cell.transmission_nodes, grid.transmission_nodes)
    assert np.array_equal(cell.attempt_times, grid.attempt_times)


GRID_CASES = [(1, 1.0, 0.0), (2, 1.5, 0.5), (1, 2.2, 1.0)]


def grid_cfg(k, r, eta, skew=Skew.UNIFORM_RANDOM):
    return SimRunConfig(
        trickle=TrickleConfig(k=k, tau_l=1.0, tau_h=1.0, eta=eta),
        topology=Grid(side=4, radio_range=r),
        duration=17.0,
        warmup=2.0,
        seed=321,
        skew=skew,
        record_attempts=True,
    )


@pytest.mark.parametrize("k,r,eta", GRID_CASES)
def test_grid_matches_reference(k, r, eta):
    assert_matches_reference(grid_cfg(k, r, eta))


@pytest.mark.parametrize("k,r,eta", GRID_CASES)
def test_chunked_grid_matches_reference(two_interval_windows, k, r, eta):
    assert_matches_reference(grid_cfg(k, r, eta))


LONG_GRID_CASES = [(k, r, eta) for k in (1, 3) for r in (1.5, 3.0) for eta in (0.0, 0.5)]


def long_grid(k, r, eta):
    # 144 nodes over 20 time units: about 2900 fires, so the grid sweep
    # crosses several of its steps
    return SimRunConfig(
        trickle=TrickleConfig(k=k, tau_l=1.0, tau_h=1.0, eta=eta),
        topology=Grid(side=12, radio_range=r),
        duration=20.0,
        warmup=2.0,
        seed=77,
        record_attempts=True,
    )


@pytest.mark.parametrize("k,r,eta", LONG_GRID_CASES)
def test_grid_matches_reference_long(k, r, eta):
    assert_matches_reference(long_grid(k, r, eta))


@pytest.mark.parametrize("k,r,eta", LONG_GRID_CASES)
def test_chunked_grid_matches_reference_long(two_interval_windows, k, r, eta):
    assert_matches_reference(long_grid(k, r, eta))


@pytest.mark.parametrize(
    "cfg",
    [cell_cfg(3, 12, 1.0, duration=30.0, warmup=2.0, seed=5, skew=Skew.SYNCHRONIZED,
              record_attempts=True),
     grid_cfg(2, 1.5, 1.0, skew=Skew.SYNCHRONIZED)],
    ids=["cell", "grid"],
)
def test_chunk_boundary_ties_synchronized_eta_one(two_interval_windows, cfg):
    # every fire is capped at the next interval start, j + 1, so every
    # second fire lands exactly on a window bound, tied with the interval
    # starts of the next window
    st = run(cfg)
    assert np.all(st.attempt_times == np.floor(st.attempt_times))
    assert np.any(st.attempt_times % 2 == 0)
    assert_matches_reference(cfg)


@pytest.mark.parametrize(
    "topology", [SingleCell(30), Grid(side=5, radio_range=1.5)], ids=["cell", "grid"]
)
@pytest.mark.parametrize(
    "skew,eta,tau",
    [(Skew.UNIFORM_RANDOM, 0.3, 0.7), (Skew.SYNCHRONIZED, 1.0, 0.75)],
    ids=["uniform", "sync"],
)
def test_chunking_leaves_runs_unchanged(monkeypatch, topology, skew, eta, tau):
    # window bounds and interval starts are not whole numbers
    cfg = SimRunConfig(
        trickle=TrickleConfig(k=2, tau_l=tau, tau_h=tau, eta=eta),
        topology=topology,
        duration=21.0,
        warmup=1.5,
        seed=61,
        skew=skew,
        record_attempts=True,
    )
    whole = run(cfg)
    monkeypatch.setattr(engine, "_SCHEDULE_FIRES", 1)
    chunked = run(cfg)
    assert whole.total_transmissions > 0
    assert np.array_equal(whole.transmission_times, chunked.transmission_times)
    assert np.array_equal(whole.transmission_nodes, chunked.transmission_nodes)
    assert np.array_equal(whole.attempt_times, chunked.attempt_times)
    assert np.array_equal(whole.per_interval_counts, chunked.per_interval_counts)


@pytest.mark.parametrize(
    "topology", [SingleCell(2), Grid(side=3, radio_range=1.0)], ids=["cell", "grid"]
)
def test_start_rounded_onto_window_bound(monkeypatch, topology):
    # A skew one ulp below tau_h makes every later start of node 0 round up
    # onto a multiple of tau_h, so node 0 starts an interval exactly at each
    # window bound, tied with its own capped fire (eta = 1) there.
    streams = engine._streams

    def skew_near_tau(config, n):
        rngs, s = streams(config, n)
        s[0] = np.nextafter(config.trickle.tau_h, 0.0)
        return rngs, s

    monkeypatch.setattr(engine, "_streams", skew_near_tau)
    cfg = SimRunConfig(
        trickle=TrickleConfig(k=2, tau_l=1.0, tau_h=1.0, eta=1.0),
        topology=topology,
        duration=30.0,
        warmup=2.0,
        seed=3,
        record_attempts=True,
    )
    whole = run(cfg)
    assert np.any(whole.attempt_times == np.floor(whole.attempt_times))
    monkeypatch.setattr(engine, "_SCHEDULE_FIRES", 1)
    chunked = run(cfg)
    assert np.array_equal(whole.transmission_times, chunked.transmission_times)
    assert np.array_equal(whole.transmission_nodes, chunked.transmission_nodes)
    assert np.array_equal(whole.attempt_times, chunked.attempt_times)


def test_chunked_draws_equal_node_schedule(two_interval_windows):
    n = 7
    cfg = cell_cfg(2, n, 0.4, duration=15.5, seed=23)
    rngs, skews = engine._streams(cfg, n)
    chunks = list(engine._interval_chunks(cfg, rngs, skews))
    assert len(chunks) == 8
    fires = np.hstack([c[2] for c in chunks])
    for i in range(n):
        s, thetas = node_schedule(cfg, i)
        j = np.arange(thetas.size)
        assert skews[i] == s
        assert np.array_equal(fires[i][np.isfinite(fires[i])],
                              np.minimum(s + 1.0 * j + thetas, s + 1.0 * (j + 1)))


def test_only_last_two_columns_reach_window_bound(monkeypatch):
    # A fire of interval j lies at or below s + (j+1)*tau_h < (j+2)*tau_h,
    # and rounding brings it up to that value at most, so the chunk loop
    # carries only a window's last two columns into the next window.
    n = 7
    second_last_reached = 0
    for width in (2, 5):
        monkeypatch.setattr(engine, "_SCHEDULE_FIRES", width * n)
        for tau in (1.0, 0.7, 0.1):
            for eta in (0.0, 0.4, 1.0):
                for skew in ("near_tau", *Skew):
                    cfg = SimRunConfig(
                        trickle=TrickleConfig(k=1, tau_l=tau, tau_h=tau, eta=eta),
                        topology=SingleCell(n),
                        duration=60 * tau,
                        warmup=0.0,
                        seed=5,
                        skew=Skew.UNIFORM_RANDOM if skew == "near_tau" else skew,
                    )
                    rngs, s = engine._streams(cfg, n)
                    if skew == "near_tau":
                        s[:] = np.nextafter(tau, 0.0)
                    for bound, j, fires in engine._interval_chunks(cfg, rngs, s):
                        assert fires.shape[1] == j.size
                        if np.isfinite(bound):
                            assert j.size == width
                            assert np.all(fires[:, :-2] < bound)
                            if skew == "near_tau" and eta == 1.0:
                                second_last_reached += int(np.sum(fires[:, -2] >= bound))
    assert second_last_reached > 0


def tie_cases():
    # long enough, and shuffled, that numpy's unstable sort reorders the ties
    rng = np.random.default_rng(12)
    return {
        "all_equal": np.full(300, 2.0),
        "tied_runs_at_both_ends": rng.permutation(
            np.concatenate([np.zeros(60), 1.0 + rng.random(100), np.full(60, 5.0)])),
        "neighbouring_tied_runs": rng.permutation(np.repeat([1.0, 2.0, 2.5], 70)),
        "inf": rng.permutation(np.concatenate([np.full(50, np.inf), np.repeat([0.0, 1.0], 40)])),
        "one": np.array([4.2]),
        "empty": np.empty(0),
    }


@pytest.mark.parametrize("name", list(tie_cases()))
def test_time_order_keeps_ties_in_index_order(name):
    t = tie_cases()[name]
    assert np.array_equal(engine._time_order(t), np.argsort(t, kind="stable"))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(hs.lists(hs.sampled_from([0.0, 0.7, 1.0, 2.5, np.inf]), max_size=400))
def test_time_order_matches_stable_sort_fuzz(values):
    t = np.array(values, dtype=float)
    assert np.array_equal(engine._time_order(t), np.argsort(t, kind="stable"))


@pytest.mark.parametrize(
    "topology,short_run,long_run",
    # the short run is one schedule chunk of 2**17 // n interval indices
    # (262 for the cell, 327 for the grid), the long one about eight
    [(SingleCell(500), 260.0, 2010.0), (Grid(side=20, radio_range=2.0), 320.0, 2560.0)],
    ids=["cell", "grid"],
)
def test_run_memory_does_not_grow_with_duration(topology, short_run, long_run):
    def cfg(duration):
        return SimRunConfig(
            trickle=TrickleConfig(k=2, tau_l=1.0, tau_h=1.0, eta=0.5),
            topology=topology,
            duration=duration,
            seed=3,
        )

    def peak(duration):
        tracemalloc.start()
        try:
            run(cfg(duration))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run(cfg(20.0))  # import numpy's lazy parts untraced
    # the 8x longer run holds the same schedule chunk and 8x the transmissions
    short, long = peak(short_run), peak(long_run)
    assert long < 2 * short


@hs.composite
def fuzz_configs(draw):
    tau = draw(hs.sampled_from([1.0, 0.7, 0.75, 3.0]))
    if draw(hs.booleans()):
        topology = SingleCell(draw(hs.integers(1, 40)))
        heard = topology.n - 1
    else:
        topology = Grid(side=draw(hs.integers(1, 6)),
                        radio_range=draw(hs.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 10.0])),
                        toroidal=draw(hs.booleans()))
        heard = max(a.size for a in neighbor_table(topology))
    # a node hears up to twice its neighbourhood in one interval
    k = draw(hs.integers(1, 2 * heard + 2))
    eta = draw(hs.one_of(hs.sampled_from([0.0, 1.0]), hs.floats(0.0, 1.0, exclude_max=True)))
    warmup = tau * draw(hs.floats(0.0, 3.0))
    cfg = SimRunConfig(
        trickle=TrickleConfig(k=k, tau_l=tau, tau_h=tau, eta=eta),
        topology=topology,
        duration=warmup + tau * draw(hs.floats(0.3, 12.0)),
        warmup=warmup,
        seed=draw(hs.integers(0, 2**64 - 1)),
        skew=draw(hs.sampled_from(list(Skew))),
        record_attempts=True,
    )
    sizes = (draw(hs.sampled_from([1, 7, engine._SCHEDULE_FIRES])),
             draw(hs.sampled_from([1, 3, engine._GRID_STEP])))
    return cfg, sizes


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(fuzz_configs())
def test_run_matches_reference_fuzz(case):
    cfg, (schedule_fires, grid_step) = case
    saved = engine._SCHEDULE_FIRES, engine._GRID_STEP
    engine._SCHEDULE_FIRES, engine._GRID_STEP = schedule_fires, grid_step
    try:
        st = run(cfg)
    finally:
        engine._SCHEDULE_FIRES, engine._GRID_STEP = saved
    att, tx_t, tx_i = reference_run(cfg)
    m = (tx_t > cfg.warmup) & (tx_t <= cfg.duration)
    assert np.array_equal(st.transmission_times, tx_t[m])
    assert np.array_equal(st.transmission_nodes, tx_i[m])
    am = (att > cfg.warmup) & (att <= cfg.duration)
    assert np.array_equal(st.attempt_times, att[am])
    assert st.first_window == math.ceil(cfg.warmup / cfg.trickle.tau_h)
    assert np.array_equal(st.per_interval_counts, recount_windows(cfg, st.transmission_times))
    assert sum(st.per_node_counts.values()) == st.total_transmissions


def test_reference_fuzz_many_seeds():
    for seed in range(20):
        cfg = cell_cfg(2, 5, 0.25, duration=11.0, warmup=1.0, seed=seed)
        st = run(cfg)
        _, tx_t, tx_i = reference_run(cfg)
        m = (tx_t > 1.0) & (tx_t <= 11.0)
        assert np.array_equal(st.transmission_times, tx_t[m]), f"seed {seed}"
        assert np.array_equal(st.transmission_nodes, tx_i[m]), f"seed {seed}"


def oracle_dependencies(source: str) -> list[str]:
    """What `source` takes from the package that an independent oracle must
    not: `tricklesim.core`, or an underscore name of a tricklesim module,
    imported or read as an attribute of an imported name."""
    found, bound = [], set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs = [(a.name, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            pairs = [(f"{node.module}.{a.name}", a.asname or a.name) for a in node.names]
        else:
            continue
        for path, name in pairs:
            parts = path.split(".")
            if parts[0] == "tricklesim":
                bound.add(name)
                if parts[1:2] == ["core"] or any(p.startswith("_") for p in parts):
                    found.append(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(ast.unparse(node))
    return found


def test_reference_stays_independent_of_engine_internals():
    # The oracle restates the suppression rule; leaning on the engine's
    # private helpers (_streams, _thetas, _fires_before) would let a fault
    # in them pass both sides of the equivalence tests.
    assert oracle_dependencies(Path(_reference.__file__).read_text()) == []
    for bad in ("from tricklesim.core import TrickleConfig",
                "from tricklesim import core",
                "import tricklesim.core as c",
                "from tricklesim.engine import run, _thetas",
                "from tricklesim import engine\nengine._streams(None, 1)",
                "import tricklesim.engine as e\ne._fires_before",
                "import tricklesim.engine\ntricklesim.engine._thetas"):
        assert oracle_dependencies(bad), bad


# --------------------------------------------------------------------------
# replication and the attempt process

def test_sweep_pools_windows():
    cfg = cell_cfg(1, 10, 0.0, duration=30.0, seed=5)
    res = replicate(cfg, replications=4)
    assert res.config == cfg
    assert res.replications == 4
    assert res.counts.size == 4 * 20
    assert res.ci_halfwidth > 0
    assert 1.0 < res.mean < 10.0
    again = replicate(cfg, replications=4)
    assert np.array_equal(again.counts, res.counts)
    assert np.array_equal(again.gaps, res.gaps)


def test_sweep_validation():
    with pytest.raises(ValueError):
        replicate(cell_cfg(1, 5, 0.0), replications=0)
    with pytest.raises(ValueError):
        replicate(cell_cfg(1, 5, 0.0, duration=10.4, warmup=9.7), replications=1)


@pytest.mark.parametrize(
    "topology", [SingleCell(30), Grid(side=5, radio_range=1.5)], ids=["cell", "grid"]
)
def test_replicate_matches_hand_loop(topology):
    cfg = SimRunConfig(
        trickle=TrickleConfig(k=2, tau_l=1.0, tau_h=1.0, eta=0.3),
        topology=topology,
        duration=25.0,
        warmup=3.5,
        seed=17,
    )
    counts, gaps = [], []
    for s in replication_seeds(cfg.seed, 3):
        st = run(SimRunConfig(trickle=cfg.trickle, topology=topology, duration=25.0,
                              warmup=3.5, seed=s))
        counts.append(st.per_interval_counts)
        gaps.append(st.inter_transmission_times)
    pool = np.concatenate(counts)
    std = float(pool.std(ddof=1))

    res = replicate(cfg, 3)
    assert np.array_equal(res.counts, pool)
    assert np.array_equal(res.gaps, np.concatenate(gaps))
    assert res.mean == float(pool.mean())
    assert res.std == std
    assert res.ci_halfwidth == 1.96 * std / math.sqrt(pool.size)


def attempt_ks(n, eta, duration, seed):
    """KS distance of the n-scaled inter-attempt gaps of a k=1 cell from Exp(1)."""
    st = run(cell_cfg(1, n, eta, duration=duration, seed=seed, record_attempts=True))
    return stats.kstest(np.diff(st.attempt_times) * n, "expon").statistic


def test_attempt_process_poisson_in_large_cell():
    assert attempt_ks(200, 0.0, 110.0, seed=1) < 0.02
    assert attempt_ks(200, 0.5, 110.0, seed=1) < 0.02


def test_attempt_process_far_from_poisson_single_node():
    assert attempt_ks(1, 0.0, 510.0, seed=1) > 0.1
