"""Independent reference simulator for equivalence tests.

It replays the steady-state suppression rule one event at a time with a
heapq event loop.  Every node runs intervals of length ``tau_h``.  At each
interval start the node sets its heard-message count to 0 and draws its
broadcast offset ``theta = tau_h*(eta + u*(1 - eta))`` from one uniform
draw ``u``.  At its timer it transmits iff it has heard fewer than ``k``
consistent messages this interval; each transmission adds 1 to the count
of every node that hears it.

It consumes each node's random stream in the same order as the
production engine (skew first in uniform mode, then one broadcast offset
per interval) and builds event times with the same float arithmetic, so
the two must agree bit-for-bit on every transmission, whatever tau_h.
"""

from __future__ import annotations

import heapq

import numpy as np

from tricklesim.engine import SimRunConfig, Skew
from tricklesim.topology import SingleCell, neighbor_table, num_nodes


def reference_run(config: SimRunConfig):
    """Replay one run event-by-event.

    Returns (attempt_times, tx_times, tx_nodes) as arrays, unfiltered
    (no warmup cut), in processing order.
    """
    n = num_nodes(config.topology)
    k, eta = config.trickle.k, config.trickle.eta
    tau = config.trickle.tau_h
    dur = config.duration
    if isinstance(config.topology, SingleCell):
        hearers = [[h for h in range(n) if h != i] for i in range(n)]
    else:
        hearers = neighbor_table(config.topology).tolist()

    rngs = [
        np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(i,)))
        for i in range(n)
    ]
    skews = []
    for i in range(n):
        s = rngs[i].random() * tau if config.skew is Skew.UNIFORM_RANDOM else 0.0
        skews.append(s)

    heard = [0] * n
    # Entries are (time, node, sequence); within one node interval start j
    # has sequence 2j and the fire 2j+1, matching the engine's tie-break.
    heap = [(skews[i], i, 0) for i in range(n)]
    heapq.heapify(heap)

    attempts, tx_t, tx_i = [], [], []
    while heap:
        t, i, seq = heapq.heappop(heap)
        j = seq // 2
        if seq % 2 == 0:  # interval start
            heard[i] = 0
            theta = tau * (eta + rngs[i].random() * (1.0 - eta))
            start = skews[i] + tau * j
            nxt = skews[i] + tau * (j + 1)
            fire = min(start + theta, nxt)
            if fire <= dur:
                heapq.heappush(heap, (fire, i, 2 * j + 1))
            if nxt <= dur:
                heapq.heappush(heap, (nxt, i, 2 * j + 2))
        else:  # broadcast timer
            attempts.append(t)
            if heard[i] < k:
                tx_t.append(t)
                tx_i.append(i)
                for h in hearers[i]:
                    heard[h] += 1

    return (
        np.asarray(attempts, dtype=np.float64),
        np.asarray(tx_t, dtype=np.float64),
        np.asarray(tx_i, dtype=np.intp),
    )
