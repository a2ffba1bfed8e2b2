"""Network topologies: a single broadcast cell and a square grid.

A single cell is the all-hear-all case: every transmission reaches every
other node.  The grid places ``side x side`` nodes on a unit lattice
(configurable spacing) with a fixed radio range; by default distances wrap
around both axes (a torus), which removes edge effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

__all__ = ["SingleCell", "Grid", "Topology", "num_nodes", "cell_size", "neighbor_table"]


@dataclass(frozen=True)
class SingleCell:
    """All `n` nodes are within mutual communication range."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, Integral) or self.n < 1:
            raise ValueError(f"node count must be an integer >= 1, got {self.n!r}")


@dataclass(frozen=True)
class Grid:
    """``side x side`` nodes on a square lattice with radio range `radio_range`.

    Node ids are row-major: node ``r * side + c`` sits at ``(r * spacing,
    c * spacing)``.  With ``toroidal`` (the default), the distance along
    each axis is ``min(|d|, side * spacing - |d|)``.
    """

    side: int
    radio_range: float
    spacing: float = 1.0
    toroidal: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.side, Integral) or self.side < 1:
            raise ValueError(f"grid side must be an integer >= 1, got {self.side!r}")
        if not self.radio_range > 0:
            raise ValueError(f"radio range must be positive, got {self.radio_range}")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")


Topology = SingleCell | Grid


def num_nodes(topology: Topology) -> int:
    if isinstance(topology, SingleCell):
        return topology.n
    return topology.side * topology.side


def _wrapped_offsets(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Integer lattice offsets (dr, dc) within radio range on the torus.

    Each offset pair in [0, side) x [0, side) is tested once against the
    wraparound distance, so every in-range node is listed exactly once.
    Includes the zero offset (the node itself).
    """
    side = grid.side
    d = np.arange(side)
    wrapped = np.minimum(d, side - d) * grid.spacing
    dist2 = wrapped[:, None] ** 2 + wrapped[None, :] ** 2
    dr, dc = np.nonzero(dist2 <= grid.radio_range**2)
    return dr, dc


def cell_size(grid: Grid, include_self: bool = True) -> int:
    """Number of grid nodes within toroidal range of a fixed node, S(R).

    The broadcaster itself is counted by default; pass
    ``include_self=False`` for the exclusive count (one less).
    """
    if not isinstance(grid, Grid):
        raise TypeError("cell_size is defined for Grid topologies")
    dr, _ = _wrapped_offsets(grid)
    s = int(dr.size)
    return s if include_self else s - 1


def neighbor_table(grid: Grid) -> list[np.ndarray]:
    """Per-node arrays of neighbor ids (nodes that hear its broadcast), in
    ascending order.

    The sender itself is excluded: a node never hears its own
    transmission.  On the torus every node has the same neighbor count;
    without wraparound the sets shrink near the edges.
    """
    side = grid.side
    if grid.toroidal:
        rows, cols = np.divmod(np.arange(side * side), side)
        dr, dc = _wrapped_offsets(grid)
        keep = ~((dr == 0) & (dc == 0))
        dr, dc = dr[keep], dc[keep]
        nbr = ((rows[:, None] + dr[None, :]) % side) * side + (cols[:, None] + dc[None, :]) % side
        return list(np.sort(nbr, axis=1).astype(np.intp))
    # Candidate offsets, row-major, within one spacing beyond the range: for
    # each node, those that stay on the grid give its candidates in
    # ascending id order.  The range test itself compares coordinate
    # differences, as a per-node scan of all nodes would.  One grid row at a
    # time, so the work arrays stay O(side x candidates).
    sp = grid.spacing
    reach = min(side - 1, int(grid.radio_range / sp) + 1)
    d = np.arange(-reach, reach + 1)
    near = (d[:, None] * sp) ** 2 + (d[None, :] * sp) ** 2 <= (grid.radio_range + sp) ** 2
    near[reach, reach] = False
    dr, dc = (d[i] for i in np.nonzero(near))
    cols = np.arange(side)[:, None]
    out = []
    for row in range(side):
        r, c = row + dr, cols + dc
        d2 = (r * sp - row * sp) ** 2 + (c * sp - cols * sp) ** 2
        keep = (r >= 0) & (r < side) & (c >= 0) & (c < side) & (d2 <= grid.radio_range**2)
        ids = (r * side + c)[keep].astype(np.intp)
        out += np.split(ids, np.cumsum(keep.sum(axis=1))[:-1])
    return out
