"""Network topologies: a single broadcast cell and a square torus.

A single cell is the all-hear-all case: every transmission reaches every
other node.  The grid places ``side x side`` nodes on a unit lattice with
a fixed radio range, and distances wrap around both axes (a torus), so
every node hears the same number of others and there are no edge effects.
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
    """``side x side`` nodes on a unit-spacing torus with radio range
    `radio_range`.

    Node ids are row-major: node ``r * side + c`` sits at ``(r, c)``, and
    the distance along each axis is ``min(|d|, side - |d|)``.
    """

    side: int
    radio_range: float

    def __post_init__(self) -> None:
        if not isinstance(self.side, Integral) or self.side < 1:
            raise ValueError(f"grid side must be an integer >= 1, got {self.side!r}")
        if not self.radio_range > 0:
            raise ValueError(f"radio range must be positive, got {self.radio_range}")


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
    wrapped = np.minimum(d, side - d)
    dist2 = wrapped[:, None] ** 2 + wrapped[None, :] ** 2
    dr, dc = np.nonzero(dist2 <= grid.radio_range**2)
    return dr, dc


def cell_size(grid: Grid) -> int:
    """Number of grid nodes within toroidal range of a fixed node, the
    node itself included, S(R)."""
    if not isinstance(grid, Grid):
        raise TypeError("cell_size is defined for Grid topologies")
    dr, _ = _wrapped_offsets(grid)
    return int(dr.size)


def neighbor_table(grid: Grid) -> np.ndarray:
    """The ids of the nodes that hear each node's broadcast, as an
    ``(n, S - 1)`` `np.intp` array with each row in ascending order.

    The sender itself is excluded: a node never hears its own
    transmission.  On the torus every node has the same neighbor count.
    """
    side = grid.side
    rows, cols = np.divmod(np.arange(side * side, dtype=np.intp), side)
    dr, dc = _wrapped_offsets(grid)
    keep = ~((dr == 0) & (dc == 0))
    dr, dc = dr[keep], dc[keep]
    nbr = ((rows[:, None] + dr[None, :]) % side) * side + (cols[:, None] + dc[None, :]) % side
    return np.sort(nbr, axis=1)
