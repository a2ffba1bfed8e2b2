"""Protocol parameters of suppression-based gossip timing.

A node runs intervals of length ``tau``, stays silent for the first
``eta`` fraction of each, picks a broadcast time uniformly in the
remainder, and broadcasts then only if it heard fewer than ``k``
consistent messages so far that interval.  The simulator
(:mod:`tricklesim.engine`) models the steady state, where every interval
has length ``tau_h``; it reads only ``tau_h``.  ``tau_l``, the length the
protocol would double up from, is validated, but no simulation path reads
it; it stays a field because every caller passes it, the benchmark's
workloads included.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from numbers import Integral

__all__ = ["TrickleConfig"]


@dataclass(frozen=True)
class TrickleConfig:
    """Immutable algorithm parameters shared by all nodes.

    Attributes
    ----------
    k : int
        Redundancy constant: a node suppresses its broadcast once it has
        heard ``k`` or more consistent messages in the current interval.
    tau_l : float
        Minimum interval length (time units).
    tau_h : float
        Maximum interval length (time units).
    eta : float
        Listen-only fraction in [0, 1]: no broadcast time is ever drawn in
        the first ``eta`` fraction of an interval.
    """

    k: int
    tau_l: float
    tau_h: float
    eta: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.k, Integral) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if not self.tau_l > 0:
            raise ValueError(f"tau_l must be positive, got {self.tau_l}")
        if not self.tau_h >= self.tau_l:
            raise ValueError(
                f"tau_h must be >= tau_l, got tau_h={self.tau_h} < tau_l={self.tau_l}"
            )
        if not isfinite(self.tau_h):
            raise ValueError(f"tau_h must be finite, got {self.tau_h}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
