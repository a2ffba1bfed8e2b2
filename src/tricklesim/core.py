"""Per-node state machine for suppression-based gossip timing.

Each node repeats a fixed cycle: it starts an interval of length ``tau``,
stays silent for the first ``eta`` fraction of it, picks a broadcast time
``theta`` uniformly in the remainder, counts consistent messages it hears,
and broadcasts at ``theta`` only if fewer than ``k`` messages arrived so
far this interval.  When the interval ends the length doubles (capped at
``tau_h``).  Only consistent traffic is modelled: the inconsistency reset
of the interval back to ``tau_l`` is not.

All operations are pure: they take a state value plus inputs and return a
new state value, so the same draw sequence always reproduces the same
trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite
from numbers import Integral

__all__ = [
    "TrickleConfig",
    "NodeState",
    "start_interval",
    "initial_state",
    "hear_consistent",
    "timer_fire",
    "interval_end",
]


def _draw(rand) -> float:
    """Return one uniform-[0,1) value from `rand`.

    `rand` may be a plain float in [0,1) (useful in tests) or any object
    with a ``random()`` method such as ``numpy.random.Generator`` or
    ``random.Random``.
    """
    if hasattr(rand, "random"):
        u = float(rand.random())
    else:
        u = float(rand)
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform draw outside [0, 1): {u!r}")
    return u


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


@dataclass(frozen=True)
class NodeState:
    """Snapshot of one node.

    Attributes
    ----------
    tau : float
        Current interval length.
    c : int
        Consistent messages heard so far in the current interval.
    theta : float
        Broadcast time, relative to the interval start.
    interval_start : float
        Absolute time at which the current interval began.
    has_fired : bool
        Whether ``theta`` has already passed in this interval.
    """

    tau: float
    c: int
    theta: float
    interval_start: float
    has_fired: bool = False


def start_interval(state: NodeState, config: TrickleConfig, now: float, rand) -> NodeState:
    """Begin a new interval of length ``state.tau`` at time `now`.

    Resets the message counter, clears the fired flag, and draws the
    broadcast time ``theta`` uniformly from [eta*tau, tau].  The draw maps
    a uniform-[0,1) source onto the half-open window [eta*tau, tau), which
    is the same distribution (the endpoint has probability zero); for
    eta = 1 the window collapses and theta = tau exactly.
    """
    u = _draw(rand)
    theta = state.tau * (config.eta + u * (1.0 - config.eta))
    return replace(state, c=0, theta=theta, interval_start=now, has_fired=False)


def initial_state(config: TrickleConfig, now: float, rand, tau: float | None = None) -> NodeState:
    """Create a node entering its first interval at time `now`.

    The interval length defaults to ``tau_h`` (the steady-state length);
    pass `tau` to start elsewhere in [tau_l, tau_h].
    """
    t = config.tau_h if tau is None else tau
    if not config.tau_l <= t <= config.tau_h:
        raise ValueError(f"tau={t} outside [{config.tau_l}, {config.tau_h}]")
    blank = NodeState(tau=t, c=0, theta=t, interval_start=now)
    return start_interval(blank, config, now, rand)


def hear_consistent(state: NodeState) -> NodeState:
    """Count one consistent message; no other field changes.

    Counting is unconditional: messages heard after the node's own
    broadcast time still increment ``c``.
    """
    return replace(state, c=state.c + 1)


def timer_fire(state: NodeState, config: TrickleConfig) -> tuple[NodeState, bool]:
    """Handle the broadcast timer at ``interval_start + theta``.

    Returns the new state and whether the node transmits: it does iff it
    heard fewer than ``k`` messages so far this interval.  Firing twice in
    one interval is a programming error and raises.
    """
    if state.has_fired:
        raise RuntimeError("timer already fired in this interval")
    transmit = state.c < config.k
    return replace(state, has_fired=True), transmit


def interval_end(state: NodeState, config: TrickleConfig, now: float, rand) -> NodeState:
    """Roll over at ``interval_start + tau``: double ``tau`` (capped at
    ``tau_h``) and start the next interval at `now`."""
    longer = replace(state, tau=min(2.0 * state.tau, config.tau_h))
    return start_interval(longer, config, now, rand)
