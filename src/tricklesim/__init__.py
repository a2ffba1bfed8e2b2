"""Simulator and analytic toolkit for suppression-based gossip broadcast timing.

Subpackage map:

* :mod:`tricklesim.core` -- the protocol parameters;
* :mod:`tricklesim.topology` -- single-cell and square-torus networks;
* :mod:`tricklesim.engine` -- seeded discrete-event simulation and replication;
* :mod:`tricklesim.residual` -- residual-lifetime Markov chains for an
  arbitrary lifetime distribution;
* :mod:`tricklesim.analytics` -- closed-form/quadrature evaluation of the
  gap laws, message counts, limits, and the grid estimate;
* :mod:`tricklesim.cli` -- the ``tricklesim`` command-line driver.
"""

from .csvio import __version__

__all__ = ["__version__"]
