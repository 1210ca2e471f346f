"""Telescopic relative entropy toolkit.

Numerics for the normalized relative entropy
S(rho || a*rho + (1-a)*sigma) / (-log a) of finite-dimensional quantum
states, its endpoint closed forms, the telescoped relative Renyi
entropies, independent quadrature/finite-difference oracles, and a
randomized verification engine for every bound the library implements.

The package exports the quantities ``telent compute`` and ``telent pure``
report, the Renyi overlap of the bound tr rho^(1-p) sigma^p >= 1 - T, and
the fuzz engine; everything else lives in its submodule.
"""

from .matfun import trace_norm_distance
from .renyi import renyi_overlap, trre
from .tre import (
    relative_entropy,
    telescopic_relative_entropy,
    tre_limit_one,
    tre_limit_zero,
    tre_pure_closed_form,
)
from .verify import FuzzConfig, replay_witness, run_fuzz

__version__ = "0.1.0"
