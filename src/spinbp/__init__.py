"""Gibbs states of Heisenberg spin chains, three ways.

Exact diagonalization, Suzuki-Trotter mapping to a classical chain
contracted with belief propagation, and operator-valued belief propagation,
plus fidelity / trace-distance comparison and a benchmarking CLI.

The top level holds the documented API: the model builders, the three
engines, the two metrics and the errors they raise.  Everything else is
imported from its module (``spinbp.qbp``, ``spinbp.cbp``, ...).
"""

from .linalg import NoConvergenceError, NotHermitianError, partial_trace
from .spinchain import SpinChainModel, exact_gibbs, heisenberg_chain, xxz_chain
from .trotter import st_reduced, trotter_plan
from .qbp import qbp_run
from .metrics import NotDensityMatrixError, fidelity, trace_distance

__version__ = "0.1.0"
