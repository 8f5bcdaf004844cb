"""Gibbs states of Heisenberg spin chains, three ways.

Exact diagonalization, Suzuki-Trotter mapping to a classical chain
contracted with belief propagation, and operator-valued belief propagation,
plus fidelity / trace-distance comparison and a benchmarking CLI.
"""

from .linalg import (
    DomainError,
    HermitianEigen,
    NoConvergenceError,
    NotHermitianError,
    abs_trace_norm,
    herm_eig,
    kron,
    partial_trace,
)
from .spinchain import (
    SpinChainModel,
    exact_gibbs,
    heisenberg_chain,
    heisenberg_term,
    total_hamiltonian,
    xxz_chain,
    xxz_term,
)
from .cbp import (
    FactorChain,
    NotAnEdgeError,
    NotATreeError,
    StateSpaceTooLargeError,
    belief_pair,
    belief_single,
    brute_marginal,
    chain_end_marginal,
    run_bp,
)
from .trotter import (
    ComplexResidueError,
    TransferWeights,
    TrotterPlan,
    build_weights,
    st_density,
    st_opcount,
    st_opcount_ends,
    st_opcount_middle,
    st_reduced,
    trotter_plan,
)
from .qbp import QbpResult, qbp_init, qbp_opcount, qbp_run, qbp_update_edge
from .metrics import NotDensityMatrixError, fidelity, trace_distance

__version__ = "0.1.0"
