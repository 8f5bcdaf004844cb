"""Suzuki-Trotter engine: Gibbs states as classical chain contractions.

exp(-beta H) for H = sum_k h_k is approximated by the n-th power of one
Trotter slice W = prod_k exp(-(beta/n) h_k), the product taken in ascending
bond order.  Matrix element (a, b) of the unnormalized density matrix is
then the two-end contraction of an open chain of n identical pairwise
weights W over 2^N-state slice variables; the chain is never materialized,
only one 2^N x 2^N block of messages, one column per far-end state (see
cbp.chain_end_marginal).  Since the n weights are one matrix, the
contraction powers it by repeated squaring, so its cost grows as log n;
``st_opcount`` keeps the paper's slice-by-slice count, linear in n.  Each
bond factor exp(-(beta/n) h_k) acts on two sites only, so it is
exponentiated as a 4x4 matrix and applied to W in place of its 2^N x 2^N
embedding.  A factor of a term that commutes with sz.1 + 1.sz keeps the
total Sz and exact zeros between sectors, so W does too, and the
contraction powers W within its total-Sz sectors (``linalg.by_blocks``):
N+1 sectors, the widest C(N, N/2) states, in place of 2^N.

W is a product of positive-definite factors but is not symmetric when the
bond terms fail to commute, so the n-slice density matrix carries an
O(beta^2/n) non-Hermitian residue, on the same order as its Trotter error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cbp, linalg
from .spinchain import SpinChainModel

# Transfer weights must be real to this relative residue.
IMAG_RTOL = 1e-12


class ComplexResidueError(ValueError):
    """Transfer weights have an imaginary part; the model is not real-symmetric."""


@dataclass(frozen=True)
class TrotterPlan:
    """A model, a slice count n, and the 4x4 bond factors exp(-(beta/n) h_k)."""

    model: SpinChainModel
    n_slices: int
    slice_factors: tuple


def trotter_plan(model: SpinChainModel, n_slices: int) -> TrotterPlan:
    """Precompute the slice factors for an n-slice decomposition."""
    n_slices = int(n_slices)
    if n_slices < 1:
        raise ValueError(f"n_slices must be positive, got {n_slices}")
    step = model.beta / n_slices
    # one stacked call, the same bits as one call per term; one site has none
    factors = tuple(linalg.herm_exp(-step * np.stack(model.terms))) if model.terms else ()
    return TrotterPlan(model, n_slices, factors)


@dataclass(frozen=True)
class TransferWeights:
    """One Trotter slice as a real 2^N x 2^N weight matrix."""

    matrix: np.ndarray


def build_weights(plan: TrotterPlan) -> TransferWeights:
    """Check that each slice factor is real, then multiply them in bond order.

    W = F_0 F_1 ... F_{N-2} with F_k = 1 kron f_k kron 1 is built right to
    left in float64 by the recursion P <- f_k (1 kron P) from P = f_{N-2}:
    with the rows of 1 kron P viewed as (pair k, the rest), f_k acts on the
    leading axis only, one 4x4 by 4x(2^(N-k-2) 2^(N-k)) product.
    """
    real_factors = []
    for k, f in enumerate(plan.slice_factors):
        residue = np.abs(f.imag).max()
        if residue > IMAG_RTOL * np.abs(f).max():
            raise ComplexResidueError(
                f"bond {k}: imaginary residue {residue:.3e} exceeds {IMAG_RTOL:g} * max|f_k|; "
                "transfer weights are only real for real-symmetric bond terms"
            )
        real_factors.append(f.real)
    w = real_factors[-1] if real_factors else np.eye(2)
    for f in reversed(real_factors[:-1]):
        lifted = np.zeros((2, len(w), 2, len(w)))  # 1 kron w
        lifted[0, :, 0] = lifted[1, :, 1] = w
        w = np.matmul(f, lifted.reshape(4, -1)).reshape(2 * len(w), -1)
    return TransferWeights(w)


def st_density(plan: TrotterPlan) -> np.ndarray:
    """Density matrix W^n / tr(W^n) from the two-end marginal of the n-slice chain.

    cbp.chain_end_marginal contracts a chain that repeats the one matrix W n
    times: it powers W by repeated squaring within W's total-Sz sectors,
    floor(log2 n) squarings and popcount(n) - 1 block products.  The result
    is fresh and normalized in place, and W dies first, so the call peaks at
    the marginal and its complex copy: three 2^N x 2^N float64 arrays' worth.
    """
    p = cbp.chain_end_marginal([build_weights(plan).matrix] * plan.n_slices)
    rho = p.astype(np.complex128)
    return np.divide(rho, np.trace(p), out=rho)


def st_reduced(plan: TrotterPlan, keep) -> np.ndarray:
    """Reduced density matrix of the Trotterized Gibbs state on ``keep``."""
    rho = st_density(plan)
    return linalg.partial_trace(rho, [2] * plan.model.n_sites, keep)


def st_opcount_middle(n_spins_exponent: int) -> int:
    """Elementary operations for one interior weight evaluation, 2^m states."""
    m = _check_exponent(n_spins_exponent)
    return 2**m * (2 ** (m + 1) + 1)


def st_opcount_ends(n_spins_exponent: int) -> int:
    """Elementary operations for the first-and-last weight evaluations combined."""
    m = _check_exponent(n_spins_exponent)
    return 2 ** (m + 1) * (2**m + 1)


def st_opcount(n_slices: int, n_spins_exponent: int) -> int:
    """Closed-form operation count of the n-slice chain contraction."""
    n = int(n_slices)
    if n < 3:
        raise ValueError(f"the closed form needs n_slices >= 3, got {n}")
    m = _check_exponent(n_spins_exponent)
    return 2**m * (2 ** (m + 2) + 2 + (2 ** (m + 1) + 1) * (n - 3))


def _check_exponent(n_spins_exponent: int) -> int:
    m = int(n_spins_exponent)
    if m < 1:
        raise ValueError(f"spin-count exponent must be >= 1, got {m}")
    return m
