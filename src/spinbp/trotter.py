"""Suzuki-Trotter engine: Gibbs states as classical chain contractions.

exp(-beta H) for H = sum_k h_k is approximated by the n-th power of one
Trotter slice W = prod_k exp(-(beta/n) h_k), the product taken in ascending
bond order.  Matrix element (a, b) of the unnormalized density matrix is
then the two-end marginal of an open chain of n identical pairwise weights W
over 2^N-state slice variables, which is W^n (cbp.chain_end_marginal): the
chain is never materialized, and W is powered by repeated squaring, so the
cost grows as log n; ``st_opcount`` keeps the paper's slice-by-slice count,
linear in n.  Each bond factor exp(-(beta/n) h_k) acts on two sites only, so
it is exponentiated as a 4x4 matrix and applied to W in place of its
2^N x 2^N embedding.  Each factor is shifted by its term's lowest
eigenvalue, f_k = exp(-(beta/n) (h_k - lambda_min(h_k))) (``linalg.shifted_exp``),
so its entries are at most 1 at any beta/n.  The built W is then the
unshifted product times exp((beta/n) sum_k lambda_min(h_k)), and W^n the
unshifted power times exp(beta sum_k lambda_min(h_k)): a positive factor,
which the normalization by tr(W^n) cancels.  W takes the bond terms' dtype:
float64 for real-symmetric terms, complex128 otherwise.
A factor of a term that commutes with sz.1 + 1.sz keeps the total Sz and
exact zeros between sectors, so W does too, and the contraction gathers and
powers W's total-Sz sectors (``cbp.chain_end_marginal``): N+1 sectors, the
widest C(N, N/2) states, in place of 2^N.

W is a product of positive-definite factors but is not Hermitian when the
bond terms fail to commute, so the n-slice density matrix carries an
O(beta^2/n) non-Hermitian residue, on the same order as its Trotter error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cbp, linalg
from .spinchain import SpinChainModel


@dataclass(frozen=True, eq=False)
class TrotterPlan:
    """A model, a slice count n, and the (N-1, 4, 4) array of bond factors
    f_k = exp(-(beta/n) (h_k - lambda_min(h_k))), each shifted by its term's
    lowest eigenvalue so that every entry is at most 1."""

    model: SpinChainModel
    n_slices: int
    slice_factors: np.ndarray


def trotter_plan(model: SpinChainModel, n_slices: int) -> TrotterPlan:
    """Precompute the slice factors for an n-slice decomposition."""
    n_slices = linalg.require_int(n_slices, "n_slices")
    if n_slices < 1:
        raise ValueError(f"n_slices must be positive, got {n_slices}")
    # one stacked call, the same bits as one call per term; one site gives a (0, 4, 4) stack
    factors = linalg.shifted_exp(-(model.beta / n_slices) * model.terms)
    return TrotterPlan(model, n_slices, factors)


@dataclass(frozen=True, eq=False)
class TransferWeights:
    """One Trotter slice as a 2^N x 2^N weight matrix in the slice factors' dtype."""

    matrix: np.ndarray


def build_weights(plan: TrotterPlan) -> TransferWeights:
    """Multiply the slice factors in bond order.

    W = F_0 F_1 ... F_{N-2} with F_k = 1 kron f_k kron 1 is built right to
    left, in the factors' dtype (float64 for a real model, complex128 for a
    complex one), by the recursion P <- f_k (1 kron P) from P = f_{N-2}:
    with the rows of 1 kron P viewed as (pair k, the rest), f_k acts on the
    leading axis only, one 4x4 by 4x(2^(N-k-2) 2^(N-k)) product.
    """
    factors = plan.slice_factors
    w = factors[-1] if len(factors) else np.eye(2)
    for f in factors[-2::-1]:
        lifted = np.zeros((2, len(w), 2, len(w)), w.dtype)  # 1 kron w
        lifted[0, :, 0] = lifted[1, :, 1] = w
        w = np.matmul(f, lifted.reshape(4, -1)).reshape(2 * len(w), -1)
    return TransferWeights(w)


def st_density(plan: TrotterPlan) -> np.ndarray:
    """Density matrix W^n / tr(W^n) from the two-end marginal of the n-slice chain.

    cbp.chain_end_marginal takes the chain as ``[W] * n`` and powers W's total-Sz
    sectors in one gathered buffer: floor(log2 n) squarings and popcount(n) - 1
    block products, in W's dtype.  The fresh result is scaled in place by 1 / tr.
    A complex one is returned as it is; a real one is copied to complex128,
    the bits of the complex division, which numpy makes as a (1 / t) for a
    real t.  W dies first, so a real model's call peaks at the marginal and
    its complex copy: three 2^N x 2^N float64 arrays' worth.

    Keep the copy unless a measurement says otherwise.  Returning the real p
    gives the same states and CSVs, but a warm loop of the N = 8, beta = 2 st
    rows (n = 20 and 100, each scored by both metrics) then took about 450
    minor page faults per pass against 0, and ran slower.
    """
    p = cbp.chain_end_marginal([build_weights(plan).matrix] * plan.n_slices)
    p *= 1.0 / np.trace(p)
    return p.astype(np.complex128, copy=False)


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
    n = linalg.require_int(n_slices, "n_slices")
    if n < 3:
        raise ValueError(f"the closed form needs n_slices >= 3, got {n}")
    m = _check_exponent(n_spins_exponent)
    return 2**m * (2 ** (m + 2) + 2 + (2 ** (m + 1) + 1) * (n - 3))


def _check_exponent(n_spins_exponent: int) -> int:
    m = linalg.require_int(n_spins_exponent, "n_spins_exponent")
    if m < 1:
        raise ValueError(f"spin-count exponent must be >= 1, got {m}")
    return m
