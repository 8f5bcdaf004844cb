"""Operator-valued belief propagation on spin chains.

Messages are Hermitian 2x2 matrices living in the log domain: a message
enters the beliefs inside a matrix exponential, so adding any multiple of
the identity only rescales the belief normalization.  That freedom is fixed
by projecting every message to trace zero, which also absorbs the otherwise
arbitrary normalization prefactor of the update rule.  The standard uniform
start (identity messages) is therefore the zero matrix.

The update for the message flowing j -> i exponentiates the bond operator
-beta*E_ij dressed with the other messages entering i and j, traces out
site j, takes the matrix log, and removes the contribution that the other
messages already deliver to i.  On a two-site chain this makes the pair
belief the exact Gibbs state.

A sweep updates all 2(n-1) directed edges at once as stacks: the dressed
exponents form one (E,4,4) array (receiving site first), exponentiated by
one stacked ``linalg.herm_exp``; one einsum traces out the senders and one
stacked ``linalg.herm_log`` takes the (E,2,2) logs.  The stacked calls keep
the per-matrix Hermiticity and positivity checks of the 2-D ones, and give
the same bits as exponentiating edge by edge.  The pair belief of bond k is
the normalized exponential of edge (k+1, k)'s dressed exponent.

The plain damped iteration converges only linearly, so ``qbp_run`` mixes
the sweeps with Anderson acceleration (Anderson 1965, J. ACM 12:547; Walker
and Ni 2011, SIAM J. Numer. Anal. 49:1715) on the flattened real view x of
the message stack.  With f = update - x and the damping d as the mixing
step, the next iterate is x + d*f - (dX + d*dF) gamma.  The columns of dX
and dF are the differences between successive iterates, and between their
f, over the last ``MEMORY`` sweeps; gamma is the least-squares fit of f on
dF.  The result is projected back onto traceless Hermitian messages.  The
history restarts when the residual grows or the fit is ill-conditioned, and
an empty history (or ``MEMORY = 0``) gives the plain damped step.  Each sweep
makes one stacked update call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .spinchain import IDENTITY_2, SpinChainModel

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 500
DEFAULT_DAMPING = 0.5
# sweeps of history behind each mixed step, read by every qbp_run call
MEMORY = 5
# A fit whose smallest singular value is at most this fraction of its largest
# is ill-conditioned; on the benchmark's XXZ chains the ratio stays above 1e-4.
FIT_RCOND = 1e-8

Edge = tuple  # directed (source, destination) site pair


@dataclass
class QbpResult:
    """Converged (or truncated) belief-propagation output.

    ``beliefs_single[i]`` is the 2x2 belief for site i; ``beliefs_pair[(i, i+1)]``
    the 4x4 belief for a bond.  ``converged`` reports whether the final sweep
    changed any message by less than the tolerance; callers decide whether a
    truncated run is acceptable.
    """

    beliefs_single: dict
    beliefs_pair: dict
    iterations: int
    converged: bool
    residual: float


def directed_edges(model: SpinChainModel) -> list[Edge]:
    """All 2(n-1) directed nearest-neighbour pairs of the chain: (k, k+1), (k+1, k), ..."""
    return [e for k in range(model.n_sites - 1) for e in ((k, k + 1), (k + 1, k))]


def qbp_init(model: SpinChainModel) -> dict:
    """Identity starting messages, which gauge-fix to zero matrices."""
    zero = np.zeros((2, 2), dtype=np.complex128)
    return {edge: zero.copy() for edge in directed_edges(model)}


def _edge_plan(model: SpinChainModel, edges: list):
    """Per-edge constants for directed edges (j, i): -beta times the bond term
    with the receiving site i first, and the pair of edges that carry the
    messages into i and into j from their other neighbours 2i-j and 2j-i."""
    terms = np.array([model.terms[min(e)] for e in edges], dtype=np.complex128)
    terms = terms.reshape(-1, 2, 2, 2, 2)
    # edge (k, k+1) receives at k+1, so its sites are swapped; (k+1, k) is as stored
    swap = np.array([j < i for j, i in edges]).reshape(-1, 1, 1, 1, 1)
    oriented = np.where(swap, terms.transpose(0, 2, 1, 4, 3), terms).reshape(-1, 4, 4)
    return -model.beta * oriented, [((2 * i - j, i), (2 * j - i, j)) for j, i in edges]


def _dressed(neg_terms, into_recv, into_send) -> np.ndarray:
    """Dressed bond exponents -beta*T + m_i (x) 1 + 1 (x) m_j, one per stack row."""
    return neg_terms + linalg.kron(into_recv, IDENTITY_2) + linalg.kron(IDENTITY_2, into_send)


def _gauge(m: np.ndarray) -> np.ndarray:
    """Project a stack of messages onto traceless Hermitian matrices."""
    m = (m + linalg.dagger(m)) / 2
    return m - (np.trace(m, axis1=-2, axis2=-1).real / 2)[..., None, None] * IDENTITY_2


def _updates(neg_terms, into_recv, into_send) -> np.ndarray:
    """New messages for a stack of directed edges, gauge-fixed to traceless Hermitian."""
    expo = linalg.herm_exp(_dressed(neg_terms, into_recv, into_send))
    traced = np.einsum("eakbk->eab", expo.reshape(-1, 2, 2, 2, 2))  # trace out the sender
    return _gauge(linalg.herm_log(traced) - into_recv)


def _normalized(q: np.ndarray) -> np.ndarray:
    return q / np.trace(q, axis1=-2, axis2=-1).real[:, None, None]


def check_options(max_iters: int, tol: float, damping: float) -> None:
    """Reject run options the iteration cannot honour."""
    if not (max_iters >= 1 and tol > 0 and 0 < damping <= 1):
        raise ValueError(f"qbp needs max_iters >= 1, tol > 0 and damping in (0, 1], got "
                         f"max_iters={max_iters}, tol={tol}, damping={damping}")


def qbp_update_edge(model: SpinChainModel, messages: dict, edge: Edge) -> np.ndarray:
    """Recompute the message for the directed edge (j, i), gauge-fixed."""
    edge, edges = tuple(edge), directed_edges(model)
    if edge not in edges:
        raise ValueError(f"{edge} is not a bond of a {model.n_sites}-site chain")
    neg_term, (into,) = _edge_plan(model, [edge])
    zero = np.zeros((2, 2))
    recv, send = (np.array([messages[e] if e in edges else zero], dtype=np.complex128)
                  for e in into)
    return _updates(neg_term, recv, send)[0]


def qbp_run(
    model: SpinChainModel,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    damping: float = DEFAULT_DAMPING,
) -> QbpResult:
    """Anderson-mixed synchronous message iteration followed by belief assembly.

    Each sweep recomputes every directed message from the current iterate.
    The residual is the largest Frobenius-norm change of any message under
    the plain damped step (1-damping)*old + damping*update; the run has
    converged when it falls below ``tol``, and that last step is the damped
    one.  Otherwise the step is mixed over the last ``MEMORY`` sweeps (see
    the module docstring); the history restarts when the residual grows or
    the fit's singular values span more than 1/FIT_RCOND.  ``MEMORY = 0``
    is the plain damped iteration.
    """
    check_options(max_iters, tol, damping)
    edges = directed_edges(model)
    neg_terms, into = _edge_plan(model, edges)
    row = {e: k for k, e in enumerate(edges)}  # row E, one past the last edge, is a zero message
    into_recv, into_send = np.array([[row.get(e, len(edges)) for e in pair] for pair in into],
                                    dtype=np.intp).reshape(-1, 2).T
    stack = np.zeros((len(edges) + 1, 2, 2), dtype=np.complex128)
    messages = stack[:-1]  # a view; the last row stays zero
    # the last MEMORY differences of iterates and of f, one column each, oldest first
    dx, df = np.empty((2, messages.size * 2, MEMORY))
    count, last = 0, None  # columns in use; (x, f, residual) of the last sweep
    for iterations in range(1, max_iters + 1):  # check_options: at least one sweep
        update = _updates(neg_terms, stack[into_recv], stack[into_send])
        new = (1 - damping) * messages + damping * update
        residual = float(np.linalg.norm(new - messages, axis=(1, 2)).max(initial=0.0))
        if MEMORY and residual >= tol:
            x = messages.view(np.float64).ravel().copy()
            f = (update - messages).view(np.float64).ravel()
            if last is None or residual > last[2]:
                count = 0  # first sweep, or the residual grew: restart
            else:
                if count == MEMORY:  # drop the oldest column
                    dx[:, :-1], df[:, :-1] = dx[:, 1:], df[:, 1:]
                count = min(count + 1, MEMORY)
                dx[:, count - 1], df[:, count - 1] = x - last[0], f - last[1]
            last = x, f, residual
            if count:
                gamma, _, _, sv = np.linalg.lstsq(df[:, :count], f, rcond=None)
                if sv[-1] > FIT_RCOND * sv[0]:
                    step = (dx[:, :count] + damping * df[:, :count]) @ gamma
                    new = _gauge(new - step.view(np.complex128).reshape(new.shape))
                else:
                    count = 0  # ill-conditioned fit: restart
        messages[...] = new
        if residual < tol:
            break

    n, zero_row = model.n_sites, len(edges)
    # rows of the messages into site i from i-1 and from i+1
    left = [2 * i - 2 if i > 0 else zero_row for i in range(n)]
    right = [2 * i + 1 if i < n - 1 else zero_row for i in range(n)]
    singles = _normalized(linalg.herm_exp(stack[left] + stack[right]))
    bond = slice(1, None, 2)  # bond k's pair belief dresses edge (k+1, k)
    expo = _dressed(neg_terms[bond], stack[into_recv[bond]], stack[into_send[bond]])
    pairs = _normalized(linalg.herm_exp(expo))
    beliefs_pair = {(k, k + 1): q for k, q in enumerate(pairs)}
    return QbpResult(dict(enumerate(singles)), beliefs_pair, iterations, residual < tol, residual)


def qbp_opcount(n_sites: int) -> int:
    """Per-sweep elementary-operation estimate, 16(4n - 5) for an n-site chain."""
    n = int(n_sites)
    if n < 2:
        raise ValueError(f"need at least 2 sites, got {n}")
    return 16 * (4 * n - 5)
