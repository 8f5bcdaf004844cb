"""Operator-valued belief propagation on spin chains.

Messages are Hermitian 2x2 matrices in the log domain: they enter the
beliefs inside a matrix exponential, where a multiple of the identity only
rescales the normalization.  So messages are kept traceless, which also
absorbs the update rule's arbitrary prefactor, and stored as their real
coordinates x_a = tr(P_a m) in the Hilbert-Schmidt-orthonormal basis
P_a = sigma_a/sqrt(2), so |x| is the Frobenius norm.  A real model (float64
terms) takes only (sigma_x, sigma_z)/sqrt(2) and loses nothing: exp, partial
trace and log keep real symmetric operators real symmetric, so from the zero
start (identity messages) no sigma_y part arises.  A complex model takes all.

The message j -> i exponentiates the bond operator -beta*E_ij dressed with
the other messages into i and j, traces out j, takes the log and removes
what the other messages already deliver to i; on a two-site chain the pair
belief is then exact.  Both messages of bond k read one exponential: the
dressed exponents -beta*E_k + [a, b] @ D (a, b the messages into k and k+1
from outside; D holds P_a (x) 1 and 1 (x) P_a) form one (n-1,4,4) stack
per sweep for one checked ``linalg.shifted_exp``, each exponent shifted by
its largest eigenvalue (a multiple of the identity, which the traceless log
and the normalized beliefs drop), so any beta stays in range.  One product
reads each side's trace t and c_a = tr((P_a (x) 1) exp) or tr((1 (x) P_a) exp),
and t/2 + c.P has the traceless log (log l+ - log l-)/sqrt(2) c/|c|, with
l-+ = t/2 -+ |c|/sqrt(2) checked by ``linalg.positive_spectrum`` (0 at c = 0).

The plain damped iteration converges only linearly, so ``qbp_run`` mixes
the sweeps with Anderson acceleration (Anderson 1965, J. ACM 12:547; Walker
and Ni 2011, SIAM J. Numer. Anal. 49:1715) on the flattened coordinates x.
With f = update - x and the mixing step d = ``DAMPING``, the next iterate
is x + d*f - (dX + d*dF) gamma.  The columns of dX and dF are the
differences between successive iterates, and between their f, over the
last ``MEMORY`` sweeps; gamma is the least-squares fit of f on dF.  The
history restarts only when the fit is ill-conditioned, not when the residual
grows, and an empty history (or ``MEMORY = 0``) gives the plain damped step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .spinchain import SIGMA_X, SIGMA_Y, SIGMA_Z, SpinChainModel

# a run has converged when the residual falls below TOL, or stops after MAX_SWEEPS
TOL = 1e-10
MAX_SWEEPS = 500
# the mixing step d, and the weight of the update in the plain damped step
DAMPING = 0.5
# sweeps of history behind each mixed step, read by every qbp_run call; 1054 in all on
# 60 benchmark-style XXZ chains (1709 at 5; 1048 at 12, no faster, with 20 ill-conditioned fits)
MEMORY = 10
# A fit whose smallest singular value is at most this fraction of its largest
# is ill-conditioned; on those chains the smallest ratio at MEMORY = 10 is 1.5e-8.
FIT_RCOND = 1e-8
Edge = tuple  # directed (source, destination) site pair


def _frame(basis: list) -> tuple:
    """Basis P_a = basis/sqrt(2) flat (k,4); D (2k,16), rows P_a (x) 1 then 1 (x) P_a;
    and R (16,2k+2), whose columns read tr(A) and tr((1 (x) P_a) A), then tr(A) and
    tr((P_a (x) 1) A), off a flat 4x4 A: the moments of edges (k, k+1) and (k+1, k)."""
    basis, eye = np.array(basis) / np.sqrt(2), np.eye(2)
    lift = np.vstack([linalg.kron(basis, eye), linalg.kron(eye, basis)]).reshape(-1, 16)
    k, tr = len(basis), np.eye(4).ravel()
    return basis.reshape(-1, 4), lift, np.vstack([tr, *lift[k:].conj(), tr, *lift[:k].conj()]).T


REAL, COMPLEX = _frame([SIGMA_X.real, SIGMA_Z.real]), _frame([SIGMA_X, SIGMA_Y, SIGMA_Z])


@dataclass
class QbpResult:
    """Converged (or truncated) belief-propagation output.

    ``beliefs_single[i]`` is the 2x2 belief for site i; ``beliefs_pair[(i, i+1)]``
    the 4x4 belief for a bond.  ``converged`` reports whether the final sweep
    changed any message by less than the tolerance (callers decide whether a
    truncated run is acceptable); ``residuals`` holds every sweep's residual.
    """

    beliefs_single: dict
    beliefs_pair: dict
    iterations: int
    converged: bool
    residual: float
    residuals: tuple


def directed_edges(model: SpinChainModel) -> list[Edge]:
    """All 2(n-1) directed nearest-neighbour pairs of the chain: (k, k+1), (k+1, k), ..."""
    return [e for k in range(model.n_sites - 1) for e in ((k, k + 1), (k + 1, k))]


def qbp_init(model: SpinChainModel) -> dict:
    """Identity starting messages, which are zero once traceless."""
    return {edge: np.zeros((2, 2)) for edge in directed_edges(model)}


def _neg_terms(model: SpinChainModel, bonds) -> np.ndarray:
    """-beta times the terms of bonds k as stored, one (4,4) each."""
    return -model.beta * np.array([model.terms[k] for k in bonds]).reshape(-1, 4, 4)


def _dressed(neg_terms, incoming, lift) -> np.ndarray:
    """Dressed bond exponents -beta*E_k + a (x) 1 + 1 (x) b, from (B,2,k) coordinates [a, b]."""
    return neg_terms + (incoming.reshape(-1, len(lift)) @ lift).reshape(-1, 4, 4)


def _log_coordinates(trace, c) -> np.ndarray:
    """Coordinates of the traceless part of log(trace/2 + c.P), one per row; 0 at c = 0."""
    radius = np.sqrt((c * c).sum(axis=1, keepdims=True) / 2)  # |c|/sqrt(2)
    logs = np.log(linalg.positive_spectrum(trace[:, None] / 2 + radius * np.array([-1.0, 1.0])))
    return (logs[:, 1:] - logs[:, :1]) / np.maximum(2 * radius, linalg.POSITIVE_FLOOR) * c


def _updates(neg_terms, incoming, frame) -> np.ndarray:
    """New message coordinates for a stack of bonds, two rows per bond: edge
    (k, k+1), which removes b, then edge (k+1, k), which removes a."""
    _, lift, read = frame
    expo = linalg.shifted_exp(_dressed(neg_terms, incoming, lift))
    moments = (expo.reshape(-1, 16) @ read).real.reshape(-1, read.shape[1] // 2)
    own = incoming[:, ::-1].reshape(-1, incoming.shape[-1])
    return _log_coordinates(moments[:, 0], moments[:, 1:]) - own


def _gibbs(a: np.ndarray) -> np.ndarray:
    q = linalg.shifted_exp(a)
    return q / np.trace(q, axis1=-2, axis2=-1).real[:, None, None]


def qbp_update_edge(model: SpinChainModel, messages: dict, edge: Edge) -> np.ndarray:
    """Recompute the message for the directed edge (j, i), traceless: float64 when
    the model and the two messages it reads are real, else complex128.  Like a
    sweep, it exponentiates the edge's bond once and reads off the side into i."""
    edge, edges = tuple(edge), directed_edges(model)
    if edge not in edges:
        raise ValueError(f"{edge} is not a bond of a {model.n_sites}-site chain")
    k = min(edge)
    neg_term = _neg_terms(model, [k])
    into = (k - 1, k), (k + 2, k + 1)  # the edges into sites k and k+1 from outside the bond
    m = linalg.require_hermitian([messages[e] if e in edges else np.zeros((2, 2)) for e in into])
    frame = COMPLEX if np.iscomplexobj(neg_term) or m.imag.any() else REAL
    coordinates = (m.reshape(2, 4) @ frame[0].conj().T).real  # tr(P_a m)
    both = _updates(neg_term, coordinates[None], frame)  # edge (k, k+1), then (k+1, k)
    return (both[int(edge[0] > k)] @ frame[0]).reshape(2, 2)


def qbp_run(model: SpinChainModel) -> QbpResult:
    """Anderson-mixed synchronous message iteration followed by belief assembly.

    Each sweep recomputes every directed message from the current iterate.
    The residual is the largest Frobenius-norm change of any message under
    the plain damped step (1-d)*old + d*update, d = DAMPING; the run has
    converged when it falls below TOL, and that last step is the damped
    one; it stops after MAX_SWEEPS sweeps.  Otherwise the step is mixed (see
    the module docstring).  Only an ill-conditioned fit, whose singular
    values span more than 1/FIT_RCOND, empties the history.
    """
    damping, tol, max_sweeps = DAMPING, TOL, MAX_SWEEPS  # read once per run
    n = model.n_sites
    neg_terms = _neg_terms(model, range(n - 1))
    frame = COMPLEX if np.iscomplexobj(neg_terms) else REAL
    # rows 2..2n-1 hold the messages in directed_edges order, between two zero rows
    # at each end; the messages into bond k from k-1 and k+2 are rows 2k and 2k+5
    padded = np.zeros((2 * n + 2, len(frame[0])))
    messages, into = padded[2:-2], 2 * np.arange(n - 1)[:, None] + (0, 5)
    # the last MEMORY differences of iterates and of f, one column each, oldest first
    dx, df = np.empty((2, messages.size, MEMORY))
    count, last, residuals = 0, None, []  # columns in use; (x, f) of the last sweep
    for iterations in range(1, max_sweeps + 1):
        update = _updates(neg_terms, padded[into], frame)
        f = update - messages
        new = messages + damping * f
        residual = damping * float(np.sqrt((f * f).sum(axis=1).max(initial=0.0)))
        residuals.append(residual)
        if MEMORY and residual >= tol:
            x, f = messages.ravel().copy(), f.ravel()
            if last is not None:
                if count == MEMORY:  # drop the oldest column
                    dx[:, :-1], df[:, :-1] = dx[:, 1:], df[:, 1:]
                count = min(count + 1, MEMORY)
                dx[:, count - 1], df[:, count - 1] = x - last[0], f - last[1]
            last = x, f
            if count:
                gamma, _, _, sv = np.linalg.lstsq(df[:, :count], f, rcond=None)
                if sv[-1] > FIT_RCOND * sv[0]:
                    step = (dx[:, :count] + damping * df[:, :count]) @ gamma
                    new = new - step.reshape(new.shape)
                else:
                    count = 0  # ill-conditioned fit: restart
        messages[...] = new
        if residual < tol:
            break

    # the messages into site i from i-1 and from i+1 are rows 2i and 2i+3
    singles = _gibbs(((padded[0:-2:2] + padded[3::2]) @ frame[0]).reshape(-1, 2, 2))
    pairs = _gibbs(_dressed(neg_terms, padded[into], frame[1]))
    return QbpResult(dict(enumerate(singles)), {(k, k + 1): q for k, q in enumerate(pairs)},
                     iterations, residual < tol, residual, tuple(residuals))


def qbp_opcount(n_sites: int) -> int:
    """Per-sweep elementary-operation estimate, 16(4n - 5) for an n-site chain."""
    n = linalg.require_int(n_sites, "n_sites")
    if n < 2:
        raise ValueError(f"need at least 2 sites, got {n}")
    return 16 * (4 * n - 5)
