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
belief is then exact.  Both messages of bond k read one eigensolve: the
dressed exponents -beta*E_k + [a, b] @ D (a, b the messages into k and k+1
from outside; D holds P_a (x) 1 and 1 (x) P_a) form one (n-1,4,4) stack
per sweep for one checked ``linalg.herm_eig``, and R = V diag(exp((w - w_max)/2))
is a square root of the exponential shifted by its largest eigenvalue (a
multiple of the identity, which the traceless log and the normalized beliefs
drop), so any beta stays in range.  The side S (2,8) of R with the kept site
as rows gives the reduced operator S S^dag = X = t/2 + c.P, whose traceless
log is (log l+ - log l-)/sqrt(2) c/|c| (0 at c = 0), with l+ = t/2 + |c|/sqrt(2)
and l- = det X / l+.  det X = |s0|^2 |s1 - (s0^dag s1 / |s0|^2) s0|^2, one
Gram-Schmidt step on the rows of S, is never negative and does not cancel as
t/2 - |c|/sqrt(2) does when l- is many orders below l+.

``qbp_run`` finds the fixed point x = U(x) of the sweep map U (one update of
every message) by Newton's method.  The update of bond k reads only rows
2k-2 and 2k+3 of the message stack, so the Jacobian J of U is
block-tridiagonal over the bonds, and all even rows (as all odd rows) feed
distinct bonds: perturbing coordinate a of every even row at once, then of
every odd row, gives all of J from 2c evaluations of U (c coordinates per
message; Curtis, Powell and Reid 1974, IMA J. Appl. Math. 13:117), made as
one stacked call.  Each step solves (I - J) d = U(x) - x, by one dense LU
solve up to 16 bonds and by block cyclic reduction above, and halves d until
the residual falls (Dennis and Schnabel 1983).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .spinchain import SIGMA_X, SIGMA_Y, SIGMA_Z, SpinChainModel

# a run has converged when the residual falls below TOL, or stops after MAX_SWEEPS map evaluations
TOL = 1e-10
MAX_SWEEPS = 500
Edge = tuple  # directed (source, destination) site pair


def _frame(basis: list) -> tuple:
    """Basis P_a = basis/sqrt(2) flat (k,4), and D (2k,16), rows P_a (x) 1 then 1 (x) P_a."""
    basis, eye = np.array(basis) / np.sqrt(2), np.eye(2)
    lift = np.vstack([linalg.kron(basis, eye), linalg.kron(eye, basis)]).reshape(-1, 16)
    return basis.reshape(-1, 4), lift


REAL, COMPLEX = _frame([SIGMA_X.real, SIGMA_Z.real]), _frame([SIGMA_X, SIGMA_Y, SIGMA_Z])


@dataclass(eq=False)
class QbpResult:
    """Converged (or truncated) belief-propagation output.

    ``beliefs_single[i]`` is the 2x2 belief for site i; ``beliefs_pair[(i, i+1)]``
    the 4x4 belief for a bond.  ``iterations`` counts the evaluations of the
    sweep map.  ``converged`` reports whether the residual |U(x) - x| at the
    final messages fell below the tolerance (callers decide whether a truncated
    run is acceptable); ``residuals`` holds it at the start and after each Newton
    step.  Results compare and hash by identity, as they hold arrays.
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


def _dressed(neg_terms, incoming, lift) -> np.ndarray:
    """Dressed bond exponents -beta*E_k + a (x) 1 + 1 (x) b, from (B,2,k) coordinates [a, b]."""
    return neg_terms + (incoming.reshape(-1, len(lift)) @ lift).reshape(-1, 4, 4)


def _log_coordinates(sides, basis) -> np.ndarray:
    """Coordinates in ``basis`` of the traceless part of log(S S^dag), one row per
    side S (2,m) of the stack; 0 where S S^dag is a multiple of the identity."""
    x = sides @ linalg.dagger(sides)
    s00 = x[:, 0, 0].real  # |s0|^2
    c = (x.reshape(-1, 4) @ basis.conj().T).real  # tr(P_a X)
    radius = np.sqrt((c * c).sum(axis=1) / 2)  # |c|/sqrt(2)
    top = (s00 + x[:, 1, 1].real) / 2 + radius  # l+
    s0, s1 = sides[:, 0], sides[:, 1]
    rest = s1 - (x[:, 1, 0] / np.maximum(s00, linalg.POSITIVE_FLOOR))[:, None] * s0
    det = s00 * (rest * rest.conj()).real.sum(axis=1)  # l+ l-, one Gram-Schmidt step
    logs = np.log(top * top / np.maximum(det, linalg.POSITIVE_FLOOR))  # log l+ - log l-
    return (logs / np.maximum(2 * radius, linalg.POSITIVE_FLOOR))[:, None] * c


def _updates(neg_terms, incoming, frame) -> np.ndarray:
    """New message coordinates for a stack of bonds, two rows per bond: edge
    (k, k+1), which keeps site k+1 and removes b, then edge (k+1, k), which
    keeps site k and removes a."""
    basis, lift = frame
    w, v = linalg.herm_eig(_dressed(neg_terms, incoming, lift))
    root = (v * np.exp((w - w[..., -1:]) / 2)[..., None, :]).reshape(-1, 2, 2, 4)
    sides = np.stack([root.swapaxes(1, 2), root], axis=1).reshape(-1, 2, 8)
    own = incoming[:, ::-1].reshape(-1, incoming.shape[-1])
    return _log_coordinates(sides, basis) - own


def _gibbs(a: np.ndarray) -> np.ndarray:
    q = linalg.shifted_exp(a)
    return q / np.trace(q, axis1=-2, axis2=-1).real[:, None, None]


def qbp_update_edge(model: SpinChainModel, messages: dict, edge: Edge) -> np.ndarray:
    """Recompute the message for the directed edge (j, i), traceless: float64 when
    the model and the two messages it reads are real, else complex128.  Like a
    sweep, it decomposes the edge's bond once and reads off the side into i."""
    edge, edges = tuple(edge), directed_edges(model)
    if edge not in edges:
        raise ValueError(f"{edge} is not a bond of a {model.n_sites}-site chain")
    k = min(edge)
    neg_term = -model.beta * model.terms[k:k + 1]
    into = (k - 1, k), (k + 2, k + 1)  # the edges into sites k and k+1 from outside the bond
    m = linalg.require_hermitian([messages[e] if e in edges else np.zeros((2, 2)) for e in into])
    frame = COMPLEX if np.iscomplexobj(neg_term) or m.imag.any() else REAL
    coordinates = (m.reshape(2, 4) @ frame[0].conj().T).real  # tr(P_a m)
    both = _updates(neg_term, coordinates[None], frame)  # edge (k, k+1), then (k+1, k)
    return (both[int(edge[0] > k)] @ frame[0]).reshape(2, 2)


def _block_solve(lower, diag, upper, rhs) -> np.ndarray:
    """Solve lower[k] x[k-1] + diag[k] x[k] + upper[k] x[k+1] = rhs[k], k < n, for
    (n,b,b) blocks and (n,b,m) right-hand sides; lower[0] and upper[-1] are not read.
    Up to 16 rows take one dense LU solve.  Above that, block cyclic reduction: one
    stacked solve on the odd rows folds them into the even rows, which form a
    system of the same kind, until at most 16 rows are left."""
    n, b = len(rhs), rhs.shape[1]
    # at b = 4 and one BLAS thread the dense solve wins up to about 128 unknowns
    # (n = 32: 133 against 179 us) and loses beyond (n = 64: 838 against 242 us)
    if n <= 16:
        dense, k = np.zeros((n, b, n, b), np.result_type(lower, diag, upper)), np.arange(n)
        dense[k, :, k] = diag
        dense[k[1:], :, k[:-1]], dense[k[:-1], :, k[1:]] = lower[1:], upper[:-1]
        return np.linalg.solve(dense.reshape(n * b, -1), rhs.reshape(n * b, -1)).reshape(rhs.shape)
    evens, odds = (n + 1) // 2, n // 2
    g = np.linalg.solve(diag[1::2], np.concatenate([lower[1::2], upper[1::2], rhs[1::2]], axis=-1))
    left, right = np.zeros((2, evens) + g.shape[1:], g.dtype)  # what each even row reads
    left[1:] = lower[2::2] @ g[:evens - 1]  # from the odd row before it, the first row aside
    right[:odds] = upper[0:2 * odds:2] @ g  # from the odd row after it, if there is one
    x = np.empty_like(rhs, g.dtype)
    x[::2] = _block_solve(-left[..., :b], diag[::2] - left[..., b:2 * b] - right[..., :b],
                          -right[..., b:2 * b], rhs[::2] - left[..., 2 * b:] - right[..., 2 * b:])
    x[1::2] = g[..., 2 * b:] - g[..., :b] @ x[0:2 * odds:2]
    x[1:2 * evens - 1:2] -= g[:evens - 1, :, b:2 * b] @ x[2::2]
    return x


def qbp_run(model: SpinChainModel) -> QbpResult:
    """Newton's method on the sweep map U, followed by belief assembly.

    The residual is the largest Frobenius-norm change |U(x) - x| of any
    message; the run has converged when it falls below TOL, and stops after
    MAX_SWEEPS evaluations of U.  From the zero messages, each step takes the
    Jacobian (2c evaluations) and tries x + d, x + d/2, ... (one evaluation
    each) until the residual falls.  When the budget has no room for a fresh
    Jacobian, a step reuses the last one (zero before the first, which makes
    d = U(x) - x).  A two-site chain takes none: the messages into its one
    bond are the zero padding, so U is constant there and d lands on the
    fixed point.
    """
    tol, max_sweeps = TOL, MAX_SWEEPS  # read once per run
    n = model.n_sites
    neg_terms = -model.beta * model.terms
    frame = COMPLEX if np.iscomplexobj(neg_terms) else REAL
    # rows 2..2n-1 hold the messages in directed_edges order, between two zero rows
    # at each end; the messages into bond k from k-1 and k+2 are rows 2k and 2k+5
    padded = np.zeros((2 * n + 2, len(frame[0])))
    messages, into = padded[2:-2], 2 * np.arange(n - 1)[:, None] + (0, 5)
    width, h = 2 * len(frame[0]), 1e-6  # a bond's 2c message coordinates; the difference step

    def evaluate():
        update = _updates(neg_terms, padded[into], frame)
        return update, float(np.sqrt(((update - messages) ** 2).sum(axis=1).max(initial=0.0)))

    update, residual = evaluate()
    iterations, residuals = 1, [residual]
    while residual >= tol and iterations < max_sweeps:
        if iterations == 1:  # the step's constants, built only once a run steps
            slope = np.zeros((n - 1, width, width))  # -J as (bond, output coordinate, perturbation)
            even, eye = np.arange(width) < width // 2, np.broadcast_to(np.eye(width), slope.shape)
            tiled = np.tile(neg_terms, (width, 1, 1))
            nudge = h * np.eye(width).reshape(width, 1, 2, -1)
        if n > 2 and iterations + width < max_sweeps:
            # perturbation a < c moves coordinate a of the message into each bond k from k-1
            # (an even row), perturbation c + a that from k+2 (an odd row).  h = 1e-6 keeps the
            # tests' rotated chains covariant to 8.1e-13; sqrt(eps) gives 2.9-8.8e-12, over 1e-12.
            shifted = _updates(tiled, (padded[into] + nudge).reshape(-1, 2, width // 2), frame)
            slope = (update.reshape(n - 1, width) - shifted.reshape(width, n - 1, width)) / h
            slope, iterations = slope.transpose(1, 2, 0), iterations + width
        step = _block_solve(np.where(even, slope, 0), eye, np.where(even, 0, slope),
                            (update - messages).reshape(n - 1, width, 1))
        start = messages.copy()
        for scale in 0.5 ** np.arange(max_sweeps - iterations):
            messages[...] = start + scale * step.reshape(start.shape)
            trial, trial_residual = evaluate()
            iterations += 1
            if trial_residual < residual:
                update, residual = trial, trial_residual
                residuals.append(residual)
                break
        else:
            messages[...] = start

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
