"""Trace distance and fidelity between density matrices.

Both metrics validate their inputs as density matrices with an absolute
slack of 1e-8 on Hermiticity, unit trace and positive semidefiniteness,
so engine outputs whose eigenvalues dip slightly below zero from roundoff
are accepted; such eigenvalues are clamped to zero inside the metrics.
A NaN or inf entry fails the Hermiticity check.  The pair, in its common
dtype, plus rho - sigma for the trace distance, is decomposed in one stacked
eigensolve; the fidelity is the nuclear norm of sqrt(rho) sqrt(sigma) from the
two states' decompositions.  ``scores`` gives both from one check of the pair.
"""

from __future__ import annotations

import numpy as np

from . import linalg

PSD_SLACK = 1e-8


class NotDensityMatrixError(ValueError):
    """Input is not a density matrix within the accepted slack."""


@np.errstate(invalid="ignore")  # inf - inf gives the NaN residue that rejects an inf entry
def _check_pair(rho, sigma, *, difference=True):
    """The stacked spectra (w, v) of the checked pair and, with ``difference``, of rho - sigma.

    After the shapes, each state is checked for Hermiticity, trace and lowest
    eigenvalue, in that order, rho before sigma.
    """
    r, s = linalg.as_matrix(rho), linalg.as_matrix(sigma)
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch: {r.shape} vs {s.shape}")
    pair = np.array((r, s))  # in the pair's common dtype
    dag = linalg.dagger(pair)
    residues = np.abs(pair - dag).max(axis=(1, 2)).tolist()
    pair = (pair + dag) / 2
    traces = np.trace(pair, axis1=1, axis2=2).real.tolist()
    valid = [res <= PSD_SLACK and abs(tr - 1.0) <= PSD_SLACK for res, tr in zip(residues, traces)]
    if False in valid:
        # only the states before the first invalid one are decomposed: its check
        # fails first, and eigh needs the finite input a NaN or inf entry rules out
        pair = pair[: valid.index(False)]
    elif difference:  # exactly Hermitian, and finite: no symmetrized entry passes half the range
        pair = np.concatenate((pair, pair[:1] - pair[1:]))
    w, v = linalg.herm_eig(pair)
    lowest = w[:, 0].tolist()
    for i, name in enumerate(("rho", "sigma")):
        if not residues[i] <= PSD_SLACK:  # a NaN or inf entry reads as residue nan or inf
            raise NotDensityMatrixError(
                f"{name}: Hermiticity residue {residues[i]:.3e} > {PSD_SLACK:g}"
            )
        if not valid[i]:
            raise NotDensityMatrixError(
                f"{name}: trace {traces[i]!r} differs from 1 beyond {PSD_SLACK:g}"
            )
        if lowest[i] < -PSD_SLACK:
            raise NotDensityMatrixError(f"{name}: eigenvalue {lowest[i]:.3e} below -{PSD_SLACK:g}")
    return w, v


def _trace_distance(w: np.ndarray) -> float:
    return 0.5 * float(np.abs(w[2]).sum())


def _fidelity(w: np.ndarray, v: np.ndarray) -> float:
    m = np.sqrt(np.maximum(w[0], 0.0))[:, None] * (linalg.dagger(v[0]) @ v[1])
    m *= np.sqrt(np.maximum(w[1], 0.0))
    try:
        return float(np.linalg.svd(m, compute_uv=False).sum())
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise linalg.NoConvergenceError(f"singular values did not converge: {exc}") from exc


def trace_distance(rho, sigma) -> float:
    """Half the absolute trace norm of the difference; 0 iff equal, at most 1."""
    return _trace_distance(_check_pair(rho, sigma)[0])


def fidelity(rho, sigma) -> float:
    """tr|sqrt(rho) sqrt(sigma)|; 1 iff equal, 0 for orthogonal states.

    It is the sum of the singular values of diag(sqrt(w_rho)) V_rho^dag V_sigma
    diag(sqrt(w_sigma)), from the decompositions the checks made.
    """
    return _fidelity(*_check_pair(rho, sigma, difference=False))


def scores(rho, sigma) -> tuple[float, float]:
    """(fidelity, trace_distance) of the pair, which is checked once for both."""
    w, v = _check_pair(rho, sigma)
    return _fidelity(w, v), _trace_distance(w)
