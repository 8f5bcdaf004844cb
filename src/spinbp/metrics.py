"""Trace distance and fidelity between density matrices.

Both metrics validate their inputs as density matrices with an absolute
slack of 1e-8 on Hermiticity, unit trace and positive semidefiniteness,
so engine outputs whose eigenvalues dip slightly below zero from roundoff
are accepted; such eigenvalues are clamped to zero inside the metrics.
Each input is decomposed once, for its check and for the fidelity, which is
the nuclear norm of sqrt(rho) sqrt(sigma) taken from the two decompositions.
``scores`` gives both metrics from one check of the pair.
"""

from __future__ import annotations

import numpy as np

from . import linalg

PSD_SLACK = 1e-8


class NotDensityMatrixError(ValueError):
    """Input is not a density matrix within the accepted slack."""


def _check_density(a, name: str) -> tuple[np.ndarray, linalg.HermitianEigen]:
    """The symmetrized density matrix and its spectral decomposition."""
    arr = linalg.as_matrix(a)
    residue = np.abs(arr - arr.conj().T).max()
    if residue > PSD_SLACK:
        raise NotDensityMatrixError(f"{name}: Hermiticity residue {residue:.3e} > {PSD_SLACK:g}")
    arr = (arr + arr.conj().T) / 2
    tr = float(np.trace(arr).real)
    if abs(tr - 1.0) > PSD_SLACK:
        raise NotDensityMatrixError(f"{name}: trace {tr!r} differs from 1 beyond {PSD_SLACK:g}")
    eig = linalg.herm_eig(arr)
    lowest = float(eig.eigenvalues[0])
    if lowest < -PSD_SLACK:
        raise NotDensityMatrixError(f"{name}: eigenvalue {lowest:.3e} below -{PSD_SLACK:g}")
    return arr, eig


def _check_pair(rho, sigma):
    (r, r_eig), (s, s_eig) = _check_density(rho, "rho"), _check_density(sigma, "sigma")
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch: {r.shape} vs {s.shape}")
    return r, r_eig, s, s_eig


def _trace_distance(r, s) -> float:
    return 0.5 * linalg.abs_trace_norm(r - s)


def _fidelity(r_eig: linalg.HermitianEigen, s_eig: linalg.HermitianEigen) -> float:
    (wr, vr), (ws, vs) = r_eig, s_eig
    m = np.sqrt(np.maximum(wr, 0.0))[:, None] * (linalg.dagger(vr) @ vs)
    m *= np.sqrt(np.maximum(ws, 0.0))
    try:
        return float(np.linalg.svd(m, compute_uv=False).sum())
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise linalg.NoConvergenceError(f"singular values did not converge: {exc}") from exc


def trace_distance(rho, sigma) -> float:
    """Half the absolute trace norm of the difference; 0 iff equal, at most 1."""
    r, _, s, _ = _check_pair(rho, sigma)
    return _trace_distance(r, s)


def fidelity(rho, sigma) -> float:
    """tr|sqrt(rho) sqrt(sigma)|; 1 iff equal, 0 for orthogonal states.

    It is the sum of the singular values of diag(sqrt(w_rho)) V_rho^dag V_sigma
    diag(sqrt(w_sigma)), from the decompositions the checks made.
    """
    _, r_eig, _, s_eig = _check_pair(rho, sigma)
    return _fidelity(r_eig, s_eig)


def scores(rho, sigma) -> tuple[float, float]:
    """(fidelity, trace_distance) of the pair, which is checked once for both."""
    r, r_eig, s, s_eig = _check_pair(rho, sigma)
    return _fidelity(r_eig, s_eig), _trace_distance(r, s)
