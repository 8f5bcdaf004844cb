"""Trace distance and fidelity between density matrices.

Both metrics validate their inputs as density matrices with an absolute
slack of 1e-8 on Hermiticity, unit trace and positive semidefiniteness,
so engine outputs whose eigenvalues dip slightly below zero from roundoff
are accepted; such eigenvalues are clamped to zero inside the metrics.
A NaN or inf entry fails the Hermiticity check.  The pair is checked and
decomposed as one (2, d, d) stack in its common dtype, with one eigensolve;
the fidelity is the nuclear norm of sqrt(rho) sqrt(sigma) taken from the two
decompositions.  ``scores`` gives both metrics from one check of the pair.
"""

from __future__ import annotations

import numpy as np

from . import linalg

PSD_SLACK = 1e-8


class NotDensityMatrixError(ValueError):
    """Input is not a density matrix within the accepted slack."""


@np.errstate(invalid="ignore")  # inf - inf gives the NaN residue that rejects an inf entry
def _check_pair(rho, sigma):
    """The symmetrized pair and its decompositions, from one stacked eigensolve.

    After the shapes, each state is checked for Hermiticity, trace and lowest
    eigenvalue, in that order, rho before sigma.
    """
    r, s = linalg.as_matrix(rho), linalg.as_matrix(sigma)
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch: {r.shape} vs {s.shape}")
    pair = np.array((r, s))  # in the pair's common dtype
    residues = np.abs(pair - linalg.dagger(pair)).max(axis=(1, 2)).tolist()
    pair = (pair + linalg.dagger(pair)) / 2
    traces = np.trace(pair, axis1=1, axis2=2).real.tolist()
    valid = [res <= PSD_SLACK and abs(tr - 1.0) <= PSD_SLACK for res, tr in zip(residues, traces)]
    # only the states before the first invalid one are decomposed: its check
    # fails first, and eigh needs the finite input a NaN or inf entry rules out
    w, v = linalg.herm_eig(pair[: valid.index(False) if False in valid else 2])
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
    return pair[0], linalg.HermitianEigen(w[0], v[0]), pair[1], linalg.HermitianEigen(w[1], v[1])


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
