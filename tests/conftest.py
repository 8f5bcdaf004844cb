"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from spinbp import linalg


@pytest.fixture
def eig_calls(monkeypatch):
    """(shape, dtype) of each matrix or stack passed to linalg.herm_eig, in call order."""
    calls, herm_eig = [], linalg.herm_eig

    def recording(a):
        calls.append((np.shape(a), np.asarray(a).dtype))
        return herm_eig(a)

    monkeypatch.setattr(linalg, "herm_eig", recording)
    return calls


def herm_func(a, f):
    """V diag(f(w)) V^dag for a Hermitian matrix or stack with spectrum w: the dense
    oracle of the Gibbs and Trotter tests, built on linalg.herm_eig and spectral."""
    w, v = linalg.herm_eig(a)
    return linalg.spectral(v, f(w))


def herm_log(a):
    """log(A) for positive semidefinite A, or for each of a stack, with the spectrum
    clamped and checked by linalg.positive_spectrum."""
    return herm_func(a, lambda w: np.log(linalg.positive_spectrum(w)))


def embed_term(term, pair, n_sites):
    """I^(i) kron term kron I^(n-i-2), the 4x4 bond term on sites ``pair`` = (i, i+1)
    embedded into the full 2^n x 2^n chain space."""
    i, j = pair
    if j != i + 1 or i < 0 or j >= n_sites:
        raise ValueError(f"pair {pair} is not a nearest-neighbour bond of {n_sites} sites")
    t = linalg.as_matrix(term)
    if t.shape != (4, 4):
        raise ValueError(f"bond term must be 4x4, got {t.shape}")
    left, right = np.eye(2**i), np.eye(2 ** (n_sites - i - 2))
    return linalg.kron(linalg.kron(left, t), right)
