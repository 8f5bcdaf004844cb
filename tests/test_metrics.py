"""Trace distance and fidelity: closed-form values and metric axioms."""

import numpy as np
import pytest

from spinbp.metrics import NotDensityMatrixError, fidelity, scores, trace_distance

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
MIXED = np.eye(2, dtype=complex) / 2


def random_density(rng, dim):
    """Full-rank random state: A A^dag normalized (reproducible by seed)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def seeded_pairs(n_pairs=100, dims=(2, 4, 8)):
    rng = np.random.default_rng(2024)
    for k in range(n_pairs):
        dim = dims[k % len(dims)]
        yield random_density(rng, dim), random_density(rng, dim)


def rank_deficient_density(rng, dim, rank):
    """Random state on the first ``rank`` basis states: its null space is exact in floats."""
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:rank, :rank] = random_density(rng, rank)
    return rho


# --- closed-form values --------------------------------------------------------


def test_trace_distance_closed_forms():
    rng = np.random.default_rng(0)
    rho = random_density(rng, 4)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(KET0, KET1) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(MIXED, KET0) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_closed_forms():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 4)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    assert fidelity(KET0, KET1) == pytest.approx(0.0, abs=1e-9)
    assert fidelity(MIXED, KET0) == pytest.approx(1 / np.sqrt(2), abs=1e-9)


# --- axioms over random pairs ---------------------------------------------------


def test_symmetry():
    for rho, sigma in seeded_pairs():
        assert abs(trace_distance(rho, sigma) - trace_distance(sigma, rho)) < 1e-12
        assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-9


def test_ranges():
    for rho, sigma in seeded_pairs(30):
        d = trace_distance(rho, sigma)
        f = fidelity(rho, sigma)
        assert 0.0 <= d <= 1.0 + 1e-9
        assert 0.0 <= f <= 1.0 + 1e-9


def test_triangle_inequality():
    rng = np.random.default_rng(77)
    for _ in range(40):
        dim = int(rng.choice([2, 4, 8]))
        rho, sigma, tau = (random_density(rng, dim) for _ in range(3))
        assert trace_distance(rho, tau) <= (
            trace_distance(rho, sigma) + trace_distance(sigma, tau) + 1e-10
        )


def test_fuchs_van_de_graaf_bounds():
    for rho, sigma in seeded_pairs():
        d = trace_distance(rho, sigma)
        f = fidelity(rho, sigma)
        assert 1 - f <= d + 1e-8
        assert d <= np.sqrt(max(0.0, 1 - f * f)) + 1e-8


def test_zero_distance_iff_equal():
    rng = np.random.default_rng(55)
    for _ in range(20):
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        assert trace_distance(rho, rho) < 1e-12
        if np.linalg.norm(rho - sigma) > 1e-9:
            assert trace_distance(rho, sigma) > 1e-9


# --- raw-numpy oracle ------------------------------------------------------------


def psd_sqrt(a):
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def oracle_pairs():
    """Seeded pairs at dims 2, 4, 8 in which sigma has full rank on rho's
    support: full-rank pairs, and a rank-deficient rho against a full-rank or
    a rank-deficient sigma."""
    rng = np.random.default_rng(606)
    for dim in (2, 4, 8):
        for _ in range(10):
            full = random_density(rng, dim)
            yield full, random_density(rng, dim)
            for rank in range(1, dim):
                deficient = rank_deficient_density(rng, dim, rank)
                yield deficient, full
                yield deficient, rank_deficient_density(rng, dim, int(rng.integers(rank, dim)))


def test_metrics_match_raw_numpy_oracles():
    # fidelity as the trace norm of sqrt(rho) sqrt(sigma), by SVD; trace
    # distance from the eigenvalues of the difference
    for rho, sigma in oracle_pairs():
        expected_f = np.linalg.svd(psd_sqrt(rho) @ psd_sqrt(sigma), compute_uv=False).sum()
        expected_d = 0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum()
        assert abs(fidelity(rho, sigma) - expected_f) < 1e-12
        assert abs(trace_distance(rho, sigma) - expected_d) < 1e-12
        assert abs(trace_distance(sigma, rho) - expected_d) < 1e-12
        # swapped, the singular values are those of the conjugate transpose of
        # the same matrix, so rank-deficient states cost no accuracy in either order
        assert abs(fidelity(sigma, rho) - expected_f) < 1e-12


# --- input validation -----------------------------------------------------------


def test_scores_are_the_two_metrics_bit_for_bit():
    for rho, sigma in seeded_pairs(30):
        assert scores(rho, sigma) == (fidelity(rho, sigma), trace_distance(rho, sigma))


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        trace_distance(MIXED, np.eye(4) / 4)


def test_rejects_wrong_trace():
    with pytest.raises(NotDensityMatrixError, match="trace"):
        trace_distance(2 * MIXED, MIXED)


def test_rejects_non_hermitian():
    bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(NotDensityMatrixError, match="Hermiticity"):
        fidelity(bad, MIXED)


def test_rejects_negative_eigenvalues_beyond_slack():
    bad = np.diag([1.1, -0.1]).astype(complex)
    with pytest.raises(NotDensityMatrixError, match="eigenvalue"):
        trace_distance(bad, MIXED)


def test_accepts_roundoff_negative_eigenvalues():
    # engine outputs can dip a few 1e-9 below zero; both metrics admit them
    nearly = np.diag([1.0 + 5e-9, -5e-9]).astype(complex)
    assert trace_distance(nearly, KET0) < 1e-8
    assert fidelity(nearly, KET0) == pytest.approx(1.0, abs=1e-8)


def test_fidelity_clamps_roundoff_negative_eigenvalues_to_zero():
    # sqrt(rho) takes 0, not sqrt|-5e-9| ~ 7e-5, on the negative eigenvalue
    nearly = np.diag([1.0 + 5e-9, -5e-9]).astype(complex)
    assert abs(fidelity(nearly, MIXED) - np.sqrt((1.0 + 5e-9) / 2)) < 1e-12
