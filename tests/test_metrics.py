"""Trace distance and fidelity: closed-form values and metric axioms."""

import numpy as np
import pytest

from spinbp import linalg
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


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_trace_distance_is_half_the_trace_norm_of_the_difference():
    rng = np.random.default_rng(11)
    for rho, sigma, distance in (
        (KET0, KET1, 1.0),  # orthogonal pure states: rho - sigma = sigma_z, trace norm 2
        (MIXED, MIXED, 0.0),  # identical states: the zero difference
        # rho - sigma has spectrum (0.3, 0.4, 0, -0.7): trace norm 1.4
        (np.diag([3.0, 4.0, 3.0, 0.0]) / 10, np.diag([0.0, 0.0, 3.0, 7.0]) / 10, 0.7),
    ):
        # in any common basis the difference keeps its spectrum
        u = random_unitary(rng, len(rho))
        rotated = [u @ a @ u.conj().T for a in (rho, sigma)]
        assert trace_distance(rho, sigma) == pytest.approx(distance, abs=1e-13)
        assert trace_distance(*rotated) == pytest.approx(distance, abs=1e-13)


def test_trace_distance_bounds_the_weight_difference_on_any_subspace():
    # tr P(rho - sigma) <= D(rho, sigma) for every projector P, with equality on the
    # positive eigenspace of rho - sigma (numpy's eigh as an independent oracle)
    rng = np.random.default_rng(200)
    for rho, sigma in seeded_pairs(25):
        d = trace_distance(rho, sigma)
        w, v = np.linalg.eigh(rho - sigma)
        positive = v[:, w > 0]
        assert np.trace(positive.conj().T @ (rho - sigma) @ positive).real == pytest.approx(
            d, abs=1e-12)
        for rank in range(1, len(rho)):
            p = random_unitary(rng, len(rho))[:, :rank]
            assert np.trace(p.conj().T @ (rho - sigma) @ p).real <= d + 1e-12


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


# --- error precedence and non-finite input ----------------------------------------

NON_HERMITIAN = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
# each bad state and the message the check gives it
BAD_STATES = {
    "residue": (NON_HERMITIAN, "Hermiticity residue 3.000e-01 > 1e-08"),
    "trace": (2 * MIXED, "trace 2.0 differs from 1 beyond 1e-08"),
    "eigenvalue": (np.diag([1.1, -0.1]), "eigenvalue -1.000e-01 below -1e-08"),
}


def first_error(metric, rho, sigma) -> str:
    with pytest.raises(NotDensityMatrixError) as info:
        metric(rho, sigma)
    return str(info.value)


@pytest.mark.parametrize("metric", [fidelity, trace_distance, scores])
@pytest.mark.parametrize("rho_bad", [None, *BAD_STATES])
@pytest.mark.parametrize("sigma_bad", [None, *BAD_STATES])
def test_errors_name_the_first_bad_state_and_check(metric, rho_bad, sigma_bad):
    # rho's Hermiticity, trace and eigenvalue checks come before sigma's
    if rho_bad is None and sigma_bad is None:
        return
    rho, rho_message = BAD_STATES[rho_bad] if rho_bad else (MIXED, None)
    sigma, sigma_message = BAD_STATES[sigma_bad] if sigma_bad else (KET0, None)
    expected = f"rho: {rho_message}" if rho_bad else f"sigma: {sigma_message}"
    assert first_error(metric, rho, sigma) == expected


def test_dimension_mismatch_comes_before_a_bad_state():
    with pytest.raises(ValueError, match="dimension mismatch"):
        fidelity(NON_HERMITIAN, np.eye(4) / 4)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [(0, 0), (0, 1)])
@pytest.mark.parametrize("metric", [fidelity, trace_distance, scores])
def test_non_finite_entries_are_rejected_as_rho_and_as_sigma(value, at, metric):
    bad = MIXED.copy()
    bad[at] = value
    assert first_error(metric, bad, KET0).startswith("rho: Hermiticity residue")
    assert "sigma: Hermiticity residue" in first_error(metric, KET0, bad)
    # a bad rho is still reported first, and a bad sigma does not hide it
    assert first_error(metric, BAD_STATES["eigenvalue"][0], bad).startswith("rho: eigenvalue")
    assert first_error(metric, bad, bad).startswith("rho:")


def real_density(rng, dim):
    rho = random_density(rng, dim).real
    rho = (rho + rho.T) / 2
    return rho / np.trace(rho)


def test_a_pair_is_decomposed_in_one_stacked_call(eig_calls):
    # the trace distance decomposes rho - sigma after the pair; the fidelity reads
    # only the pair
    rng = np.random.default_rng(7)
    for dim in (2, 4, 8):
        rho, sigma = random_density(rng, dim), real_density(rng, dim)
        for a, b, dtype in ((rho, sigma, np.complex128), (sigma, sigma, np.float64)):
            for metric, stacked in ((scores, 3), (trace_distance, 3), (fidelity, 2)):
                eig_calls.clear()
                metric(a, b)
                assert eig_calls == [((stacked, dim, dim), dtype)]


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
@pytest.mark.parametrize("dtypes", ["real", "complex", "mixed"])
def test_trace_distance_is_the_separate_spectrum_of_the_difference_bit_for_bit(dim, dtypes):
    # the difference of the symmetrized states, decomposed on its own, gives the
    # same bits as its place in the pair's stack
    rng = np.random.default_rng(dim)
    make = {"real": (real_density, real_density), "complex": (random_density, random_density),
            "mixed": (random_density, real_density)}[dtypes]
    for _ in range(10):
        rho, sigma = (m(rng, dim) for m in make)
        for a, b in ((rho, sigma), (sigma, rho)):
            pair = np.array((a, b))
            r_sym, s_sym = (pair + pair.conj().swapaxes(1, 2)) / 2
            expected = 0.5 * float(np.abs(linalg.herm_eig(r_sym - s_sym).eigenvalues).sum())
            assert trace_distance(a, b) == expected
            assert scores(a, b) == (fidelity(a, b), expected)


def test_only_the_states_before_the_first_failing_one_are_decomposed(eig_calls):
    # a failing rho raises with no spectrum taken; a failing sigma after rho's
    for rho, sigma, decomposed in ((NON_HERMITIAN, MIXED, 0), (2 * MIXED, MIXED, 0),
                                   (MIXED, NON_HERMITIAN, 1), (MIXED, 2 * MIXED, 1)):
        eig_calls.clear()
        with pytest.raises(NotDensityMatrixError):
            scores(rho, sigma)
        assert [shape for shape, _ in eig_calls] == [(decomposed, 2, 2)]
