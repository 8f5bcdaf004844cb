"""Kernel tests: eigendecomposition, the shifted exponential, kron, partial trace.

Expected spectra are derived with a trace-based characteristic-polynomial
oracle and partial traces are cross-checked against an explicit index-loop
implementation, so none of the reference values depend on the code paths
under test.
"""

import ast
import math
import pathlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import by_blocks_rebuilt, herm_log, through_power, total_hamiltonian
from spinbp import cbp, linalg, qbp, spinchain, trotter
from spinbp.spinchain import (
    SIGMA_X, SIGMA_Y, SIGMA_Z, SpinChainModel, exact_gibbs, heisenberg_chain, xxz_chain,
)

I2 = np.eye(2, dtype=complex)


def charpoly_coeffs(a):
    """Faddeev-LeVerrier: coefficients of det(lambda I - A), leading 1.

    Uses only matrix products and traces, independent of any eigensolver.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.array([c.real for c in coeffs])


def loop_partial_trace(a, dims, keep):
    """Partial trace by explicit index loops (independent oracle)."""
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    out_dim = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((out_dim, out_dim), dtype=complex)

    def flat(indices):
        idx = 0
        for i, d in enumerate(dims):
            idx = idx * d + indices[i]
        return idx

    kept_states = list(np.ndindex(*[dims[i] for i in keep]))
    traced_states = list(np.ndindex(*[dims[i] for i in traced])) or [()]
    for r, row_kept in enumerate(kept_states):
        for c, col_kept in enumerate(kept_states):
            total = 0.0 + 0.0j
            for tr_state in traced_states:
                row = [0] * len(dims)
                col = [0] * len(dims)
                for pos, site in enumerate(keep):
                    row[site] = row_kept[pos]
                    col[site] = col_kept[pos]
                for pos, site in enumerate(traced):
                    row[site] = tr_state[pos]
                    col[site] = tr_state[pos]
                total += a[flat(row), flat(col)]
            out[r, c] = total
    return out


def taylor_exp(a, kmax=30):
    a = np.asarray(a, dtype=complex)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, kmax + 1):
        term = term @ a / k
        out = out + term
    return out


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


heis = SIGMA_X, SIGMA_Y, SIGMA_Z
heisenberg_4 = np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y) + np.kron(SIGMA_Z, SIGMA_Z)


# --- herm_eig -------------------------------------------------------------


def test_herm_eig_identity():
    eig = linalg.herm_eig(I2)
    np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(
        eig.eigenvectors.conj().T @ eig.eigenvectors, I2, atol=1e-14
    )


def test_herm_eig_sigma_z():
    eig = linalg.herm_eig(SIGMA_Z)
    np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_heisenberg_4x4_spectrum_matches_charpoly_oracle():
    # oracle: charpoly of the exchange term equals (x+3)(x-1)^3
    coeffs = charpoly_coeffs(heisenberg_4)
    expected = np.array([1.0, 0.0, -6.0, 8.0, -3.0])  # expand (x+3)(x-1)^3
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)
    for root in (-3.0, 1.0):
        assert abs(np.polyval(expected, root)) < 1e-12
    np.testing.assert_allclose(
        linalg.herm_eig(heisenberg_4).eigenvalues, [-3.0, 1.0, 1.0, 1.0], atol=1e-12
    )


def test_heisenberg_8x8_spectrum_tensor_degeneracy():
    # kron with the identity doubles every multiplicity of {-3, 1, 1, 1}
    h12 = np.kron(heisenberg_4, I2)
    np.testing.assert_allclose(
        linalg.herm_eig(h12).eigenvalues,
        [-3.0, -3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        atol=1e-12,
    )


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(linalg.NotHermitianError):
        linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_accepts_roundoff_skew():
    a = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 0.0j, 2.0]])
    linalg.herm_eig(a)  # within 1e-12 * max|A|


def test_reconstruction_and_unitarity_100_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 17))
        a = random_hermitian(rng, dim)
        w, v = linalg.herm_eig(a)
        assert np.all(np.diff(w) >= 0)
        np.testing.assert_allclose((v * w) @ v.conj().T, a, atol=1e-9)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-9)


# --- shifted_exp ------------------------------------------------------------


def test_shifted_exp_of_zero():
    np.testing.assert_allclose(linalg.shifted_exp(np.zeros((2, 2))), I2, atol=1e-14)


def test_shifted_exp_pauli_x_analytic():
    got = linalg.shifted_exp(SIGMA_X)  # exp(sigma_x - 1)
    expected = np.cosh(1.0) * I2 + np.sinh(1.0) * SIGMA_X
    np.testing.assert_allclose(np.e * got, expected, atol=1e-13)


def test_log_inverts_shifted_exp():
    np.testing.assert_allclose(herm_log(linalg.shifted_exp(SIGMA_Z)), SIGMA_Z - I2, atol=1e-10)


def test_shifted_exp_matches_taylor_series():
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        dim = int(rng.integers(2, 9))
        a = random_hermitian(rng, dim)
        a = a / np.linalg.norm(a, 2) * 2.0  # spectral norm 2
        w_max = np.linalg.eigvalsh(a)[-1]
        np.testing.assert_allclose(np.exp(w_max) * linalg.shifted_exp(a), taylor_exp(a),
                                   atol=1e-8)


def test_shifted_exp_shifts_each_matrix_by_its_own_largest_eigenvalue():
    # +-5000 times the exchange term, eigenvalues -3 (singlet) and 1 (triplet),
    # where exp(A) itself overflows, beside unit-scale neighbours
    rng = np.random.default_rng(31)
    small = [scale * random_hermitian(rng, 4) for scale in (1e-3, 1.0)]
    stack = np.array(small + [-5000 * heisenberg_4, 5000 * heisenberg_4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg.shifted_exp(stack)
    np.testing.assert_allclose(np.linalg.eigvalsh(got)[:, -1], 1.0, rtol=0, atol=1e-13)
    for k, a in enumerate(small):  # exp(A) / exp(w_max)
        w_max = np.linalg.eigvalsh(a)[-1]
        np.testing.assert_allclose(got[k], taylor_exp(a - w_max * np.eye(4)), atol=1e-8)
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    projector = np.outer(singlet, singlet)
    np.testing.assert_allclose(got[2], projector, atol=1e-13)  # exp(-20000) triplet weight
    np.testing.assert_allclose(got[3], np.eye(4) - projector, atol=1e-13)


# --- stacks -----------------------------------------------------------------


def test_stacked_exp_and_log_equal_per_matrix_calls_bit_for_bit():
    rng = np.random.default_rng(21)
    for dim in (2, 4):
        stack = np.array([random_hermitian(rng, dim) for _ in range(7)])
        exps = linalg.shifted_exp(stack)
        logs = herm_log(exps)
        assert exps.shape == logs.shape == stack.shape
        for k in range(len(stack)):
            np.testing.assert_array_equal(exps[k], linalg.shifted_exp(stack[k]))
            np.testing.assert_array_equal(logs[k], herm_log(exps[k]))
        assert linalg.shifted_exp(np.zeros((0, dim, dim))).shape == (0, dim, dim)
        assert herm_log(np.zeros((0, dim, dim))).shape == (0, dim, dim)


# A 1e6-scale neighbour would hide a defect of a unit-scale matrix from a
# check taken over the whole stack: its tolerance would be 1e6 times larger.
BIG = 1e6 * np.eye(2)


def test_stacked_hermiticity_check_is_per_matrix():
    skewed = np.array([[1.0, 1e-9j], [0.0, 1.0]])  # residue 1e-9 > 1e-12 * 1
    with pytest.raises(linalg.NotHermitianError, match=r"stack index \(1,\)"):
        linalg.shifted_exp(np.array([BIG, skewed]))
    with pytest.raises(linalg.NotHermitianError):
        linalg.require_hermitian(np.array([[BIG, BIG], [BIG, skewed]]))
    linalg.require_hermitian(np.array([BIG, np.eye(2)]))


# --- dtypes -----------------------------------------------------------------


def random_symmetric(rng, dim):
    a = rng.normal(size=(dim, dim))
    return (a + a.T) / 2


def test_coercion_keeps_float64_and_complex128_and_promotes_the_rest():
    for given, kept in ((np.float64, np.float64), (np.complex128, np.complex128),
                        (np.int64, np.float64), (np.float32, np.float64), (bool, np.float64),
                        (np.complex64, np.complex128)):
        a = np.eye(2, dtype=given)
        assert linalg.as_stack(a).dtype == linalg.as_matrix(a).dtype == kept
    a = np.eye(2)
    assert linalg.as_stack(a) is a  # no copy on the common path
    for bad in (np.ones((2, 3)), np.ones(2), np.ones((3, 2, 3))):
        with pytest.raises(ValueError, match="expected a square matrix or a stack of them"):
            linalg.as_stack(bad)
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 2, 2\)"):
        linalg.as_matrix(np.ones((2, 2, 2)))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_the_kernel_returns_its_input_dtype(dtype, monkeypatch):
    rng = np.random.default_rng(83)
    make = random_symmetric if dtype == np.float64 else random_hermitian
    a = make(rng, 8).astype(dtype)
    w, v = linalg.herm_eig(a)
    assert w.dtype == np.float64 and v.dtype == dtype
    assert linalg.shifted_exp(a).dtype == dtype
    assert linalg.spectral(v, np.exp(w)).dtype == dtype
    assert linalg.kron(a[:2, :2], a[:2, :2]).dtype == dtype
    assert linalg.partial_trace(a, [2, 2, 2], [0]).dtype == dtype
    monkeypatch.setattr(linalg, "BLOCK_MIN_DIM", 1)
    blocky, _ = sector_diagonal(rng, 3)
    assert through_power(blocky.astype(dtype))[0].dtype == dtype


def test_a_real_stack_is_checked_and_decomposed_per_matrix():
    rng = np.random.default_rng(89)
    stack = np.array([random_symmetric(rng, 4) for _ in range(5)])
    w, v = linalg.herm_eig(stack)
    exps = linalg.shifted_exp(stack)
    for k in range(len(stack)):
        wk, vk = linalg.herm_eig(stack[k])
        np.testing.assert_array_equal(w[k], wk)
        np.testing.assert_array_equal(v[k], vk)
        np.testing.assert_array_equal(exps[k], linalg.shifted_exp(stack[k]))
    stack[3, 0, 1] += 1e-6  # real, not symmetric
    with pytest.raises(linalg.NotHermitianError, match=r"stack index \(3,\)"):
        linalg.herm_eig(stack)


# --- exactly Hermitian input and non-finite entries ---------------------------


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_exactly_hermitian_input_is_decomposed_as_given(dtype):
    rng = np.random.default_rng(97)
    make = random_symmetric if dtype == np.float64 else random_hermitian
    for dim in (2, 4, 8):
        a = make(rng, dim).astype(dtype)
        assert np.array_equal(a, linalg.dagger(a))
        w, v = linalg.herm_eig(a)
        ew, ev = np.linalg.eigh(a)
        np.testing.assert_array_equal(w, ew)
        np.testing.assert_array_equal(v, ev)


def near_hermitian(rng, dim, dtype):
    """A Hermitian matrix plus a skew of 1e-14 relative: inside HERMITIAN_RTOL."""
    make = random_symmetric if dtype == np.float64 else random_hermitian
    a = make(rng, dim).astype(dtype)
    a[0, 1] += 1e-14 * np.abs(a).max()
    return a


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_near_hermitian_input_is_decomposed_symmetrized(dtype):
    rng = np.random.default_rng(101)
    for dim in (2, 4, 8):
        a = near_hermitian(rng, dim, dtype)
        w, v = linalg.herm_eig(a)
        ew, ev = np.linalg.eigh((a + linalg.dagger(a)) / 2)
        np.testing.assert_array_equal(w, ew)
        np.testing.assert_array_equal(v, ev)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_a_stack_mixing_exact_and_near_hermitian_members_gives_the_per_matrix_bits(dtype):
    rng = np.random.default_rng(103)
    make = random_symmetric if dtype == np.float64 else random_hermitian
    stack = np.array([make(rng, 4).astype(dtype) if k % 2 else near_hermitian(rng, 4, dtype)
                      for k in range(6)])
    w, v = linalg.herm_eig(stack)
    for k in range(len(stack)):
        wk, vk = linalg.herm_eig(stack[k])
        np.testing.assert_array_equal(w[k], wk)
        np.testing.assert_array_equal(v[k], vk)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [(0, 0), (0, 1)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_non_finite_entries_are_rejected(value, at, dtype):
    a = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=dtype)
    a[at] = value
    for check in (linalg.require_hermitian, linalg.herm_eig):
        with pytest.raises(linalg.NotHermitianError,
                           match=rf"matrix has 1 non-finite entries, the first .*{at}"):
            check(a)
    stack = np.array([np.eye(2, dtype=dtype), a])
    with pytest.raises(linalg.NotHermitianError, match=r"stack index \(1,\): .*non-finite"):
        linalg.herm_eig(stack)


# --- kron -------------------------------------------------------------------


def test_kron_identities():
    np.testing.assert_array_equal(linalg.kron(I2, I2), np.eye(4))
    sx_i = linalg.kron(SIGMA_X, I2)
    np.testing.assert_array_equal(sx_i[:2, 2:], I2)
    np.testing.assert_array_equal(sx_i[2:, :2], I2)
    np.testing.assert_array_equal(sx_i[:2, :2], np.zeros((2, 2)))
    np.testing.assert_array_equal(
        np.diag(linalg.kron(SIGMA_Z, SIGMA_Z)), [1, -1, -1, 1]
    )


def _random_int_matrix(rng, dim):
    # integer entries keep every float product exact, so the index layout
    # can be asserted bit-for-bit
    return (rng.integers(-8, 9, size=(dim, dim))
            + 1j * rng.integers(-8, 9, size=(dim, dim))).astype(complex)


def test_kron_index_formula():
    rng = np.random.default_rng(7)
    a = _random_int_matrix(rng, 2)
    b = _random_int_matrix(rng, 3)
    k = linalg.kron(a, b)
    for i in range(2):
        for j in range(2):
            for p in range(3):
                for q in range(3):
                    assert k[i * 3 + p, j * 3 + q] == a[i, j] * b[p, q]


def test_kron_associativity_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b, c = (_random_int_matrix(rng, 2) for _ in range(3))
        np.testing.assert_array_equal(
            linalg.kron(linalg.kron(a, b), c), linalg.kron(a, linalg.kron(b, c))
        )


def test_kron_of_stacks_equals_per_matrix_kron_bit_for_bit():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    left, right = linalg.kron(a, b), linalg.kron(b, a)
    assert left.shape == right.shape == (5, 6, 6)
    for k in range(5):
        np.testing.assert_array_equal(left[k], np.kron(a[k], b))
        np.testing.assert_array_equal(right[k], np.kron(b, a[k]))


def test_kron_associativity_generic_entries():
    rng = np.random.default_rng(12)
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    np.testing.assert_allclose(
        linalg.kron(linalg.kron(a, b), c), linalg.kron(a, linalg.kron(b, c)), atol=1e-14
    )


# --- partial_trace ----------------------------------------------------------


def test_partial_trace_factorized_state():
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    got = linalg.partial_trace(linalg.kron(a, b), [2, 3], keep=[0])
    np.testing.assert_allclose(got, np.trace(b) * a, atol=1e-13)


def test_partial_trace_bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    bell = np.outer(phi, phi.conj())
    np.testing.assert_allclose(
        linalg.partial_trace(bell, [2, 2], keep=[0]), I2 / 2, atol=1e-14
    )


def test_partial_trace_gibbs_matches_loop_oracle():
    rho = exact_gibbs(heisenberg_chain(3, 1.0))
    got = linalg.partial_trace(rho, [2, 2, 2], keep=[0, 1])
    expected = loop_partial_trace(rho, [2, 2, 2], keep=[0, 1])
    np.testing.assert_allclose(got, expected, atol=1e-13)


def test_partial_trace_random_matches_loop_oracle():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    for keep in ([0], [1], [2], [0, 2], [1, 2], [0, 1, 2]):
        got = linalg.partial_trace(a, [2, 3, 2], keep=keep)
        np.testing.assert_allclose(got, loop_partial_trace(a, [2, 3, 2], keep), atol=1e-12)


def test_partial_trace_preserves_trace_every_keep_set():
    rng = np.random.default_rng(9)
    a = random_hermitian(rng, 8)
    for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]):
        reduced = linalg.partial_trace(a, [2, 2, 2], keep=keep)
        assert abs(np.trace(reduced) - np.trace(a)) < 1e-12
        np.testing.assert_allclose(reduced, reduced.conj().T, atol=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        linalg.partial_trace(np.eye(6), [2, 2], keep=[0])
    with pytest.raises(ValueError, match="nonempty"):
        linalg.partial_trace(np.eye(4), [2, 2], keep=[])
    with pytest.raises(ValueError, match="out of range"):
        linalg.partial_trace(np.eye(4), [2, 2], keep=[2])
    with pytest.raises(ValueError, match=r"site dimensions must be positive, got \[2, 0\]"):
        linalg.partial_trace(np.eye(2), [2, 0], keep=[0])


@pytest.mark.parametrize("site_dims, product", [
    ([2] * 64, 2**64),  # wrapped to 0 in int64
    ([3, 6148914691236517206], 18446744073709551618),  # wrapped to 2, the input's own dim
])
def test_partial_trace_sizes_past_int64_are_a_dimension_mismatch(site_dims, product):
    with pytest.raises(ValueError, match=rf"^dimension mismatch: product of site dims {product} "
                                         r"!= matrix dim 2$"):
        linalg.partial_trace(np.eye(2) / 2, site_dims, keep=[0])


@pytest.mark.parametrize("call, message", [
    (lambda: trotter.trotter_plan(heisenberg_chain(3, 1.0), 2.5), "n_slices=2.5"),
    (lambda: trotter.trotter_plan(heisenberg_chain(3, 1.0), True), "n_slices=True"),
    (lambda: trotter.st_opcount(20.7, 3), "n_slices=20.7"),
    (lambda: trotter.st_opcount(20, 3.0), "n_spins_exponent=3.0"),
    (lambda: qbp.qbp_opcount(3.9), "n_sites=3.9"),
    (lambda: qbp.qbp_opcount(np.True_), f"n_sites={np.True_!r}"),
    (lambda: linalg.partial_trace(np.eye(4), [2, 2], keep=[0.7]), "keep[0]=0.7"),
    (lambda: linalg.partial_trace(np.eye(4), [2, 2], keep=[True]), "keep[0]=True"),
    (lambda: linalg.partial_trace(np.eye(4), [2, 2], keep=[np.True_]), f"keep[0]={np.True_!r}"),
    (lambda: linalg.partial_trace(np.eye(4), [2, "2"], keep=[0]), "site_dims[1]='2'"),
    (lambda: SpinChainModel(3.0, heisenberg_chain(3, 1.0).terms, 1.0), "n_sites=3.0"),
    (lambda: xxz_chain(3.0, 1), "n_sites=3.0"),
    (lambda: cbp.FactorChain([2.5, 2], [(0, 1, np.ones((2, 2)))]), "cards[0]=2.5"),
    (lambda: cbp.FactorChain([2, 2], [(0, 1.0, np.ones((2, 2)))]), "edge end=1.0"),
    (lambda: cbp.brute_marginal(cbp.FactorChain([2, 2], [(0, 1, np.ones((2, 2)))]), [0.7]),
     "targets[0]=0.7"),
], ids=["trotter_plan", "trotter_plan-bool", "st_opcount-slices", "st_opcount-exponent",
        "qbp_opcount", "qbp_opcount-numpy-bool", "partial_trace-keep", "partial_trace-keep-bool",
        "partial_trace-keep-numpy-bool", "partial_trace-dims", "SpinChainModel", "xxz_chain",
        "FactorChain-cards", "FactorChain-edges", "brute_marginal"])
def test_integer_arguments_are_checked_not_truncated(call, message):
    # each of these once truncated its argument, failed with a bare TypeError or took
    # a Python bool as 0 or 1 (a numpy bool was refused);
    # SweepConfig's counts follow the same rule (test_bench.py)
    with pytest.raises(ValueError, match=re.escape(f"{message} is not an integer")):
        call()


def test_numpy_integer_arguments_are_accepted():
    model = heisenberg_chain(np.int64(3), 1.0)
    assert type(model.n_sites) is int
    np.testing.assert_array_equal(
        trotter.st_reduced(trotter.trotter_plan(model, np.int32(20)), np.array([0, 1])),
        trotter.st_reduced(trotter.trotter_plan(heisenberg_chain(3, 1.0), 20), [0, 1]),
    )
    assert trotter.st_opcount(np.int64(20), np.int8(3)) == trotter.st_opcount(20, 3)


# --- the sector path of cbp.chain_end_marginal and its sector index -----------
# (these tests run chain_end_marginal with cbp._power replaced by a kernel that
# works on the stacks in place, so they see what is gathered and scattered)


def popcount(i):
    return bin(i).count("1")


def sector_diagonal(rng, n_sites):
    """Random real entries of a 2^n_sites matrix inside its popcount sectors
    only; returns the matrix and the mask of the entries between sectors."""
    counts = np.array([popcount(i) for i in range(2**n_sites)])
    between = counts[:, None] != counts[None, :]
    a = rng.uniform(0.1, 1.0, size=between.shape)
    a[between] = 0.0
    return a, between


def test_by_blocks_hands_over_the_popcount_classes(monkeypatch):
    # a loop oracle: sizes ascending, equal sizes by set-bit count, states
    # ascending.  Entry s of the diagonal is s + 1, so the diagonals of the
    # stacks chain_end_marginal hands over, less one, are the sectors; the held
    # index gives them too, as its diagonal divided by 2^N + 1
    monkeypatch.setattr(linalg, "BLOCK_MIN_DIM", 1)
    for n_sites in range(13):
        sectors = {}
        for i in range(2**n_sites):
            sectors.setdefault(popcount(i), []).append(i)
        expected = {}
        for c in sorted(sectors):
            expected.setdefault(len(sectors[c]), []).append(sectors[c])
        expected = [np.array(expected[d]) for d in sorted(expected)]
        dim, seen = 2**n_sites, []

        def diagonals(stacks):
            seen.extend(s.diagonal(axis1=1, axis2=2) - 1 for s in stacks)

        through_power(np.diag(np.arange(dim) + 1.0), diagonals)
        index = linalg._sector_index(n_sites)
        for got in (seen, [i.diagonal(axis1=1, axis2=2) // (dim + 1) for i in index]):
            assert [g.shape for g in got] == [e.shape for e in expected]
            for g, e in zip(got, expected):
                np.testing.assert_array_equal(g, e)
    assert [i.shape for i in linalg._sector_index(4)] == [(2, 1, 1), (2, 4, 4), (1, 6, 6)]


def test_sector_index_holds_read_only_arrays():
    # every width's index is one tuple, built once and shared by later calls,
    # and no array in it can be written
    for n_sites in (0, 3, 8):
        index = linalg._sector_index(n_sites)
        assert isinstance(index, tuple) and index is linalg._sector_index(n_sites)
        for i in index:
            with pytest.raises(ValueError, match="read-only"):
                i[0, 0, 0] = 1


def test_sector_index_is_built_in_the_array_it_keeps():
    # each size's entries are written straight into their view of the one flat
    # array, so building a width's index allocates little beyond what it holds
    tracemalloc.start()
    try:
        index = linalg._sector_index.__wrapped__(10)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index[0].base.nbytes == 8 * math.comb(20, 10) <= held
    assert peak <= 1.1 * held


def test_by_blocks_matches_a_rebuilt_index_across_widths():
    # one process visits 128, 256, 512 and 1024 states and comes back to 256:
    # every result has the per-call oracle's bits, a matrix with an entry
    # between sectors is still one block, and the second visit builds nothing.
    # Each entry moves to its row's running sum, in place: the order shows

    def summed(stacks):
        for s in stacks:
            np.cumsum(s, axis=-1, out=s)

    def rebuilt(a):
        return by_blocks_rebuilt(a, lambda stacks: [np.cumsum(s, axis=-1) for s in stacks])

    def check(sites):
        for model in (heisenberg_chain(sites, 1.0), xxz_chain(sites, 1.0, delta=0.5, field=0.3)):
            for matrix in (total_hamiltonian(model),
                           trotter.build_weights(trotter.trotter_plan(model, 20)).matrix):
                for a in (matrix, np.asfortranarray(matrix)):
                    got, shapes = through_power(a, summed)
                    assert np.array_equal(got, rebuilt(a))
                    assert len(shapes) == sites // 2 + 1
        crossed = total_hamiltonian(heisenberg_chain(sites, 1.0))
        crossed[0, 1] = 0.5
        got, shapes = through_power(crossed, summed)
        assert np.array_equal(got, rebuilt(crossed))
        assert shapes == [(1, 2**sites, 2**sites)]

    for sites in (7, 8, 9, 10):
        check(sites)
    built = linalg._sector_index.cache_info()
    check(8)
    again = linalg._sector_index.cache_info()
    assert (again.misses, again.currsize) == (built.misses, built.currsize)
    assert again.hits > built.hits


def test_by_blocks_takes_the_matrix_whole_when_an_entry_lies_between_sectors():
    # one entry between sectors, in either triangle, in either part, or a NaN,
    # and the 128-state matrix is one block, handed over and returned as it is
    a, between = sector_diagonal(np.random.default_rng(71), 7)
    got, shapes = through_power(a)
    np.testing.assert_array_equal(got, a)
    seen = [shapes]
    for at, value in (((0, 1), 0.5), ((1, 0), 0.5), ((3, 64), 1e-30j), ((5, 7), np.nan)):
        assert between[at]
        b = a.astype(type(value))
        b[at] = value
        got, shapes = through_power(b)
        np.testing.assert_array_equal(got, b)
        seen.append(shapes)
    sectors = [(2, 1, 1), (2, 7, 7), (2, 21, 21), (2, 35, 35)]
    assert seen == [sectors] + [[(1, 128, 128)]] * 4


def test_by_blocks_takes_a_full_or_odd_width_matrix_whole():
    # a full matrix, and widths that are no power of two, whatever their zeros
    rng = np.random.default_rng(73)
    for a in (rng.uniform(0.1, 1.0, size=(128, 128)), np.diag(rng.uniform(0.1, 1.0, 130)),
              np.eye(192)):
        got, shapes = through_power(a)
        np.testing.assert_array_equal(got, a)
        assert shapes == [(1,) + a.shape]


@pytest.mark.parametrize("min_dim", [None, 1])
def test_by_blocks_of_the_identity_returns_the_matrix(min_dim, monkeypatch):
    # at the default width the matrix is one block; at width 1 it is split
    if min_dim is not None:
        monkeypatch.setattr(linalg, "BLOCK_MIN_DIM", min_dim)
    a, between = sector_diagonal(np.random.default_rng(79), 3)
    got, shapes = through_power(a)
    assert shapes == ([(1, 8, 8)] if min_dim is None else [(2, 1, 1), (2, 3, 3)])
    np.testing.assert_array_equal(got, a)
    assert not got[between].any()  # exactly zero between the blocks


# --- one spectral path ------------------------------------------------------


def test_herm_eig_is_the_only_hermitian_eigensolver_call():
    """eigh and eigvalsh are named in src/spinbp only inside linalg.herm_eig,
    so every spectrum shares its Hermiticity check and solver-failure handler."""
    solver_names = {"eigh", "eigvalsh"}
    inside, outside = [], []
    for path in sorted(pathlib.Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "linalg.py":
            (herm_eig,) = [n for n in tree.body
                           if isinstance(n, ast.FunctionDef) and n.name == "herm_eig"]
            allowed = {id(n) for n in ast.walk(herm_eig)}
        for node in ast.walk(tree):
            # attribute (np.linalg.eigh), bare name (eigh) or import alias
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            if name in solver_names:
                (inside if id(node) in allowed else outside).append(f"{path.name}:{node.lineno}")
    assert inside, "linalg.herm_eig no longer calls the eigensolver"
    assert outside == []


def test_shifted_exp_is_the_only_exponential_outside_the_exact_state():
    """exp is named in src/spinbp only inside linalg.shifted_exp, the one per-matrix
    exponential; spinchain.exact_gibbs, whose sector blocks share one shift; and
    qbp._updates, whose square roots are each shifted by their own largest eigenvalue."""
    allowed_in = {"linalg.py": "shifted_exp", "spinchain.py": "exact_gibbs", "qbp.py": "_updates"}
    inside, outside = set(), []
    for path in sorted(pathlib.Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for n in tree.body:
            if isinstance(n, ast.FunctionDef) and n.name == allowed_in.get(path.name):
                allowed = {id(m) for m in ast.walk(n)}
        for node in ast.walk(tree):
            # attribute (np.exp), bare name (exp) or import alias
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            if name in ("exp", "expm"):
                if id(node) in allowed:
                    inside.add(path.name)
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert inside == set(allowed_in), "an allowed function no longer calls exp"
    assert outside == []


def test_by_blocks_is_the_only_block_kernel():
    """The sectors are listed (argsort) and the block index s[:, :, None],
    s[:, None, :] that gathers and scatters their blocks is built, in src/spinbp
    only inside linalg._sector_index, once per width (functools.cache).  Its
    readers are cbp.chain_end_marginal, which gathers and scatters W's blocks,
    and spinchain: _bond_index, the per-bond table of H's block positions (held
    too), and exact_gibbs, which scatters the state's blocks."""
    built, calls, cached = [], [], []
    for path in sorted(pathlib.Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                owner.update((id(n), top) for n in ast.walk(top))
                if any(ast.unparse(d) == "functools.cache" for d in top.decorator_list):
                    cached.append(f"{path.name}:{top.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            elif isinstance(node, ast.Subscript):
                name = ast.unparse(node.slice)
            else:
                continue
            where = f"{path.name}:{getattr(owner.get(id(node)), 'name', node.lineno)}"
            if name in {"argsort", "(:, :, None)", "(:, None, :)"}:
                built.append(where)
            elif name == "_sector_index":
                calls.append(where)
    assert built == ["linalg.py:_sector_index"] * 3
    assert calls == ["cbp.py:chain_end_marginal", "spinchain.py:_bond_index",
                     "spinchain.py:exact_gibbs"]
    assert cached == ["linalg.py:_sector_index", "spinchain.py:_bond_index"]


def test_held_tables_are_built_once_per_width_and_read_only():
    # the sector index and the per-bond tables of both layouts (sectors, and H
    # whole for the transverse field and below BLOCK_MIN_DIM): a second round of
    # the same widths builds nothing, and no held array can be written
    transverse = np.kron(SIGMA_X, I2).real
    widths = (3, 7, 8)

    def run():
        for sites in widths:
            exact_gibbs(heisenberg_chain(sites, 1.0))
            exact_gibbs(SpinChainModel(sites, (transverse,) * (sites - 1), 1.0))

    run()
    built = [held.cache_info() for held in (linalg._sector_index, spinchain._bond_index)]
    run()
    for held, before in zip((linalg._sector_index, spinchain._bond_index), built):
        after = held.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)
        assert after.hits > before.hits
    for sites in widths:
        for split in (False, True):
            tables = spinchain._bond_index(sites, split)
            assert isinstance(tables, tuple) and tables is spinchain._bond_index(sites, split)
            assert len(tables) == sites + 1  # the entries, the diagonal, one per bond
            for table in tables + linalg._sector_index(sites):
                with pytest.raises(ValueError, match="read-only"):
                    table.flat[0] = 0
    # the sector index holds C(2N, N) entries in all: its per-size arrays are
    # views of one flat array laid end to end, with no second copy beside them
    for sites in (4, 8, 10):
        index = linalg._sector_index(sites)
        flat = index[0].base
        assert flat.ndim == 1 and flat.size == math.comb(2 * sites, sites)
        assert all(i.base is flat for i in index)
        assert sum(i.size for i in index) == flat.size
        assert np.array_equal(np.concatenate(index, axis=None), flat)
