"""Kernel tests: eigendecomposition, matrix functions, kron, partial trace.

Expected spectra are derived with a trace-based characteristic-polynomial
oracle and partial traces are cross-checked against an explicit index-loop
implementation, so none of the reference values depend on the code paths
under test.
"""

import ast
import pathlib

import numpy as np
import pytest

from spinbp import linalg
from spinbp.spinchain import SIGMA_X, SIGMA_Y, SIGMA_Z, heisenberg_chain, exact_gibbs

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


# --- mat_func ---------------------------------------------------------------


def test_mat_func_exp_of_zero():
    np.testing.assert_allclose(linalg.mat_func(np.zeros((2, 2)), np.exp), I2, atol=1e-14)


def test_mat_func_exp_pauli_x_analytic():
    got = linalg.mat_func(SIGMA_X, np.exp)
    expected = np.cosh(1.0) * I2 + np.sinh(1.0) * SIGMA_X
    np.testing.assert_allclose(got, expected, atol=1e-13)


def test_mat_func_log_inverts_exp():
    np.testing.assert_allclose(
        linalg.herm_log(linalg.herm_exp(SIGMA_Z)), SIGMA_Z, atol=1e-10
    )


def test_mat_func_exp_matches_taylor_series():
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        dim = int(rng.integers(2, 9))
        a = random_hermitian(rng, dim)
        a = a / np.linalg.norm(a, 2) * 2.0  # spectral norm 2
        np.testing.assert_allclose(linalg.herm_exp(a), taylor_exp(a), atol=1e-8)


def test_mat_func_domain_error_on_negative_spectrum():
    with pytest.raises(linalg.DomainError):
        linalg.herm_log(np.diag([-1.0, 1.0]))


def test_mat_func_clamps_roundoff_negatives():
    # eigenvalue -1e-15 is within 1e-12 * max|w| of zero: clamped, no raise
    got = linalg.herm_log(np.diag([-1e-15, 1.0]))
    assert np.isfinite(got).all()
    assert got[0, 0].real < -600  # log of the tiny positive floor


# --- stacks -----------------------------------------------------------------


def test_stacked_exp_and_log_equal_per_matrix_calls_bit_for_bit():
    rng = np.random.default_rng(21)
    for dim in (2, 4):
        stack = np.array([random_hermitian(rng, dim) for _ in range(7)])
        exps = linalg.herm_exp(stack)
        logs = linalg.herm_log(exps)
        assert exps.shape == logs.shape == stack.shape
        for k in range(len(stack)):
            np.testing.assert_array_equal(exps[k], linalg.herm_exp(stack[k]))
            np.testing.assert_array_equal(logs[k], linalg.herm_log(exps[k]))
        assert linalg.herm_exp(np.zeros((0, dim, dim))).shape == (0, dim, dim)
        assert linalg.herm_log(np.zeros((0, dim, dim))).shape == (0, dim, dim)


# A 1e6-scale neighbour would hide a defect of a unit-scale matrix from a
# check taken over the whole stack: its tolerance would be 1e6 times larger.
BIG = 1e6 * np.eye(2)


def test_stacked_hermiticity_check_is_per_matrix():
    skewed = np.array([[1.0, 1e-9j], [0.0, 1.0]])  # residue 1e-9 > 1e-12 * 1
    with pytest.raises(linalg.NotHermitianError, match=r"stack index \(1,\)"):
        linalg.herm_exp(np.array([BIG, skewed]))
    with pytest.raises(linalg.NotHermitianError):
        linalg.require_hermitian(np.array([[BIG, BIG], [BIG, skewed]]))
    linalg.require_hermitian(np.array([BIG, np.eye(2)]))


def test_stacked_positivity_check_is_per_matrix():
    negative = np.diag([-1e-9, 1.0])  # below -1e-12 * 1, so not clamped
    with pytest.raises(linalg.DomainError, match=r"stack index \(1,\)"):
        linalg.herm_log(np.array([BIG, negative]))
    # roundoff negatives are still clamped per matrix
    got = linalg.herm_log(np.array([BIG, np.diag([-1e-15, 1.0])]))
    np.testing.assert_array_equal(got[1], linalg.herm_log(np.diag([-1e-15, 1.0])))


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


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_the_kernel_returns_its_input_dtype(dtype, monkeypatch):
    rng = np.random.default_rng(83)
    make = random_symmetric if dtype == np.float64 else random_hermitian
    a = make(rng, 8).astype(dtype)
    w, v = linalg.herm_eig(a)
    assert w.dtype == np.float64 and v.dtype == dtype
    assert linalg.mat_func(a, np.exp).dtype == dtype
    assert linalg.spectral(v, np.exp(w)).dtype == dtype
    assert linalg.kron(a[:2, :2], a[:2, :2]).dtype == dtype
    assert linalg.partial_trace(a, [2, 2, 2], [0]).dtype == dtype
    monkeypatch.setattr(linalg, "BLOCK_MIN_DIM", 1)
    blocky, _ = permuted_block_diagonal(rng, (3, 1, 2, 2))
    assert linalg.by_blocks(blocky.astype(dtype), lambda stacks: stacks).dtype == dtype


def test_a_real_stack_is_checked_and_decomposed_per_matrix():
    rng = np.random.default_rng(89)
    stack = np.array([random_symmetric(rng, 4) for _ in range(5)])
    w, v = linalg.herm_eig(stack)
    exps = linalg.herm_exp(stack)
    for k in range(len(stack)):
        wk, vk = linalg.herm_eig(stack[k])
        np.testing.assert_array_equal(w[k], wk)
        np.testing.assert_array_equal(v[k], vk)
        np.testing.assert_array_equal(exps[k], linalg.herm_exp(stack[k]))
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
    with pytest.raises(linalg.NotHermitianError, match="non-finite"):
        linalg.abs_trace_norm(a)


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


# --- diagonal_blocks --------------------------------------------------------


def permuted_block_diagonal(rng, sizes):
    """Random real blocks of the given sizes, their indices scattered by a
    random permutation; returns the matrix and each block's index set."""
    perm = rng.permutation(sum(sizes))
    a = np.zeros((len(perm), len(perm)))
    sets, at = [], 0
    for d in sizes:
        s = np.sort(perm[at:at + d])
        a[np.ix_(s, s)] = rng.uniform(0.1, 1.0, size=(d, d))
        sets.append(s)
        at += d
    return a, sets


def test_diagonal_blocks_recover_permuted_blocks():
    rng = np.random.default_rng(71)
    a, sets = permuted_block_diagonal(rng, (1, 2, 2, 3))
    assert not all(np.array_equal(s, np.arange(s[0], s[0] + len(s))) for s in sets)
    got = linalg.diagonal_blocks(a)
    assert [g.shape for g in got] == [(1, 1), (2, 2), (1, 3)]
    # ascending within a set, sets of one size ordered by their least index
    expected = {d: sorted((s for s in sets if len(s) == d), key=lambda s: s[0]) for d in (1, 2, 3)}
    for g in got:
        np.testing.assert_array_equal(g, expected[g.shape[1]])
    # the blocks hold every nonzero entry
    inside = np.zeros(a.shape, bool)
    for g in got:
        for s in g:
            inside[np.ix_(s, s)] = True
    assert not a[~inside].any()


def test_diagonal_blocks_link_either_direction_and_either_part():
    # a[0, 2] alone joins 0 and 2; an imaginary entry alone joins 1 and 3
    a = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    a[0, 2] = 0.5
    a[3, 1] = 1e-30j
    for matrix in (a, a.T, a.astype(np.complex64)):
        np.testing.assert_array_equal(linalg.diagonal_blocks(matrix), [[[0, 2], [1, 3]]])
    # zeros on the diagonal: each index is still its own block
    [single] = linalg.diagonal_blocks(np.zeros((3, 3)))
    np.testing.assert_array_equal(single, [[0], [1], [2]])
    # a chain of links in decreasing index order is one block
    path = np.eye(6)
    for i, j in [(5, 4), (4, 1), (1, 3), (3, 0), (0, 2)]:
        path[i, j] = 1.0
    np.testing.assert_array_equal(linalg.diagonal_blocks(path), [np.arange(6)[None]])


def test_diagonal_blocks_of_a_full_matrix_are_one_block():
    a = np.random.default_rng(73).uniform(0.1, 1.0, size=(5, 5))
    np.testing.assert_array_equal(linalg.diagonal_blocks(a), [np.arange(5)[None]])
    with pytest.raises(ValueError, match="square"):
        linalg.diagonal_blocks(np.ones((2, 3)))


@pytest.mark.parametrize("min_dim", [None, 1])
def test_by_blocks_of_the_identity_returns_the_matrix(min_dim, monkeypatch):
    # at the default width the matrix is one block; at width 1 it is split
    if min_dim is not None:
        monkeypatch.setattr(linalg, "BLOCK_MIN_DIM", min_dim)
    a, _ = permuted_block_diagonal(np.random.default_rng(79), (3, 1, 2, 2))
    seen = []

    def identity(stacks):
        seen.extend(s.shape for s in stacks)
        return stacks

    got = linalg.by_blocks(a, identity)
    assert seen == ([(1, 8, 8)] if min_dim is None else [(1, 1, 1), (2, 2, 2), (1, 3, 3)])
    np.testing.assert_array_equal(got, a)  # so exactly zero between the blocks


# --- abs_trace_norm ---------------------------------------------------------


def test_abs_trace_norm_values():
    assert linalg.abs_trace_norm(SIGMA_Z) == pytest.approx(2.0, abs=1e-13)
    assert linalg.abs_trace_norm(np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-15)
    assert linalg.abs_trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-13)


def test_abs_trace_norm_bounds_trace():
    for seed in range(25):
        rng = np.random.default_rng(200 + seed)
        a = random_hermitian(rng, int(rng.integers(2, 9)))
        assert linalg.abs_trace_norm(a) >= abs(np.trace(a)) - 1e-12


def test_abs_trace_norm_rejects_non_hermitian():
    with pytest.raises(linalg.NotHermitianError):
        linalg.abs_trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


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


def test_by_blocks_is_the_only_block_kernel():
    """diagonal_blocks is called, and the block index s[:, :, None],
    s[:, None, :] is built, in src/spinbp only inside linalg.by_blocks."""
    inside, outside = [], []
    for path in sorted(pathlib.Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "linalg.py":
            (kernel,) = [n for n in tree.body
                         if isinstance(n, ast.FunctionDef) and n.name == "by_blocks"]
            allowed = {id(n) for n in ast.walk(kernel)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                hit = name == "diagonal_blocks"
            elif isinstance(node, ast.Subscript):
                hit = ast.unparse(node.slice) in {"(:, :, None)", "(:, None, :)"}
            else:
                continue
            if hit:
                (inside if id(node) in allowed else outside).append(f"{path.name}:{node.lineno}")
    assert len(inside) == 3, "linalg.by_blocks no longer finds and indexes the blocks"
    assert outside == []
