"""Suzuki-Trotter engine: contraction identity, convergence order, op counts.

The contraction route (the block message recursion) is checked against
direct matrix powering of the transfer weights, the locally built weights
against the product of embedded 2^N x 2^N exponentials, and the
n -> infinity limit against full diagonalization.
"""

import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import complex_rotated, embed_term, herm_func, sector_shapes, total_hamiltonian
from spinbp import cbp, linalg, metrics
from spinbp.spinchain import (
    SIGMA_X,
    SpinChainModel,
    exact_gibbs,
    heisenberg_chain,
    xxz_chain,
    xxz_term,
)
from spinbp.trotter import (
    build_weights,
    st_density,
    st_opcount,
    st_opcount_ends,
    st_opcount_middle,
    st_reduced,
    trotter_plan,
)


def power_oracle(plan):
    """W^n / tr(W^n) by repeated matrix multiplication (independent route)."""
    w = build_weights(plan).matrix
    p = np.linalg.matrix_power(w, plan.n_slices)
    return p / np.trace(p)


def embedded_product(plan):
    """prod_k exp(-(beta/n) I kron (h_k - lambda_min(h_k)) kron I), as
    exp((beta/n) lambda_min(h_k)) times a dense 2^N x 2^N exponential."""
    model = plan.model
    step = model.beta / plan.n_slices
    w = np.eye(2**model.n_sites, dtype=complex)
    for k, term in enumerate(model.terms):
        factor = herm_func(-step * embed_term(term, (k, k + 1), model.n_sites), np.exp)
        w = w @ (np.exp(step * np.linalg.eigvalsh(term)[0]) * factor)
    return w


def exact_rho12(beta):
    rho = exact_gibbs(heisenberg_chain(3, beta))
    return linalg.partial_trace(rho, [2, 2, 2], [0, 1])


def test_plan_factors_are_the_slice_exponentials():
    model = heisenberg_chain(3, 1.2)
    plan = trotter_plan(model, 16)
    assert plan.slice_factors.shape == model.terms.shape == (2, 4, 4)
    step = 1.2 / 16
    for k, term in enumerate(model.terms):
        # one stacked exponential gives the bits of one call per term
        np.testing.assert_array_equal(plan.slice_factors[k], linalg.shifted_exp(-step * term))
        # exp(-(beta/n) h_k) scaled by exp((beta/n) lambda_min(h_k))
        scale = np.exp(step * np.linalg.eigvalsh(term)[0])
        np.testing.assert_allclose(scale * herm_func(-step * term, np.exp), plan.slice_factors[k],
                                   rtol=0, atol=1e-15)
    np.testing.assert_allclose(build_weights(plan).matrix, embedded_product(plan), atol=1e-12)
    with pytest.raises(ValueError):
        trotter_plan(model, 0)


def test_slice_factors_are_at_most_one_at_any_beta_over_n():
    rng = np.random.default_rng(43)
    real = rng.normal(size=(4, 4))
    models = [heisenberg_chain(3, 1.0), xxz_chain(4, 1.0, [1.0, -0.7, 0.3], delta=0.5, field=0.3),
              SpinChainModel(3, (real + real.T, -3 * (real + real.T)), 1.0)]
    for model in models:
        for beta in (0.2, 1.0, 5000.0):
            for n in (1, 20, 100):
                plan = trotter_plan(SpinChainModel(model.n_sites, model.terms, beta), n)
                for f in plan.slice_factors:
                    assert np.isfinite(f).all()
                    assert np.abs(f).max() <= 1 + 1e-15
                    # the largest eigenvalue is exp(0)
                    assert abs(np.linalg.eigvalsh(f)[-1] - 1) <= 1e-14


@pytest.mark.parametrize("n", [20, 100])
def test_st_scores_where_beta_over_n_overflowed_unshifted_factors(n):
    # beta/n * |h| = 750 at n = 20 passes exp's range near 709; warnings are errors
    model = heisenberg_chain(3, 5000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = st_reduced(trotter_plan(model, n), (0, 1))
    reference = linalg.partial_trace(exact_gibbs(model), [2, 2, 2], (0, 1))
    metrics.scores(got, reference)


def test_weights_on_a_chain_without_reflection_symmetry():
    # XXZ plus field with unequal couplings: W is not symmetric, so a wrong
    # bond order or a transposed W shows
    plan = trotter_plan(xxz_chain(4, 1.5, [1.0, 0.6, 0.3], delta=0.5, field=0.3), 10)
    w = build_weights(plan).matrix
    assert np.abs(w - w.T).max() > 1e-3
    np.testing.assert_allclose(w, embedded_product(plan), atol=1e-12)
    np.testing.assert_allclose(st_density(plan), power_oracle(plan), atol=1e-10)


def test_weights_on_one_and_two_sites():
    one = trotter_plan(SpinChainModel(1, (), 1.0), 5)
    assert one.slice_factors.shape == (0, 4, 4)
    np.testing.assert_array_equal(build_weights(one).matrix, np.eye(2))
    np.testing.assert_array_equal(st_density(one), np.eye(2) / 2)
    two = trotter_plan(xxz_chain(2, 1.0, [0.7], delta=0.5, field=0.3), 5)
    np.testing.assert_allclose(build_weights(two).matrix, two.slice_factors[0].real, atol=1e-15)
    np.testing.assert_allclose(st_density(two), power_oracle(two), atol=1e-12)


def test_weights_identity_at_beta_zero():
    plan = trotter_plan(heisenberg_chain(3, 0.0), 20)
    np.testing.assert_allclose(build_weights(plan).matrix, np.eye(8), atol=1e-14)


def test_weights_carry_negative_entries():
    # the quasi-probability character of the classical mapping
    w = build_weights(trotter_plan(heisenberg_chain(3, 1.0), 20)).matrix
    assert w[0, 0] > 0
    off = w - np.diag(np.diag(w))
    assert off.min() < 0


def test_slice_power_converges_to_exact_exponential():
    # || (W_n)^n - exp(-beta H) ||_F halves when n doubles (first order)
    model = heisenberg_chain(3, 1.0)
    # W^n carries exp(beta sum_k lambda_min(h_k)) from the shifted factors
    shift = sum(np.linalg.eigvalsh(term)[0] for term in model.terms)
    target = np.exp(model.beta * shift) * herm_func(-total_hamiltonian(model), np.exp)
    errors = {}
    for n in (10, 20, 40, 80):
        w = build_weights(trotter_plan(model, n)).matrix
        errors[n] = np.linalg.norm(np.linalg.matrix_power(w, n) - target)
    for n in (10, 20, 40):
        assert 1.8 < errors[n] / errors[2 * n] < 2.2


@pytest.mark.parametrize("sites", [3, 8])
@pytest.mark.parametrize("build", [
    lambda sites, beta: heisenberg_chain(sites, beta),
    lambda sites, beta: xxz_chain(sites, beta, delta=0.5, field=0.3),
], ids=["heisenberg", "xxz-field"])
def test_st_reduced_is_its_public_stages_bit_for_bit(build, sites):
    # the stages a caller can run one by one: a plan, the slice weights, the
    # chain contraction of n copies, the normalization and the partial trace.
    # st_density scales p by 1 / tr in real arithmetic, which must give the
    # bits of the complex division.
    for n in (20, 100):
        plan = trotter_plan(build(sites, 1.5), n)
        p = cbp.chain_end_marginal([build_weights(plan).matrix] * n)
        rho = p.astype(np.complex128) / np.trace(p)
        np.testing.assert_array_equal(st_density(plan), rho)
        staged = linalg.partial_trace(rho, [2] * sites, (0, 1))
        np.testing.assert_array_equal(staged, st_reduced(plan, (0, 1)))


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees during ``call()``, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [
    lambda sites, beta: heisenberg_chain(sites, beta),
    lambda sites, beta: xxz_chain(sites, beta, delta=0.5, field=0.3),
], ids=["heisenberg", "xxz-field"])
def test_st_density_peaks_at_three_full_size_arrays(build):
    # in units of one 2^N x 2^N float64 array: W dies with the contraction,
    # which normalizes its sector buffer before the one scatter, so the peak is
    # the marginal and its complex copy (3.003).  No dense H exists: the exact
    # state (one unit) is allocated before the eigensolves, beside H's sector
    # blocks and their eigenvectors (C(16, 8) entries each, about 0.2 units) and
    # the spectral products of the widest sector, so it peaks at 1.694.  The
    # sector index and the bond tables are built once per width and held, so
    # the warm-up call builds them and the traced call allocates none.
    sites = 8
    unit = 8 * 4**sites
    model = build(sites, 1.0)
    for n in (20, 100):
        plan = trotter_plan(model, n)
        assert traced_peak(lambda: st_density(plan)) <= 3.01 * unit
    assert traced_peak(lambda: exact_gibbs(model)) <= 1.74 * unit


@pytest.mark.parametrize("build", [
    lambda sites: heisenberg_chain(sites, 1.0),
    lambda sites: xxz_chain(sites, 2.0, delta=0.5, field=0.3),
], ids=["heisenberg", "xxz-field"])
def test_weights_and_hamiltonian_split_into_the_sz_sectors(build, monkeypatch):
    # every bond factor keeps exact zeros between sectors, so by_blocks hands
    # the N+1 total-Sz sectors of W and H over at every width.  A Fortran-ordered
    # copy of W gives the same blocks, and the same bits of W^n: the result
    # is C-ordered whatever the input's layout.
    monkeypatch.setattr(linalg, "BLOCK_MIN_DIM", 1)
    for sites in range(2, 9):
        model = build(sites)
        sectors = sector_shapes(sites)
        assert sum(k for k, _, _ in sectors) == sites + 1
        w = build_weights(trotter_plan(model, 20)).matrix
        fortran = np.asfortranarray(w)
        for matrix in (total_hamiltonian(model), w, fortran):
            assert handed_over(matrix) == sectors
        np.testing.assert_array_equal(cbp.chain_end_marginal([fortran] * 20),
                                      cbp.chain_end_marginal([w] * 20))


def handed_over(matrix):
    """Shapes of the stacks linalg.by_blocks hands over for ``matrix``, which
    must come back unchanged: the stacks hold every nonzero entry."""
    seen = []

    def identity(stacks):
        seen.extend(s.shape for s in stacks)
        return stacks

    np.testing.assert_array_equal(linalg.by_blocks(matrix, identity), matrix)
    return seen


def test_st_density_reads_blocks_off_wide_weights_only(monkeypatch):
    # W of 256 states is split into sectors; that of 8 is taken whole.  exact_gibbs
    # fills H's blocks from the bond terms and hands by_blocks no matrix
    matrices, by_blocks = [], linalg.by_blocks

    def recording(a, fn):
        matrices.append(np.array(a))
        return by_blocks(a, fn)

    monkeypatch.setattr(linalg, "by_blocks", recording)
    for sites in (8, 3):
        st_density(trotter_plan(heisenberg_chain(sites, 1.0), 20))
        exact_gibbs(heisenberg_chain(sites, 1.0))
    monkeypatch.undo()
    sectors = [(2, 1, 1), (2, 8, 8), (2, 28, 28), (2, 56, 56), (1, 70, 70)]
    assert [handed_over(a) for a in matrices] == [sectors, [(1, 8, 8)]]


def test_a_transverse_field_leaves_one_block(monkeypatch):
    monkeypatch.setattr(linalg, "BLOCK_MIN_DIM", 1)
    transverse = 0.3 * np.kron(SIGMA_X, np.eye(2))
    model = SpinChainModel(4, tuple(xxz_term(0.5) + transverse for _ in range(3)), 1.0)
    for matrix in (total_hamiltonian(model), build_weights(trotter_plan(model, 20)).matrix):
        assert handed_over(matrix) == [(1, 16, 16)]


def test_st_density_beta_zero():
    rho = st_density(trotter_plan(heisenberg_chain(3, 0.0), 10))
    np.testing.assert_allclose(rho, np.eye(8) / 8, atol=1e-14)


def test_st_density_equals_matrix_power():
    for beta in (0.5, 1.0, 2.0):
        for n in (1, 10, 20):
            plan = trotter_plan(heisenberg_chain(3, beta), n)
            np.testing.assert_allclose(st_density(plan), power_oracle(plan), atol=1e-10)


def test_st_density_trace_and_reality():
    for beta in (0.5, 1.0, 2.0):
        for n in (5, 25):
            rho = st_density(trotter_plan(heisenberg_chain(3, beta), n))
            assert abs(np.trace(rho) - 1) < 1e-12
            assert np.abs(rho.imag).max() < 1e-14
            # first-order product: non-Hermitian only at the Trotter order
            assert np.abs(rho - rho.conj().T).max() < beta**2 / n


@pytest.mark.parametrize("n", [20, 100])
@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_st_on_complex_chains(beta, n, monkeypatch):
    # site rotations u_i turn a real chain complex.  W of the turned chain is
    # U W U^dag with U = u_0 x ... x u_{N-1}, so its st state is U rho_st U^dag.
    # Rotations about z alone keep total Sz, and W is powered in complex128 by
    # sectors; a rotation about y as well leaves W one block.
    powered, power = [], cbp._power

    def recording(stacks, count):
        powered.append([(s.shape, s.dtype.name) for s in stacks])
        return power(stacks, count)

    def chain(sites):
        couplings = np.random.default_rng(1).uniform(0.9, 1.1, sites - 1)
        return xxz_chain(sites, beta, couplings, delta=0.5, field=0.3)

    monkeypatch.setattr(cbp, "_power", recording)
    for sites, theta, shapes in [
        (8, 0.0, [(2, 1, 1), (2, 8, 8), (2, 28, 28), (2, 56, 56), (1, 70, 70)]),
        (3, 0.4, [(1, 8, 8)]),
        (8, 0.4, [(1, 256, 256)]),
    ]:
        model = chain(sites)
        turned, u = complex_rotated(model, theta)
        assert turned.terms.dtype == np.complex128
        rotation = functools.reduce(np.kron, u)
        expected = rotation @ st_density(trotter_plan(model, n)) @ rotation.conj().T
        plan = trotter_plan(turned, n)
        powered.clear()
        got = st_density(plan)
        assert powered == [[(shape, "complex128") for shape in shapes]]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, power_oracle(plan), rtol=0, atol=1e-12)
    # two sites: W^n is the exponential of the one bond term, so st is exact
    turned, _ = complex_rotated(chain(2))
    np.testing.assert_allclose(st_density(trotter_plan(turned, n)), exact_gibbs(turned),
                               rtol=0, atol=1e-13)


def test_first_order_error_scaling():
    model_exact = exact_gibbs(heisenberg_chain(3, 1.0))
    errors = {}
    for n in (10, 20, 40, 80):
        rho = st_density(trotter_plan(heisenberg_chain(3, 1.0), n))
        errors[n] = np.linalg.norm(rho - model_exact)
    for n in (10, 20, 40):
        assert 1.8 < errors[n] / errors[2 * n] < 2.2


def test_st_reduced_beta_zero():
    r = st_reduced(trotter_plan(heisenberg_chain(3, 0.0), 10), [0, 1])
    np.testing.assert_allclose(r, np.eye(4) / 4, atol=1e-14)


def test_st_reduced_accuracy_at_hundred_slices():
    r = st_reduced(trotter_plan(heisenberg_chain(3, 1.0), 100), [0, 1])
    assert metrics.trace_distance(r, exact_rho12(1.0)) < 1e-3


def test_more_slices_are_more_accurate():
    ref = exact_rho12(1.0)
    f20 = metrics.fidelity(st_reduced(trotter_plan(heisenberg_chain(3, 1.0), 20), [0, 1]), ref)
    f100 = metrics.fidelity(st_reduced(trotter_plan(heisenberg_chain(3, 1.0), 100), [0, 1]), ref)
    assert f20 < f100
    assert f20 > 0.99 and f100 > 0.99


# --- operation counts ---------------------------------------------------------


def test_opcount_closed_forms():
    assert st_opcount_middle(3) == 136
    assert st_opcount_ends(3) == 144
    assert st_opcount(20, 3) == 2584


def test_opcount_monotone_in_both_arguments():
    values = [[st_opcount(n, m) for m in range(1, 8)] for n in range(3, 40)]
    for row in values:
        assert all(b > a for a, b in zip(row, row[1:]))
    for col in zip(*values):
        assert all(b > a for a, b in zip(col, col[1:]))


def test_opcount_growth_ratio_in_spin_exponent():
    for m in range(3, 10):
        ratio = st_opcount(20, m + 1) / st_opcount(20, m)
        assert 3.5 < ratio < 4.5


def test_opcount_preconditions():
    with pytest.raises(ValueError):
        st_opcount(2, 3)
    with pytest.raises(ValueError):
        st_opcount(10, 0)
    with pytest.raises(ValueError):
        st_opcount_middle(0)
