"""Model construction, Hamiltonian assembly, and the exact Gibbs reference."""

import math
import re

import numpy as np
import pytest

from conftest import (
    complex_rotated, dense_exact_gibbs, embed_term, herm_func, rotated, sector_shapes, tfim_pairs,
    total_hamiltonian,
)
from spinbp import cbp, linalg, metrics, spinchain, trotter
from spinbp.qbp import qbp_run
from spinbp.spinchain import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SpinChainModel,
    exact_gibbs,
    heisenberg_chain,
    heisenberg_term,
    xxz_chain,
    xxz_term,
)

I2 = np.eye(2, dtype=complex)


def test_heisenberg_term_structure():
    h = heisenberg_term()
    np.testing.assert_allclose(np.diag(h), [1, -1, -1, 1], atol=1e-15)
    assert h[1, 2] == pytest.approx(2.0)
    assert h[2, 1] == pytest.approx(2.0)
    np.testing.assert_allclose(h, h.conj().T, atol=1e-15)
    # off-diagonal mass sits only on the flip-flop entries
    mask = np.ones((4, 4), bool)
    mask[np.diag_indices(4)] = False
    mask[1, 2] = mask[2, 1] = False
    assert np.abs(h[mask]).max() == 0.0


def test_heisenberg_term_spectrum():
    # singlet -3, triplet +1 (derived via the charpoly oracle in test_linalg)
    np.testing.assert_allclose(
        linalg.herm_eig(heisenberg_term()).eigenvalues, [-3, 1, 1, 1], atol=1e-12
    )


def test_embed_first_bond_is_term_kron_identity():
    h = heisenberg_term()
    np.testing.assert_allclose(embed_term(h, (0, 1), 3), np.kron(h, I2), atol=1e-15)


def test_embed_second_bond_is_identity_kron_term():
    h = heisenberg_term()
    np.testing.assert_allclose(embed_term(h, (1, 2), 3), np.kron(I2, h), atol=1e-15)


def test_embed_identity_two_sites():
    np.testing.assert_allclose(embed_term(np.eye(4), (0, 1), 2), np.eye(4), atol=1e-15)


def test_embed_rejects_bad_pairs():
    h = heisenberg_term()
    for pair in [(2, 3), (-1, 0), (0, 2), (1, 0)]:
        with pytest.raises(ValueError):
            embed_term(h, pair, 3)


def test_total_hamiltonian_three_sites():
    model = heisenberg_chain(3, 1.0)
    h = heisenberg_term()
    h12 = np.kron(h, I2)
    h23 = np.kron(I2, h)
    ham = total_hamiltonian(model)
    np.testing.assert_allclose(ham, h12 + h23, atol=1e-14)
    assert abs(np.trace(ham)) < 1e-12
    # the bond terms genuinely fail to commute
    comm = h12 @ h23 - h23 @ h12
    assert np.linalg.norm(comm) > 1.0


def test_total_hamiltonian_two_sites_is_the_term():
    np.testing.assert_allclose(
        total_hamiltonian(heisenberg_chain(2, 0.7)), heisenberg_term(), atol=1e-15
    )


def test_total_hamiltonian_is_the_sum_of_embedded_terms_bit_for_bit():
    # embed_term is the kron oracle; a complex term checks both parts
    rng = np.random.default_rng(61)
    complex_term = heisenberg_term() + 0.3 * np.kron(SIGMA_X, SIGMA_Y)
    for sites in range(1, 9):
        couplings = rng.uniform(0.5, 1.5, sites - 1)
        for model in (xxz_chain(sites, 1.0, couplings, delta=0.5, field=0.3),
                      SpinChainModel(sites, (complex_term,) * (sites - 1), 1.0)):
            expected = np.zeros((2**sites, 2**sites), dtype=complex)
            for k, term in enumerate(model.terms):
                expected += embed_term(term, (k, k + 1), sites)
            np.testing.assert_array_equal(total_hamiltonian(model), expected)


def test_exact_gibbs_infinite_temperature():
    for sites in (2, 3, 4):
        rho = exact_gibbs(heisenberg_chain(sites, 0.0))
        np.testing.assert_allclose(rho, np.eye(2**sites) / 2**sites, atol=1e-14)


def test_exact_gibbs_low_temperature_projects_on_singlet():
    # analytic ground state of the two-site exchange term: (|01> - |10>)/sqrt(2)
    singlet = np.zeros(4, dtype=complex)
    singlet[1], singlet[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    projector = np.outer(singlet, singlet.conj())
    rho = exact_gibbs(heisenberg_chain(2, 50.0))
    overlap = float(np.real(singlet.conj() @ rho @ singlet))
    assert overlap > 1 - 1e-6
    np.testing.assert_allclose(rho, projector, atol=1e-6)


def test_exact_gibbs_eigenvalues_are_softmax():
    model = heisenberg_chain(3, 1.3)
    spectrum = linalg.herm_eig(total_hamiltonian(model)).eigenvalues
    weights = np.exp(-model.beta * (spectrum - spectrum.min()))
    weights /= weights.sum()
    got = np.sort(linalg.herm_eig(exact_gibbs(model)).eigenvalues)
    np.testing.assert_allclose(got, np.sort(weights), atol=1e-10)


def test_exact_gibbs_is_a_density_matrix():
    for beta in (0.0, 0.5, 2.0, 10.0):
        rho = exact_gibbs(heisenberg_chain(3, beta))
        assert abs(np.trace(rho).real - 1) < 1e-12
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
        assert linalg.herm_eig(rho).eigenvalues.min() >= -1e-12


def dense_gibbs(model):
    """exp(-beta H) / Z from one eigendecomposition of the full Hamiltonian."""
    rho = herm_func(total_hamiltonian(model), lambda w: np.exp(-model.beta * (w - w.min())))
    return rho / np.trace(rho).real


def left_field_chain(sites, beta):
    """XXZ bonds plus 0.4 sz on the left site of each: not swap symmetric."""
    left_field = 0.4 * np.kron(SIGMA_Z, I2)
    return SpinChainModel(sites, tuple(xxz_term(0.5) + left_field
                                       for _ in range(sites - 1)), beta)


SECTOR_MODELS = {
    "heisenberg": lambda sites, beta: heisenberg_chain(sites, beta),
    "xxz-field": lambda sites, beta: xxz_chain(sites, beta, delta=0.5, field=0.3),
    "left-field": left_field_chain,
}


def shapes(calls):
    return [shape for shape, _ in calls]


@pytest.mark.parametrize("kind", sorted(SECTOR_MODELS))
def test_exact_gibbs_by_sector_matches_the_dense_diagonalization(kind, eig_calls, monkeypatch):
    monkeypatch.setattr(linalg, "BLOCK_MIN_DIM", 1)  # split H at every width
    for sites in range(2, 9):
        for beta in (0.5, 2.0):
            model = SECTOR_MODELS[kind](sites, beta)
            eig_calls.clear()
            got = exact_gibbs(model)
            # stacks of equal-size sectors: (sectors, states, states)
            assert max(s[-1] for s in shapes(eig_calls)) <= math.comb(sites, sites // 2)
            assert sum(s[0] * s[-1] for s in shapes(eig_calls)) == 2**sites
            np.testing.assert_allclose(got, dense_gibbs(model), rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind", sorted(SECTOR_MODELS))
def test_exact_gibbs_below_the_block_width_is_the_dense_diagonalization(kind, eig_calls):
    # H narrower than linalg.BLOCK_MIN_DIM is one block, diagonalized whole
    for sites in range(1, 7):
        for beta in (0.0, 0.5, 2.0):
            model = SECTOR_MODELS[kind](sites, beta)
            eig_calls.clear()
            got = exact_gibbs(model)
            assert shapes(eig_calls) == [(1, 2**sites, 2**sites)]
            np.testing.assert_array_equal(got, dense_gibbs(model))


def test_exact_gibbs_keeps_one_sector_when_magnetization_is_not_conserved(eig_calls):
    transverse = 0.3 * np.kron(SIGMA_X, I2)
    model = SpinChainModel(4, tuple(heisenberg_term() + transverse for _ in range(3)), 1.0)
    expected = dense_gibbs(model)
    eig_calls.clear()
    got = exact_gibbs(model)
    assert shapes(eig_calls) == [(1, 16, 16)]
    np.testing.assert_array_equal(got, expected)


def ising_chain(couplings, g, beta):
    """The transverse-field Ising chain of conftest.tfim_pairs: bonds
    J_k sx.sx + (g/2)(sz.1 + 1.sz), which keep no total-Sz sector."""
    zeeman = g / 2 * (np.kron(SIGMA_Z, I2) + np.kron(I2, SIGMA_Z))
    terms = tuple(j * np.kron(SIGMA_X, SIGMA_X) + zeeman for j in couplings)
    return SpinChainModel(len(couplings) + 1, terms, beta)


@pytest.mark.parametrize("low, g", [(0.9, 0.7), (-1.1, -1.3)], ids=["ferro", "mixed-sign"])
def test_exact_gibbs_matches_the_ising_oracle_as_one_block(low, g, eig_calls):
    # sx.sx mixes up-spin counts, so exact_gibbs's term rule keeps H whole even
    # from BLOCK_MIN_DIM states on: at N = 8 and 10 this scores the one-block
    # path against the Majorana solution
    assert 2**8 >= linalg.BLOCK_MIN_DIM
    for sites in (3, 4, 6, 8, 10):
        couplings = np.random.default_rng(sites).uniform(low, 1.1, sites - 1)
        for beta in (0.5, 2.0) if sites < 10 else (2.0,):  # exact at N = 10 takes 0.35 s
            eig_calls.clear()
            rho = exact_gibbs(ising_chain(couplings, g, beta))
            assert shapes(eig_calls) == [(1, 2**sites, 2**sites)]
            for a, pair in enumerate(tfim_pairs(couplings, g, beta)):
                np.testing.assert_allclose(linalg.partial_trace(rho, [2] * sites, (a, a + 1)),
                                           pair, rtol=0, atol=1e-12)


def random_couplings(sites):
    return np.random.default_rng(sites).uniform(0.9, 1.1, sites - 1)


def xx_chain(sites, beta):
    return xxz_chain(sites, beta, random_couplings(sites), delta=0.0, field=0.3)


# builder and whether its bond terms keep total Sz
ORACLE_MODELS = {
    "heisenberg": (lambda sites, beta: heisenberg_chain(sites, beta, random_couplings(sites)), True),
    "xxz-field": (SECTOR_MODELS["xxz-field"], True),
    # turned about z, the XX chain gains a complex Dzyaloshinskii-Moriya exchange
    "xx-dm": (lambda sites, beta: complex_rotated(xx_chain(sites, beta), 0.0)[0], True),
    "ising": (lambda sites, beta: ising_chain(random_couplings(sites), 0.7, beta), False),
    "xx-turned": (lambda sites, beta: rotated(xx_chain(sites, beta), 0.4)[0], False),
}


@pytest.mark.parametrize("kind", sorted(ORACLE_MODELS))
def test_exact_gibbs_is_the_dense_oracle_bit_for_bit(kind, eig_calls):
    # H's blocks filled from the bond terms give the bits of the route through
    # the dense H: the same adds per entry in bond order, the same eigensolves,
    # and the diagonal summed in basis order as np.trace sums it.  A chain that
    # keeps total Sz makes one call per sector size from BLOCK_MIN_DIM states
    # on; a narrower one, and one whose terms mix the sectors, one call on H whole
    build, keeps_sz = ORACLE_MODELS[kind]
    for sites in range(1, 11):
        for beta in (0.5, 2.0, 300.0):
            model = build(sites, beta)
            assert np.iscomplexobj(model.terms) == (kind == "xx-dm" and sites > 1)
            expected = dense_exact_gibbs(model)
            eig_calls.clear()
            got = exact_gibbs(model)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
            split = keeps_sz and 2**sites >= linalg.BLOCK_MIN_DIM
            assert shapes(eig_calls) == (sector_shapes(sites) if split
                                         else [(1, 2**sites, 2**sites)])


@pytest.mark.parametrize("kind", ["heisenberg", "xxz-field"])
def test_a_zero_coupling_chain_is_diagonalized_in_its_sz_sectors(kind, eig_calls):
    # a cut bond splits each sector into finer blocks, but H is still handed
    # over as its N+1 total-Sz sectors
    field = 0.3 if kind == "xxz-field" else 0.0
    for sites in (7, 8):
        for cut in (0, sites // 2):
            couplings = [1.0] * (sites - 1)
            couplings[cut] = 0.0
            model = xxz_chain(sites, 2.0, couplings, 0.5 if field else 1.0, field)
            expected = dense_gibbs(model)
            eig_calls.clear()
            got = exact_gibbs(model)
            sectors = sector_shapes(sites)
            assert shapes(eig_calls) == sectors
            assert sum(k for k, _, _ in sectors) == sites + 1
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


def test_real_models_keep_float64_through_the_engines():
    for model in (heisenberg_chain(4, 1.0), xxz_chain(4, 1.0, [1.0, -0.9, 1.1], 0.5, 0.3),
                  SpinChainModel(3, (np.kron(SIGMA_X, SIGMA_X).astype(complex),) * 2, 1.0)):
        assert model.terms.dtype == np.float64
        assert total_hamiltonian(model).dtype == np.float64
        assert exact_gibbs(model).dtype == np.float64
        assert trotter.trotter_plan(model, 5).slice_factors.dtype == np.float64
    assert heisenberg_term().dtype == xxz_term(0.5).dtype == np.float64


@pytest.mark.parametrize("kind", ["heisenberg", "xxz-field"])
def test_exact_gibbs_diagonalizes_real_models_in_real_arithmetic(kind, eig_calls):
    # a stray complex constant would bring back the complex solver
    exact_gibbs(SECTOR_MODELS[kind](8, 1.0))
    assert len(eig_calls) > 1  # split into sectors
    assert {dtype for _, dtype in eig_calls} == {np.dtype(np.float64)}


def dm_chain(sites, beta):
    """XXZ(0.5) plus a Dzyaloshinskii-Moriya term along z: Sz-conserving, complex."""
    dm = 0.4 * (np.kron(SIGMA_X, SIGMA_Y) - np.kron(SIGMA_Y, SIGMA_X))
    return SpinChainModel(sites, (xxz_term(0.5) + dm,) * (sites - 1), beta)


def test_a_complex_chain_takes_the_same_path_in_complex128(eig_calls):
    model = dm_chain(8, 1.0)
    assert model.terms.dtype == np.complex128 and model.terms.imag.any(axis=(1, 2)).all()
    expected = dense_gibbs(model)
    eig_calls.clear()
    got = exact_gibbs(model)
    assert got.dtype == np.complex128
    # the N+1 total-Sz sectors, stacked by size
    assert shapes(eig_calls) == [(2, 1, 1), (2, 8, 8), (2, 28, 28), (2, 56, 56), (1, 70, 70)]
    assert {dtype for _, dtype in eig_calls} == {np.dtype(np.complex128)}
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_a_complex_chain_runs_qbp_and_st(beta):
    model = dm_chain(8, beta)
    result = qbp_run(model)
    for q in list(result.beliefs_single.values()) + list(result.beliefs_pair.values()):
        assert abs(np.trace(q) - 1) < 1e-12
        np.testing.assert_allclose(q, q.conj().T, atol=1e-12)
        assert linalg.herm_eig(q).eigenvalues.min() >= -1e-12
    # st's pair state scores under the trace-distance ceiling 0.6 (beta/n)^2 that
    # the benchmark sets for real chains
    exact = linalg.partial_trace(exact_gibbs(model), [2] * 8, (0, 1))
    for n in (20, 100):
        st = trotter.st_reduced(trotter.trotter_plan(model, n), (0, 1))
        assert st.dtype == np.complex128
        _, distance = metrics.scores(st, exact)
        assert distance < 0.6 * (beta / n) ** 2


@pytest.mark.parametrize("build", [
    lambda: heisenberg_chain(3, 1.0),
    lambda: trotter.trotter_plan(heisenberg_chain(3, 1.0), 4),
    lambda: trotter.build_weights(trotter.trotter_plan(heisenberg_chain(3, 1.0), 4)),
    lambda: qbp_run(heisenberg_chain(3, 1.0)),
    lambda: cbp.FactorChain([2, 2], [(0, 1, np.ones((2, 2)))]),
], ids=["SpinChainModel", "TrotterPlan", "TransferWeights", "QbpResult", "FactorChain"])
def test_dataclasses_that_hold_arrays_compare_and_hash_by_identity(build):
    # a field-wise == would ask numpy for the truth value of an array and raise,
    # and a field-wise hash would raise TypeError on the frozen ones
    a, b = build(), build()
    assert (a == b) is False
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_model_validation():
    with pytest.raises(ValueError):
        SpinChainModel(3, (heisenberg_term(),), 1.0)  # wrong term count
    with pytest.raises(ValueError):
        heisenberg_chain(3, -0.5)
    with pytest.raises(linalg.NotHermitianError):
        SpinChainModel(2, (np.triu(np.ones((4, 4))),), 1.0)
    with pytest.raises(ValueError, match=r"bond term 0 must be 4x4, got \(2, 2\)"):
        SpinChainModel(2, (SIGMA_X,), 1.0)  # Hermitian, but one site wide
    with pytest.raises(ValueError, match="expected 2 couplings for 3 sites, got 1"):
        xxz_chain(3, 1.0, [1.0])


@pytest.mark.parametrize("term", [
    heisenberg_term(),  # real
    heisenberg_term() + 0.3 * np.kron(SIGMA_X, SIGMA_Y),  # complex, with an imaginary part
])
def test_model_terms_are_a_read_only_copy_of_the_input(term):
    # the caller's arrays, given one by one or as one stack, may change after the model is built
    expected = np.stack([term, 2 * term])
    for given in ((term.copy(), 2 * term), expected.copy()):
        model = SpinChainModel(3, given, 1.0)
        assert model.terms.shape == (2, 4, 4)
        assert model.terms.dtype == term.dtype
        assert not any(np.shares_memory(model.terms, t) for t in given)
        for t in given:
            t[0, 0] = 99
        np.testing.assert_array_equal(model.terms, expected)
        assert not model.terms.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            model.terms[0, 0, 0] = 99


@pytest.mark.parametrize("terms", [
    (heisenberg_term(), SIGMA_X),  # unequal shapes, which do not stack
    (SIGMA_X, SIGMA_X),  # equal shapes, but not 4x4
    (heisenberg_term(), np.ones((4, 3))),  # not square
])
def test_a_term_that_is_not_4x4_is_named(terms):
    at = next(k for k, t in enumerate(terms) if t.shape != (4, 4))
    shape = re.escape(str(terms[at].shape))
    with pytest.raises(ValueError, match=f"bond term {at} must be 4x4, got {shape}"):
        SpinChainModel(3, terms, 1.0)


@pytest.mark.parametrize("beta", [float("nan"), float("inf")])
def test_model_rejects_non_finite_beta(beta):
    with pytest.raises(ValueError, match="finite"):
        heisenberg_chain(3, beta)
    with pytest.raises(ValueError, match="finite"):
        spinchain.model_from_keys({"sites": "3", "beta": str(beta)})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_model_rejects_non_finite_couplings_and_terms(value):
    # the coupling is checked before inf * 0 could warn, and a NaN term before
    # the Hermiticity check, which NaN would pass
    with pytest.raises(ValueError, match="bond 1: coupling must be finite"):
        heisenberg_chain(3, 1.0, [1.0, value])
    term = heisenberg_term()
    term[0, 0] = value
    with pytest.raises(ValueError, match="bond term 1 has non-finite entries"):
        SpinChainModel(3, (heisenberg_term(), term), 1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["delta", "field"])
def test_xxz_chain_rejects_non_finite_delta_and_field(name, value):
    # checked before inf * 0 in the exchange or Zeeman term could warn
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        xxz_chain(3, 1.0, **{name: value})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_coupling_key_is_named(value):
    with pytest.raises(ValueError, match="field 'J_2': coupling must be finite"):
        spinchain.model_from_keys({"sites": "3", "J_2": value})


def test_per_bond_couplings_scale_terms():
    model = heisenberg_chain(3, 1.0, couplings=[2.0, 0.5])
    np.testing.assert_allclose(model.terms[0], 2.0 * heisenberg_term(), atol=1e-15)
    np.testing.assert_allclose(model.terms[1], 0.5 * heisenberg_term(), atol=1e-15)


def test_xxz_chain_bond_terms():
    model = xxz_chain(3, 1.0, couplings=[2.0, 0.5], delta=0.5, field=0.3)
    exchange = np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y) + 0.5 * np.kron(SIGMA_Z, SIGMA_Z)
    zeeman = 0.15 * (np.kron(SIGMA_Z, I2) + np.kron(I2, SIGMA_Z))
    np.testing.assert_allclose(model.terms[0], 2.0 * exchange + zeeman, atol=1e-15)
    np.testing.assert_allclose(model.terms[1], 0.5 * exchange + zeeman, atol=1e-15)


def test_heisenberg_chain_is_the_isotropic_zero_field_xxz_chain():
    # bit-identical to J_k times the exchange term, signed zeros included
    couplings = [1.0, -0.9, 1.1]
    model = heisenberg_chain(4, 1.0, couplings)
    for term, j in zip(model.terms, couplings):
        assert term.tobytes() == (j * heisenberg_term()).tobytes()


def test_parse_key_values():
    text = "# comment\nmodel = heisenberg\nsites=3\n\nbeta = 1.5  # inline\n"
    assert spinchain.parse_key_values(text) == {
        "model": "heisenberg",
        "sites": "3",
        "beta": "1.5",
    }
    with pytest.raises(ValueError, match="line 1"):
        spinchain.parse_key_values("not a key value pair")
    with pytest.raises(ValueError, match="duplicate"):
        spinchain.parse_key_values("a=1\na=2")
    with pytest.raises(ValueError, match="line 1: empty key in '=1'"):
        spinchain.parse_key_values("=1")


def test_zero_sites_are_rejected_before_the_couplings_are_counted():
    for build in (lambda: heisenberg_chain(0, 1.0), lambda: xxz_chain(-1, 1.0),
                  lambda: SpinChainModel(0, (), 1.0),
                  lambda: spinchain.model_from_keys({"sites": "0"}),
                  lambda: spinchain.model_from_keys({"sites": "0", "J_1": "0.5"})):
        with pytest.raises(ValueError, match="n_sites must be positive, got"):
            build()


def test_a_bond_key_on_one_site_says_there_are_no_bonds():
    with pytest.raises(ValueError, match="field 'J_1': a 1-site chain has no bonds"):
        spinchain.model_from_keys({"sites": "1", "J_1": "0.5"})


@pytest.mark.parametrize("second", ["J_01", "J_+1", "J_0_1", "J_ 1", "J_1_0", "J_\u0661"])
def test_a_bond_named_twice_is_rejected(second):
    # each bond has one spelling, so an alias is rejected alone, and beside
    # J_1 in either order; no key may silently set or override a coupling
    bond = int(second[2:])
    message = f"field '{second}': bond {bond} must be spelled J_{bond}"
    for keys in ({second: "2.0"}, {"J_1": "0.5", second: "2.0"}, {second: "2.0", "J_1": "0.5"}):
        with pytest.raises(ValueError, match=re.escape(message)):
            spinchain.model_from_keys({"sites": "11", **keys})


def test_model_from_keys():
    model = spinchain.model_from_keys(
        {"model": "heisenberg", "sites": "3", "beta": "0.7", "J_2": "0.25"}
    )
    assert model.n_sites == 3
    assert model.beta == pytest.approx(0.7)
    np.testing.assert_allclose(model.terms[1], 0.25 * heisenberg_term(), atol=1e-15)

    with pytest.raises(ValueError, match="sites"):
        spinchain.model_from_keys({"model": "heisenberg"})
    with pytest.raises(ValueError, match="unsupported model"):
        spinchain.model_from_keys({"model": "ising", "sites": "3"})
    with pytest.raises(ValueError, match="out of range"):
        spinchain.model_from_keys({"sites": "3", "J_5": "1.0"})
    with pytest.raises(ValueError, match="not a number"):
        spinchain.model_from_keys({"sites": "3", "beta": "fast"})
    with pytest.raises(ValueError, match="field 'sites': not an integer: 'abc'"):
        spinchain.model_from_keys({"sites": "abc"})


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_xxz_keys_build_the_benchmark_xxz_terms_bit_for_bit(seed):
    # the benchmark's XXZ workload sums complex Pauli products per bond, with
    # couplings drawn as below; model=xxz gives the same bits and dtype
    couplings = [float(j) for j in np.random.default_rng(seed).uniform(0.9, 1.1, 7)]
    keys = {"model": "xxz", "delta": "0.5", "field": "0.3", "sites": "8", "beta": "1"}
    keys.update({f"J_{k}": repr(j) for k, j in enumerate(couplings, 1)})
    model = spinchain.model_from_keys(keys)
    exchange = (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y)
                + 0.5 * np.kron(SIGMA_Z, SIGMA_Z))
    zeeman = 0.15 * (np.kron(SIGMA_Z, I2) + np.kron(I2, SIGMA_Z))
    expected = SpinChainModel(8, tuple(j * exchange + zeeman for j in couplings), 1.0)
    assert model.terms.dtype == expected.terms.dtype == np.float64
    assert model.terms.shape == expected.terms.shape == (7, 4, 4)
    assert model.terms.tobytes() == expected.terms.tobytes()


def test_xxz_keys_default_to_the_heisenberg_chain():
    keys = {"sites": "4", "beta": "0.5", "J_2": "-0.9"}
    xxz = spinchain.model_from_keys({**keys, "model": "xxz"})
    heisenberg = spinchain.model_from_keys(keys)
    assert xxz.terms.shape == heisenberg.terms.shape == (3, 4, 4)
    assert xxz.terms.tobytes() == heisenberg.terms.tobytes()


def test_load_model():
    # a config text reads through the CLI's one path: parse_key_values, then
    # model_from_keys
    text = "model=heisenberg\nsites=4\nbeta=2.0\n"
    model = spinchain.model_from_keys(spinchain.parse_key_values(text))
    assert model.n_sites == 4
    assert model.beta == pytest.approx(2.0)


def test_load_model_rejects_unknown_keys():
    # J2 for J_2 used to load the uniform chain
    with pytest.raises(ValueError, match="unknown key 'J2'"):
        spinchain.model_from_keys(spinchain.parse_key_values("sites=3\nJ2=0.5\n"))
