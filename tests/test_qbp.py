"""Operator belief propagation: exactness, fixed points, determinism.

The two-site update is cross-checked against a raw-numpy oracle that builds
the gauge-fixed log of the traced bond exponential directly.  The Heisenberg
chain gives zero messages after one sweep, so the tests of the damped
iteration use an XXZ chain in a longitudinal field, whose messages are not
multiples of the identity.  The orientation of reversed edges is checked on
a chain whose bond terms are not symmetric under site swap, and the complex
(three-coordinate) iteration on a chain with complex terms that iterates.
"""

import warnings

import numpy as np
import pytest

from conftest import free_fermion_pairs, herm_log
from spinbp import linalg, metrics, qbp
from spinbp.qbp import (
    QbpResult,
    directed_edges,
    qbp_init,
    qbp_opcount,
    qbp_run,
    qbp_update_edge,
)
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
from spinbp.trotter import st_reduced, trotter_plan

I2 = np.eye(2, dtype=complex)
SWAP = np.eye(4)[[0, 2, 1, 3]]  # exchanges the two sites of a 4x4 operator


def two_site_message_oracle(beta, term=None, into_i=None, into_j=None):
    """Gauge-fixed log of tr_2 exp(-beta E + into_i x 1 + 1 x into_j), minus
    into_i, built with raw numpy calls.  E defaults to the Heisenberg term and
    the incoming messages to zero."""
    term = heisenberg_term() if term is None else term
    into_i = np.zeros((2, 2)) if into_i is None else into_i
    into_j = np.zeros((2, 2)) if into_j is None else into_j
    w, v = np.linalg.eigh(-beta * term + np.kron(into_i, I2) + np.kron(I2, into_j))
    expo = (v * np.exp(w)) @ v.conj().T
    t = expo.reshape(2, 2, 2, 2)
    traced = np.einsum('akbk->ab', t)
    lw, lv = np.linalg.eigh(traced)
    logm = (lv * np.log(lw)) @ lv.conj().T - into_i
    return logm - (np.trace(logm) / 2) * I2


def oracle_edge_inputs(model, messages, edge):
    """Bond term of edge (j, i) with the receiving site i first, and the sums of
    the messages into i and into j from their other neighbours."""
    j, i = edge
    k = min(i, j)
    term = model.terms[k] if i < j else SWAP @ model.terms[k] @ SWAP

    def into(site, excluded):
        incoming = [messages[(n, site)] for n in (site - 1, site + 1)
                    if 0 <= n < model.n_sites and n != excluded]
        return sum(incoming, np.zeros((2, 2)))

    return term, into(i, j), into(j, i)


def oracle_gibbs(expo):
    w, v = np.linalg.eigh(expo)
    q = (v * np.exp(w)) @ v.conj().T
    return q / np.trace(q).real


def swap_asymmetric_chain(beta):
    """4-site chain whose bond terms change under site swap: a field on the
    left site of each bond only.  Every chain the library builds is swap
    symmetric, so a wrongly oriented reversed-edge term would pass on it."""
    left_field = 0.4 * np.kron(SIGMA_Z, I2)
    return SpinChainModel(4, tuple(c * xxz_term(0.5) + left_field for c in (1.0, 0.6, 0.3)), beta)


def iterating_complex_chain(sites=5, beta=1.0):
    """XXZ(0.5) with a Dzyaloshinskii-Moriya term and a transverse field on the
    left site of each bond: complex terms whose messages iterate and need all
    three Pauli coordinates."""
    dm = 0.4 * (np.kron(SIGMA_X, SIGMA_Y) - np.kron(SIGMA_Y, SIGMA_X))
    term = xxz_term(0.5) + dm + 0.3 * np.kron(SIGMA_X, I2)
    return SpinChainModel(sites, (term,) * (sites - 1), beta)


def random_traceless_hermitian(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = (a + a.conj().T) / 2
    return a - (np.trace(a) / 2) * I2


# --- initialization ----------------------------------------------------------


@pytest.mark.parametrize("sites,count", [(2, 2), (3, 4), (10, 18)])
def test_init_edge_count(sites, count):
    messages = qbp_init(heisenberg_chain(sites, 1.0))
    assert len(messages) == count
    for m in messages.values():
        np.testing.assert_array_equal(m, np.zeros((2, 2)))


def test_directed_edges_cover_both_directions():
    edges = directed_edges(heisenberg_chain(3, 1.0))
    assert set(edges) == {(0, 1), (1, 0), (1, 2), (2, 1)}


# --- update rule -------------------------------------------------------------


def test_two_site_update_matches_oracle():
    for beta in (0.5, 1.0, 2.0):
        model = heisenberg_chain(2, beta)
        got = qbp_update_edge(model, qbp_init(model), (1, 0))
        np.testing.assert_allclose(got, two_site_message_oracle(beta), atol=1e-12)


def test_update_at_beta_zero_is_a_fixed_point():
    model = heisenberg_chain(3, 0.0)
    messages = qbp_init(model)
    for edge in directed_edges(model):
        np.testing.assert_allclose(
            qbp_update_edge(model, messages, edge), np.zeros((2, 2)), atol=1e-14
        )


def test_zero_messages_are_the_heisenberg_fixed_point():
    # spin-rotation symmetry forces messages proportional to the identity,
    # which the trace gauge maps to zero
    model = heisenberg_chain(3, 1.0)
    messages = qbp_init(model)
    for edge in directed_edges(model):
        update = qbp_update_edge(model, messages, edge)
        assert np.linalg.norm(update) < 1e-10


def test_update_rejects_non_edges():
    model = heisenberg_chain(3, 1.0)
    with pytest.raises(ValueError):
        qbp_update_edge(model, qbp_init(model), (0, 2))


def test_update_rejects_non_hermitian_messages():
    model = xxz_chain(3, 1.0, delta=0.5, field=0.3)
    messages = qbp_init(model)
    messages[(0, 1)] = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(linalg.NotHermitianError):
        qbp_update_edge(model, messages, (1, 2))


def test_update_on_swap_asymmetric_chain_matches_oracle_on_every_edge():
    model = swap_asymmetric_chain(1.2)
    rng = np.random.default_rng(4)
    messages = {e: random_traceless_hermitian(rng) for e in directed_edges(model)}
    for edge in directed_edges(model):
        expected = two_site_message_oracle(
            model.beta, *oracle_edge_inputs(model, messages, edge)
        )
        np.testing.assert_allclose(
            qbp_update_edge(model, messages, edge), expected, rtol=0, atol=1e-12
        )


def check_plain_sweeps_against_per_edge_oracle(model, sweeps, monkeypatch):
    """Run ``sweeps`` plain damped sweeps of qbp_run and of the per-edge oracle,
    compare their beliefs and return the oracle's messages."""
    monkeypatch.setattr(qbp, "MEMORY", 0)  # the oracle takes plain damped steps
    d = qbp.DAMPING
    edges = directed_edges(model)
    messages = {e: np.zeros((2, 2)) for e in edges}
    for _ in range(sweeps):
        updates = {
            e: two_site_message_oracle(model.beta, *oracle_edge_inputs(model, messages, e))
            for e in edges
        }
        messages = {e: (1 - d) * messages[e] + d * updates[e] for e in edges}
    monkeypatch.setattr(qbp, "MAX_SWEEPS", sweeps)
    result = qbp_run(model)
    assert result.iterations == sweeps
    assert not result.converged
    for k in range(model.n_sites - 1):
        term, into_k, into_next = oracle_edge_inputs(model, messages, (k + 1, k))
        expected = oracle_gibbs(
            -model.beta * term + np.kron(into_k, I2) + np.kron(I2, into_next)
        )
        np.testing.assert_allclose(result.beliefs_pair[(k, k + 1)], expected, rtol=0, atol=1e-12)
    for i in range(model.n_sites):
        incoming = sum(messages[(n, i)] for n in (i - 1, i + 1) if 0 <= n < model.n_sites)
        np.testing.assert_allclose(
            result.beliefs_single[i], oracle_gibbs(incoming), rtol=0, atol=1e-12
        )
    return messages


def test_sweeps_on_swap_asymmetric_chain_match_per_edge_oracle(monkeypatch):
    check_plain_sweeps_against_per_edge_oracle(swap_asymmetric_chain(1.2), 3, monkeypatch)


def test_qbp_run_takes_its_mixing_step_from_the_module(monkeypatch):
    # qbp.DAMPING is read when a run starts, as MEMORY is
    monkeypatch.setattr(qbp, "DAMPING", 0.8)
    check_plain_sweeps_against_per_edge_oracle(swap_asymmetric_chain(1.2), 3, monkeypatch)


def test_messages_stay_traceless_hermitian():
    model = heisenberg_chain(3, 1.5, couplings=[1.0, 0.3])
    messages = qbp_init(model)
    for edge in directed_edges(model):
        m = qbp_update_edge(model, messages, edge)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
        assert abs(np.trace(m)) < 1e-12


# --- full runs -----------------------------------------------------------------


def test_beta_zero_run():
    result = qbp_run(heisenberg_chain(3, 0.0))
    assert result.converged
    assert result.iterations == 1
    assert result.residual < 1e-14
    for q in result.beliefs_single.values():
        np.testing.assert_allclose(q, I2 / 2, atol=1e-14)
    for q in result.beliefs_pair.values():
        np.testing.assert_allclose(q, np.eye(4) / 4, atol=1e-14)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 5.0])
def test_two_site_pair_belief_is_exact(beta):
    model = heisenberg_chain(2, beta)
    result = qbp_run(model)
    assert result.converged
    rho = exact_gibbs(model)
    np.testing.assert_allclose(result.beliefs_pair[(0, 1)], rho, atol=1e-10)
    np.testing.assert_allclose(
        result.beliefs_single[0], linalg.partial_trace(rho, [2, 2], [0]), atol=1e-10
    )


def test_beliefs_are_density_matrices():
    result = qbp_run(heisenberg_chain(4, 1.7))
    assert result.converged
    for q in list(result.beliefs_single.values()) + list(result.beliefs_pair.values()):
        assert abs(np.trace(q).real - 1) < 1e-12
        np.testing.assert_allclose(q, q.conj().T, atol=1e-10)
        assert linalg.herm_eig(q).eigenvalues.min() >= -1e-10


def test_marginal_consistency_at_fixed_point():
    tol = qbp.TOL
    result = qbp_run(xxz_chain(3, 1.0, delta=0.5, field=0.3))
    assert result.converged
    assert result.iterations > 1
    for (i, j), q in result.beliefs_pair.items():
        np.testing.assert_allclose(
            linalg.partial_trace(q, [2, 2], [0]), result.beliefs_single[i], atol=10 * tol
        )
        np.testing.assert_allclose(
            linalg.partial_trace(q, [2, 2], [1]), result.beliefs_single[j], atol=10 * tol
        )


def test_runs_are_deterministic():
    a = qbp_run(heisenberg_chain(3, 1.3))
    b = qbp_run(heisenberg_chain(3, 1.3))
    assert a.iterations == b.iterations
    assert a.residual == b.residual
    for i in a.beliefs_single:
        np.testing.assert_array_equal(a.beliefs_single[i], b.beliefs_single[i])
    for e in a.beliefs_pair:
        np.testing.assert_array_equal(a.beliefs_pair[e], b.beliefs_pair[e])


def test_runs_are_deterministic_on_the_damped_iteration():
    model = xxz_chain(4, 1.0, [1.0, 0.5, 0.25], delta=0.5, field=0.3)
    a, b = qbp_run(model), qbp_run(model)
    assert a.iterations == b.iterations > 1
    assert a.residual == b.residual
    for i in a.beliefs_single:
        np.testing.assert_array_equal(a.beliefs_single[i], b.beliefs_single[i])
    for e in a.beliefs_pair:
        np.testing.assert_array_equal(a.beliefs_pair[e], b.beliefs_pair[e])


def test_single_site_run():
    result = qbp_run(heisenberg_chain(1, 1.0))
    assert result.iterations == 1
    assert result.converged
    assert result.residual == 0.0
    assert list(result.beliefs_single) == [0]
    np.testing.assert_array_equal(result.beliefs_single[0], I2 / 2)
    assert result.beliefs_pair == {}


def test_asymmetric_couplings_converge_with_damping():
    # unequal couplings on an anisotropic chain; the damped iteration still settles
    result = qbp_run(xxz_chain(4, 1.0, [1.0, 0.5, 0.25], delta=0.5, field=0.3))
    assert result.converged
    assert result.iterations > 1
    assert result.residual < 1e-10


def test_three_site_belief_is_less_accurate_than_trotter():
    model = heisenberg_chain(3, 1.0)
    reference = linalg.partial_trace(exact_gibbs(model), [2, 2, 2], [0, 1])
    q12 = qbp_run(model).beliefs_pair[(0, 1)]
    st12 = st_reduced(trotter_plan(model, 20), [0, 1])
    assert metrics.fidelity(q12, reference) < metrics.fidelity(st12, reference)
    assert metrics.trace_distance(q12, reference) > metrics.trace_distance(st12, reference)


def test_qbp_run_reads_its_tolerance_and_budget_from_the_module(monkeypatch):
    # as for MEMORY and DAMPING, the module constants are qbp_run's only settings
    model = xxz_chain(4, 1.0, [1.0, 0.5, 0.25], delta=0.5, field=0.3)
    monkeypatch.setattr(qbp, "TOL", 1e-13)
    tight = qbp_run(model)
    assert tight.converged
    assert tight.residual < 1e-13
    monkeypatch.setattr(qbp, "MAX_SWEEPS", 3)
    short = qbp_run(model)
    assert (short.iterations, short.converged, len(short.residuals)) == (3, False, 3)


def test_residual_history():
    iterating = qbp_run(xxz_chain(4, 1.0, [1.0, 0.5, 0.25], delta=0.5, field=0.3))
    assert len(iterating.residuals) == iterating.iterations > 1
    assert iterating.residuals[-1] == iterating.residual
    assert iterating.residuals[0] > iterating.residual
    heisenberg = qbp_run(heisenberg_chain(4, 1.0))
    assert heisenberg.residuals == (heisenberg.residual,)


def test_real_models_give_real_messages_and_beliefs():
    model = xxz_chain(4, 1.0, delta=0.5, field=0.3)
    messages = qbp_init(model)
    assert qbp_update_edge(model, messages, (1, 2)).dtype == np.float64
    messages[(0, 1)] = random_traceless_hermitian(np.random.default_rng(2))
    assert qbp_update_edge(model, messages, (1, 2)).dtype == np.complex128
    result = qbp_run(model)
    for q in list(result.beliefs_single.values()) + list(result.beliefs_pair.values()):
        assert q.dtype == np.float64


# --- a complex chain that iterates ----------------------------------------------


def test_update_on_an_iterating_complex_chain_matches_oracle_on_every_edge():
    model = iterating_complex_chain()
    rng = np.random.default_rng(5)
    messages = {e: random_traceless_hermitian(rng) for e in directed_edges(model)}
    for edge in directed_edges(model):
        expected = two_site_message_oracle(
            model.beta, *oracle_edge_inputs(model, messages, edge)
        )
        got = qbp_update_edge(model, messages, edge)
        assert got.dtype == np.complex128
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_sweeps_on_an_iterating_complex_chain_match_per_edge_oracle(monkeypatch):
    messages = check_plain_sweeps_against_per_edge_oracle(iterating_complex_chain(), 3, monkeypatch)
    assert any(abs(m[0, 1].imag) > 1e-3 for m in messages.values())  # sigma_y parts


def test_an_iterating_complex_chain_converges_with_complex_beliefs():
    result = qbp_run(iterating_complex_chain())
    assert result.converged
    assert result.iterations > 1
    beliefs = list(result.beliefs_single.values()) + list(result.beliefs_pair.values())
    for q in beliefs:
        assert q.dtype == np.complex128
        assert abs(np.trace(q) - 1) < 1e-12
        np.testing.assert_allclose(q, q.conj().T, atol=1e-12)
    assert any(abs(q[0, 1].imag) > 1e-3 for q in result.beliefs_single.values())


# --- one eigensolve per sweep -----------------------------------------------------


def test_each_sweep_makes_one_real_eigensolve(eig_calls, monkeypatch):
    # the (N-1,4,4) square roots of a sweep, then the single and the pair beliefs,
    # the only shifted exponentials; a stray complex constant, or a 2x2
    # eigensolve inside the sweep, fails here
    exps, shifted_exp = [], linalg.shifted_exp
    monkeypatch.setattr(linalg, "shifted_exp", lambda a: exps.append(np.shape(a)) or shifted_exp(a))
    result = qbp_run(xxz_chain(8, 1.0, delta=0.5, field=0.3))
    assert result.iterations > 1
    assert exps == [(8, 2, 2), (7, 4, 4)]
    assert len(eig_calls) == result.iterations + 2
    assert [shape for shape, _ in eig_calls] == (
        [(7, 4, 4)] * result.iterations + [(8, 2, 2), (7, 4, 4)]
    )
    assert {dtype for _, dtype in eig_calls} == {np.dtype(np.float64)}


def test_a_complex_chain_sweeps_in_complex128(eig_calls):
    result = qbp_run(iterating_complex_chain())
    assert [shape for shape, _ in eig_calls] == (
        [(4, 4, 4)] * result.iterations + [(5, 2, 2), (4, 4, 4)]
    )
    assert {dtype for _, dtype in eig_calls} == {np.dtype(np.complex128)}


# --- closed-form log -------------------------------------------------------------


def coordinates(a):
    """tr(P_a A) in the complex basis sigma_a/sqrt(2), for one 2x2 matrix."""
    return np.array([np.trace(s @ a).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]) / np.sqrt(2)


def closed_form_log(side):
    """``_log_coordinates`` of one side S (2,m), in the complex basis."""
    return qbp._log_coordinates(np.array([side], dtype=complex), qbp.COMPLEX[0])[0]


def test_closed_form_log_matches_herm_log():
    rng = np.random.default_rng(14)
    for _ in range(200):
        side = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        expected = coordinates(herm_log(side @ side.conj().T))  # its traceless part
        np.testing.assert_allclose(closed_form_log(side), expected, rtol=0, atol=1e-13)


def test_closed_form_log_of_a_zero_bloch_vector_is_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = closed_form_log(2 * np.eye(2, 8))
    np.testing.assert_array_equal(got, np.zeros(3))


def test_closed_form_log_clamps_a_near_pure_state():
    # rows s and e^{i pi/4} s with |s|^2 = 1/2: S S^dag has eigenvalues 0 and 1
    # and the Bloch vector (1, 1, 0)/sqrt(2); the Gram-Schmidt step leaves exactly 0
    floor_log = -np.log(linalg.POSITIVE_FLOOR) / 2  # per coordinate, along (1, 1, 0)/sqrt(2)
    row = np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0])
    got = closed_form_log([row, np.exp(1j * np.pi / 4) * row])
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, [floor_log, floor_log, 0.0], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("ratio", [1e-14, 1e-20])
def test_closed_form_log_keeps_its_precision_when_one_eigenvalue_is_tiny(ratio):
    # S = U diag(sqrt(l+), sqrt(l-)) W^dag, W (8,2) with orthonormal columns, has
    # S S^dag = U diag(l+, l-) U^dag, whose traceless log is (log(l+/l-)/2) U sigma_z U^dag;
    # l+ - |c|/sqrt(2) would leave l- with at most a few correct digits here
    rng = np.random.default_rng(27)
    for _ in range(200):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        w, _ = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))
        top = rng.uniform(0.5, 2.0)
        side = (u * np.sqrt([top, ratio * top])) @ w.conj().T
        expected = coordinates(-np.log(ratio) / 2 * u @ SIGMA_Z @ u.conj().T)
        got = closed_form_log(side)
        assert np.linalg.norm(got - expected) <= 1e-6 * np.linalg.norm(expected)


@pytest.mark.parametrize("model", [
    heisenberg_chain(3, 300.0),
    heisenberg_chain(3, 1000.0),
    xxz_chain(4, 5.0, [50.0] * 3, delta=0.5, field=0.3),
], ids=["heisenberg-beta300", "heisenberg-beta1000", "xxz-j50-beta5"])
def test_large_beta_h_gives_valid_pair_beliefs(model):
    # each dressed exponent is shifted by its largest eigenvalue, so nothing
    # overflows (warnings are errors) and every pair belief scores
    result = qbp_run(model)
    assert result.converged
    rho = exact_gibbs(model)
    for k in range(model.n_sites - 1):
        reference = linalg.partial_trace(rho, [2] * model.n_sites, (k, k + 1))
        metrics.scores(result.beliefs_pair[(k, k + 1)], reference)


# --- Anderson mixing ------------------------------------------------------------


def benchmark_style_chain(seed, beta):
    """XXZ(0.5) chain in a field 0.3, N=8, couplings drawn uniformly from [0.9, 1.1]."""
    couplings = np.random.default_rng(seed).uniform(0.9, 1.1, 7)
    return xxz_chain(8, beta, couplings, delta=0.5, field=0.3)


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_xxz_field_chain_converges_within_default_budget(beta):
    # the plain damped iteration needs 834 (beta 2) and 1551 (beta 3) sweeps
    result = qbp_run(xxz_chain(10, beta, delta=0.5, field=0.3))
    assert result.converged
    assert result.residual < qbp.TOL
    assert result.iterations < 100


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_mixed_fixed_point_matches_a_long_plain_run(seed, beta, monkeypatch):
    # at the default tol 1e-10 they agree only to about 1e-10, as a plain
    # run stopped at 1e-10 does
    model = benchmark_style_chain(seed, beta)
    monkeypatch.setattr(qbp, "TOL", 1e-13)
    mixed = qbp_run(model)
    monkeypatch.setattr(qbp, "MEMORY", 0)
    monkeypatch.setattr(qbp, "MAX_SWEEPS", 5000)
    monkeypatch.setattr(qbp, "TOL", 1e-15)
    plain = qbp_run(model)
    assert mixed.converged and plain.converged
    for i, q in plain.beliefs_single.items():
        np.testing.assert_allclose(mixed.beliefs_single[i], q, rtol=0, atol=1e-12)
    for e, q in plain.beliefs_pair.items():
        np.testing.assert_allclose(mixed.beliefs_pair[e], q, rtol=0, atol=1e-12)


def test_mixed_runs_stay_within_their_sweep_budget():
    # 1054 sweeps in all on these 60 chains at MEMORY = 10; at beta 3 the seed
    # 1, 2 and 3 chains take 20, 20 and 19 (24, 20 and 25 with a restart
    # whenever the residual grew)
    runs = [qbp_run(benchmark_style_chain(seed, beta))
            for seed in range(1, 21) for beta in (0.5, 1.0, 2.0)]
    assert all(r.converged for r in runs)
    assert sum(r.iterations for r in runs) <= 1100
    for seed in (1, 2, 3):
        cold = qbp_run(benchmark_style_chain(seed, 3.0))
        assert cold.converged
        assert cold.iterations <= 35


def test_a_growing_residual_keeps_the_history(monkeypatch):
    # on this chain the residual grows once, at sweep 10 with nine columns held;
    # every fit is well conditioned, so the history fills and then slides.  A
    # restart on growth would empty it there and take 25 sweeps.
    columns, conditions, lstsq = [], [], np.linalg.lstsq

    def recording_lstsq(a, b, rcond=None):
        fit = lstsq(a, b, rcond=rcond)
        columns.append(a.shape[1])
        conditions.append(fit[3][-1] / fit[3][0])
        return fit

    monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
    result = qbp_run(benchmark_style_chain(3, 2.0))
    assert any(b > a for a, b in zip(result.residuals, result.residuals[1:]))
    assert max(columns) == qbp.MEMORY
    assert min(conditions) > qbp.FIT_RCOND
    assert columns == sorted(columns)  # the history was never emptied
    assert result.converged
    assert result.iterations <= 20


# Chains with positive couplings that converge within the default budget only
# because a growing residual keeps the history: a restart on every growth leaves
# each needing 514-3028 sweeps.  (N, delta, field, beta), with sweeps measured:
# (16, 0, 1, 10) 101, (16, 0.5, 0.3, 5) 61, (16, 1, 1, 5) 55, (16, 1, 3, 10) 126,
# (16, 2, 3, 5) 63, (32, 0, 0.3, 5) 172, (32, 0, 0.3, 10) 156, (32, 0, 1, 10) 312,
# (32, 0.5, 0.3, 5) 129, (32, 0.5, 1, 5) 175, (32, 1, 0.3, 2) 139, (32, 1, 1, 2) 113,
# (32, 1, 1, 5) 164, (32, 1, 3, 10) 247.
SLOW_POSITIVE_CHAINS = [
    (16, 0, 1, 10), (16, 0.5, 0.3, 5), (16, 1, 1, 5), (16, 1, 3, 10), (16, 2, 3, 5),
    (32, 0, 0.3, 5), (32, 0, 0.3, 10), (32, 0, 1, 10), (32, 0.5, 0.3, 5), (32, 0.5, 1, 5),
    (32, 1, 0.3, 2), (32, 1, 1, 2), (32, 1, 1, 5), (32, 1, 3, 10),
]


@pytest.mark.parametrize("n_sites, delta, field, beta", SLOW_POSITIVE_CHAINS)
def test_slow_positive_chains_converge_within_the_budget(n_sites, delta, field, beta):
    couplings = np.random.default_rng(1).uniform(0.9, 1.1, n_sites - 1)
    result = qbp_run(xxz_chain(n_sites, beta, couplings, delta=delta, field=field))
    assert result.converged
    assert result.iterations <= 400


# Chains whose reduced bond operators have l-/l+ down to 1e-14 or 0, where
# l- = t/2 - |c|/sqrt(2) kept few or no correct digits and each run spent the
# 500-sweep budget with a final residual of 8.3e-10 to 0.39.  (N, delta, field,
# beta, lowest coupling), with sweeps measured: (4, -1, 3, 5, 0.9) 17,
# (4, 0, 3, 10, -1.1) 18, (4, 0.5, 3, 10, -1.1) 14, (8, -1, 1, 10, 0.9) 21,
# (8, -1, 3, 5, 0.9) 23, (8, -1, 3, 5, -1.1) 20, (8, -1, 3, 10, -1.1) 22,
# (8, 0, 3, 5, -1.1) 20, (8, 0, 3, 10, 0.9) 23, (8, 0, 3, 10, -1.1) 25,
# (8, 0.5, 3, 10, -1.1) 27, (8, 1, 3, 10, -1.1) 31.
NEAR_PURE_CHAINS = [
    (4, -1, 3, 5, 0.9), (4, 0, 3, 10, -1.1), (4, 0.5, 3, 10, -1.1), (8, -1, 1, 10, 0.9),
    (8, -1, 3, 5, 0.9), (8, -1, 3, 5, -1.1), (8, -1, 3, 10, -1.1), (8, 0, 3, 5, -1.1),
    (8, 0, 3, 10, 0.9), (8, 0, 3, 10, -1.1), (8, 0.5, 3, 10, -1.1), (8, 1, 3, 10, -1.1),
]


@pytest.mark.parametrize("n_sites, delta, field, beta, lowest", NEAR_PURE_CHAINS)
def test_near_pure_chains_converge_within_the_budget(n_sites, delta, field, beta, lowest):
    couplings = np.random.default_rng(1).uniform(lowest, 1.1, n_sites - 1)
    result = qbp_run(xxz_chain(n_sites, beta, couplings, delta=delta, field=field))
    assert result.converged
    assert result.iterations <= 60


def test_history_keeps_the_last_differences_oldest_first(monkeypatch):
    # each fit's dF is the previous fit's, less its oldest column once
    # MEMORY are held, plus the newest difference of f
    fits, lstsq = [], np.linalg.lstsq

    def recording_lstsq(a, b, rcond=None):
        fits.append((np.array(a), np.array(b)))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
    qbp_run(benchmark_style_chain(3, 2.0))
    assert max(df.shape[1] for df, _ in fits) == qbp.MEMORY
    checked = 0
    for (old, old_f), (df, f) in zip(fits, fits[1:]):
        if df.shape[1] > 1:  # no restart since the previous fit
            np.testing.assert_array_equal(df[:, -1], f - old_f)
            np.testing.assert_array_equal(df[:, :-1], old[:, old.shape[1] - df.shape[1] + 1:])
            checked += old.shape[1] == qbp.MEMORY
    assert checked  # fits with a full history, which drop a column


def test_ill_conditioned_fits_take_the_damped_step(monkeypatch):
    # with FIT_RCOND = 1 no fit is accepted, so every sweep restarts
    model = benchmark_style_chain(1, 1.0)
    monkeypatch.setattr(qbp, "FIT_RCOND", 1.0)
    monkeypatch.setattr(qbp, "MAX_SWEEPS", 40)
    mixed = qbp_run(model)
    monkeypatch.setattr(qbp, "MEMORY", 0)
    plain = qbp_run(model)
    assert (mixed.iterations, mixed.residual) == (plain.iterations, plain.residual)
    for i in plain.beliefs_single:
        np.testing.assert_array_equal(mixed.beliefs_single[i], plain.beliefs_single[i])
    for e in plain.beliefs_pair:
        np.testing.assert_array_equal(mixed.beliefs_pair[e], plain.beliefs_pair[e])


# --- long XX chains against the free-fermion oracle -------------------------------


@pytest.mark.parametrize("n_sites, j_min, field", [
    (4, 0.9, 0.3), (6, 0.9, 0.3), (8, 0.9, 0.3), (3, -1.1, -0.4), (5, -1.1, -0.4), (8, -1.1, -0.4),
])
@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_free_fermion_oracle_matches_exact_pairs(n_sites, j_min, field, beta):
    couplings = np.random.default_rng(n_sites).uniform(j_min, 1.1, n_sites - 1)
    rho = exact_gibbs(xxz_chain(n_sites, beta, couplings, delta=0.0, field=field))
    for a, pair in enumerate(free_fermion_pairs(couplings, field, beta)):
        exact = linalg.partial_trace(rho, [2] * n_sites, [a, a + 1])
        np.testing.assert_allclose(pair, exact, rtol=0, atol=1e-13)


# Worst adjacent pair over seeds 1-5 and the three lengths: 0.0491 at beta 0.5
# and 0.3986 at beta 2; each ceiling sits about 20% above it.
XX_PAIR_TD_MAX = {0.5: 0.059, 2.0: 0.48}


@pytest.mark.parametrize("n_sites", [16, 64, 128])
@pytest.mark.parametrize("beta", sorted(XX_PAIR_TD_MAX))
def test_long_xx_chains_converge_near_the_free_fermion_pairs(n_sites, beta):
    # far beyond exact diagonalization; 128 sites at beta 2 take 48-49 sweeps
    for seed in range(1, 6):
        couplings = np.random.default_rng(seed).uniform(0.9, 1.1, n_sites - 1)
        result = qbp_run(xxz_chain(n_sites, beta, couplings, delta=0.0, field=0.3))
        assert result.converged
        worst = max(
            metrics.trace_distance(result.beliefs_pair[(a, a + 1)], pair)
            for a, pair in enumerate(free_fermion_pairs(couplings, 0.3, beta))
        )
        assert worst < XX_PAIR_TD_MAX[beta]


def test_a_1024_site_xx_chain_converges_near_the_free_fermion_pairs():
    # the stacked bond terms at scale: 14 sweeps, worst pair 0.0509, about 0.4 s in all
    couplings = np.random.default_rng(1).uniform(0.9, 1.1, 1023)
    result = qbp_run(xxz_chain(1024, 0.5, couplings, delta=0.0, field=0.3))
    assert result.converged
    worst = max(
        metrics.trace_distance(result.beliefs_pair[(a, a + 1)], pair)
        for a, pair in enumerate(free_fermion_pairs(couplings, 0.3, 0.5))
    )
    assert worst < XX_PAIR_TD_MAX[0.5]


def rotated(model, theta):
    """The model with every site turned by the real rotation u = exp(-i theta sigma_y / 2):
    each bond term becomes (u x u) E (u x u)^T.  Returns the model and u."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    u = np.array([[c, -s], [s, c]])
    uu = np.kron(u, u)
    return SpinChainModel(model.n_sites, tuple(uu @ t @ uu.T for t in model.terms), model.beta), u


@pytest.mark.parametrize("n_sites", [16, 64, 128])
@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_rotated_xx_chains_use_the_sigma_x_coordinate(n_sites, beta):
    # U(1) symmetry keeps the XX chain's messages diagonal, so the sigma_x half
    # of the real frame is exactly 0; turned by a real rotation it is not, and qbp
    # is covariant under the rotation (measured to 4.3e-15, sigma_x 0.013-0.040)
    couplings = np.random.default_rng(1).uniform(0.9, 1.1, n_sites - 1)
    model = xxz_chain(n_sites, beta, couplings, delta=0.0, field=0.3)
    turned, u = rotated(model, 0.4)
    plain, result = qbp_run(model), qbp_run(turned)
    assert plain.converged and result.converged
    assert result.iterations == plain.iterations
    uu = np.kron(u, u)
    for i, q in plain.beliefs_single.items():
        np.testing.assert_allclose(result.beliefs_single[i], u @ q @ u.T, rtol=0, atol=1e-12)
    for e, q in plain.beliefs_pair.items():
        np.testing.assert_allclose(result.beliefs_pair[e], uu @ q @ uu.T, rtol=0, atol=1e-12)
    sigma_x = [abs(np.trace(SIGMA_X @ q)) for q in result.beliefs_single.values()]
    assert all(np.trace(SIGMA_X @ q) == 0 for q in plain.beliefs_single.values())
    assert max(sigma_x) > 1e-2


# --- operation count -----------------------------------------------------------


def test_opcount_values():
    assert qbp_opcount(2) == 48
    assert qbp_opcount(3) == 112
    assert qbp_opcount(5) == 240


def test_opcount_precondition():
    with pytest.raises(ValueError):
        qbp_opcount(1)
