"""Operator belief propagation: exactness, fixed points, determinism.

The two-site update is cross-checked against a raw-numpy oracle that builds
the gauge-fixed log of the traced bond exponential directly.  The Heisenberg
chain gives zero messages after one sweep, so the tests of the Newton
iteration use an XXZ chain in a longitudinal field, whose messages are not
multiples of the identity.  The orientation of reversed edges is checked on
a chain whose bond terms are not symmetric under site swap, and the complex
(three-coordinate) iteration on a chain with complex terms that iterates.
"""

import itertools
import warnings

import numpy as np
import pytest

from conftest import complex_rotated, free_fermion_pairs, herm_log
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


def sweep_map(model, messages, frame):
    """One evaluation of qbp's sweep map on a dict of messages: the coordinates
    tr(P_a m) of the two messages into each bond from outside (zero past the
    chain ends) go through ``_updates``, whose rows are the new messages in
    directed_edges order."""
    basis, zero = frame[0], np.zeros((2, 2))
    incoming = np.array([[messages.get(e, zero).reshape(4) for e in ((k - 1, k), (k + 2, k + 1))]
                         for k in range(model.n_sites - 1)])
    rows = qbp._updates(-model.beta * model.terms, (incoming @ basis.conj().T).real, frame)
    return {e: (row @ basis).reshape(2, 2) for e, row in zip(directed_edges(model), rows)}


def check_plain_sweeps_against_per_edge_oracle(model, sweeps, frame):
    """Run ``sweeps`` plain damped sweeps x <- (x + U(x))/2 from zero, check each
    map U against the per-edge oracle on every edge and return the messages."""
    edges = directed_edges(model)
    messages = {e: np.zeros((2, 2)) for e in edges}
    for _ in range(sweeps):
        updates = sweep_map(model, messages, frame)
        for e in edges:
            expected = two_site_message_oracle(model.beta, *oracle_edge_inputs(model, messages, e))
            np.testing.assert_allclose(updates[e], expected, rtol=0, atol=1e-12)
        messages = {e: (messages[e] + updates[e]) / 2 for e in edges}
    return messages


def check_beliefs_against_oracle(result, model, messages):
    """The pair and single beliefs that ``messages`` give, built by the oracle, against
    those of ``result``."""
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


def test_sweeps_on_swap_asymmetric_chain_match_per_edge_oracle():
    check_plain_sweeps_against_per_edge_oracle(swap_asymmetric_chain(1.2), 3, qbp.REAL)


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


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_a_two_site_chain_takes_no_jacobian(beta, monkeypatch):
    # the messages into the one bond are the zero padding, so the map is constant:
    # the start and one plain step, which lands on the fixed point
    model = xxz_chain(2, beta, delta=0.5, field=0.3)
    calls, updates = [], qbp._updates

    def recording(neg_terms, incoming, frame):
        calls.append(len(neg_terms))
        return updates(neg_terms, incoming, frame)

    monkeypatch.setattr(qbp, "_updates", recording)
    result = qbp_run(model)
    assert (result.iterations, result.converged, result.residual) == (2, True, 0.0)
    assert calls == [1, 1]
    rho = exact_gibbs(model)
    np.testing.assert_allclose(result.beliefs_pair[(0, 1)], rho, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n_sites", [3, 8])
def test_a_run_at_its_fixed_point_never_steps(n_sites, monkeypatch):
    # zero messages are the Heisenberg chain's fixed point, so the run stops at its
    # first evaluation: no solve, and none of the step's constants (np.tile stacks
    # the bond terms for the Jacobian) are built
    calls, updates, tile = [], qbp._updates, np.tile

    def recording(neg_terms, incoming, frame):
        calls.append(len(neg_terms))
        return updates(neg_terms, incoming, frame)

    def tiling(*args):
        calls.append("tile")
        return tile(*args)

    monkeypatch.setattr(qbp, "_updates", recording)
    monkeypatch.setattr(qbp, "_block_solve", lambda *args: calls.append("solve"))
    monkeypatch.setattr(np, "tile", tiling)
    result = qbp_run(heisenberg_chain(n_sites, 1.0))
    assert (result.iterations, result.converged, result.residual) == (1, True, 0.0)
    assert calls == [n_sites - 1]


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


def test_runs_are_deterministic_on_an_iterating_chain():
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


def test_asymmetric_couplings_converge():
    # unequal couplings on an anisotropic chain; the iteration still settles
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
    # the module constants are qbp_run's only settings
    model = xxz_chain(4, 1.0, [1.0, 0.5, 0.25], delta=0.5, field=0.3)
    monkeypatch.setattr(qbp, "TOL", 1e-13)
    tight = qbp_run(model)
    assert tight.converged
    assert tight.residual < 1e-13
    # the first evaluation, the 4 of a real model's Jacobian and one full step;
    # a budget of 5 leaves no room for a Jacobian, so its steps are plain ones,
    # 4 of which each lower the residual
    monkeypatch.setattr(qbp, "MAX_SWEEPS", 6)
    short = qbp_run(model)
    assert (short.iterations, short.converged, len(short.residuals)) == (6, False, 2)
    monkeypatch.setattr(qbp, "MAX_SWEEPS", 5)
    plain = qbp_run(model)
    assert (plain.iterations, plain.converged, len(plain.residuals)) == (5, False, 5)


def test_residual_history():
    # one residual for the start and one for each Newton step, each below the last;
    # a step costs a Jacobian (4 evaluations) and at least one trial
    iterating = qbp_run(xxz_chain(4, 1.0, [1.0, 0.5, 0.25], delta=0.5, field=0.3))
    steps = len(iterating.residuals) - 1
    assert steps >= 1
    assert iterating.iterations >= 1 + 5 * steps
    assert iterating.residuals[-1] == iterating.residual
    assert all(b < a for a, b in zip(iterating.residuals, iterating.residuals[1:]))
    heisenberg = qbp_run(heisenberg_chain(4, 1.0))
    assert heisenberg.residuals == (heisenberg.residual,)
    assert heisenberg.iterations == 1


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


def test_sweeps_on_an_iterating_complex_chain_match_per_edge_oracle():
    messages = check_plain_sweeps_against_per_edge_oracle(iterating_complex_chain(), 3, qbp.COMPLEX)
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


# --- one eigensolve per map evaluation ---------------------------------------------


def check_one_eigensolve_per_evaluation(eig_calls, result, n_sites, width):
    """The run's eigensolves are one (N-1,4,4) stack per trial point and one
    (width(N-1),4,4) stack per Jacobian, which counts width evaluations, and
    then the single and the pair beliefs."""
    bonds = n_sites - 1
    shapes = [shape for shape, _ in eig_calls]
    assert shapes[-2:] == [(n_sites, 2, 2), (bonds, 4, 4)]
    sweeps = shapes[:-2]
    assert shapes[0] == (bonds, 4, 4) and (width * bonds, 4, 4) in sweeps
    assert set(sweeps) == {(bonds, 4, 4), (width * bonds, 4, 4)}
    assert sum(1 if shape[0] == bonds else width for shape in sweeps) == result.iterations


def test_each_sweep_makes_one_real_eigensolve(eig_calls, monkeypatch):
    # the square roots of each map evaluation, then the single and the pair
    # beliefs, the only shifted exponentials; a stray complex constant, or a 2x2
    # eigensolve inside an evaluation, fails here
    exps, shifted_exp = [], linalg.shifted_exp
    monkeypatch.setattr(linalg, "shifted_exp", lambda a: exps.append(np.shape(a)) or shifted_exp(a))
    result = qbp_run(xxz_chain(8, 1.0, delta=0.5, field=0.3))
    assert result.iterations > 1
    assert exps == [(8, 2, 2), (7, 4, 4)]
    check_one_eigensolve_per_evaluation(eig_calls, result, 8, 4)
    assert {dtype for _, dtype in eig_calls} == {np.dtype(np.float64)}


def test_a_complex_chain_sweeps_in_complex128(eig_calls):
    result = qbp_run(iterating_complex_chain())
    check_one_eigensolve_per_evaluation(eig_calls, result, 5, 6)
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


# --- Newton's method --------------------------------------------------------------


def benchmark_style_chain(seed, beta):
    """XXZ(0.5) chain in a field 0.3, N=8, couplings drawn uniformly from [0.9, 1.1]."""
    couplings = np.random.default_rng(seed).uniform(0.9, 1.1, 7)
    return xxz_chain(8, beta, couplings, delta=0.5, field=0.3)


def plain_fixed_point(model, frame):
    """The messages of the plain damped iteration x <- (x + U(x))/2 from zero, run
    until no message moves by 1e-15 (at most 5000 sweeps)."""
    edges = directed_edges(model)
    messages = {e: np.zeros((2, 2)) for e in edges}
    for _ in range(5000):
        updates = sweep_map(model, messages, frame)
        steps = {e: (updates[e] - messages[e]) / 2 for e in edges}
        messages = {e: messages[e] + steps[e] for e in edges}
        if max(np.linalg.norm(step) for step in steps.values()) < 1e-15:
            return messages
    pytest.fail("the plain damped iteration did not settle in 5000 sweeps")


@pytest.mark.parametrize("size", [4, 6])
def test_block_solve_matches_a_dense_solve_at_every_length(size):
    # lengths 1-40 take odd and even lengths at every level of the reduction;
    # lower[0] and upper[-1] are NaN, so reading either fails
    rng = np.random.default_rng(size)
    for n in range(1, 41):
        lower, diag, upper = rng.normal(size=(3, n, size, size))
        diag += 2 * size * np.eye(size)  # diagonally dominant: well conditioned
        lower[0] = upper[-1] = np.nan
        rhs = rng.normal(size=(n, size, 1))
        dense = np.zeros((n, size, n, size))
        for k in range(n):
            dense[k, :, k] = diag[k]
            if k > 0:
                dense[k, :, k - 1] = lower[k]
            if k < n - 1:
                dense[k, :, k + 1] = upper[k]
        expected = np.linalg.solve(dense.reshape(n * size, -1), rhs.reshape(-1, 1))
        got = qbp._block_solve(lower, diag, upper, rhs)
        np.testing.assert_allclose(got, expected.reshape(rhs.shape), rtol=0, atol=1e-13)


def test_a_newton_step_solves_short_chains_in_one_dense_call(solve_calls):
    # up to 16 block rows take one dense LU solve: the 7 bonds of N = 8, 4 coordinates
    # each, make one (28, 28) solve per step
    for beta in (0.5, 1.0, 2.0):
        solve_calls.clear()
        result = qbp_run(benchmark_style_chain(1, beta))
        assert result.converged and len(result.residuals) > 1
        assert solve_calls == [(28, 28)] * (len(result.residuals) - 1)
    # the 63 bonds of N = 64 fold by cyclic reduction to 32 rows, then 16, which
    # take the dense solve: three calls per step
    solve_calls.clear()
    couplings = np.random.default_rng(1).uniform(0.9, 1.1, 63)
    result = qbp_run(xxz_chain(64, 2.0, couplings, delta=0.5, field=0.3))
    assert result.converged and len(result.residuals) > 1
    assert solve_calls == [(31, 4, 4), (16, 4, 4), (64, 64)] * (len(result.residuals) - 1)


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_xxz_field_chain_converges_within_default_budget(beta):
    # the plain damped iteration needs 834 (beta 2) and 1551 (beta 3) sweeps,
    # Newton's method 11 and 6 evaluations
    result = qbp_run(xxz_chain(10, beta, delta=0.5, field=0.3))
    assert result.converged
    assert result.residual < qbp.TOL
    assert result.iterations < 100


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_mixed_fixed_point_matches_a_long_plain_run(seed, beta, monkeypatch):
    # Newton's fixed point is the plain damped iteration's: the beliefs that the
    # plain run's messages give, built by the oracle, match to 1e-12 at tol 1e-13
    model = benchmark_style_chain(seed, beta)
    monkeypatch.setattr(qbp, "TOL", 1e-13)
    result = qbp_run(model)
    assert result.converged
    check_beliefs_against_oracle(result, model, plain_fixed_point(model, qbp.REAL))


@pytest.mark.parametrize("build, frame", [
    (lambda: swap_asymmetric_chain(1.2), qbp.REAL), (iterating_complex_chain, qbp.COMPLEX),
], ids=["swap-asymmetric", "complex"])
def test_fixed_point_beliefs_match_the_oracle_off_the_symmetric_chains(build, frame, monkeypatch):
    model = build()
    monkeypatch.setattr(qbp, "TOL", 1e-13)
    result = qbp_run(model)
    assert result.converged
    check_beliefs_against_oracle(result, model, plain_fixed_point(model, frame))


def test_mixed_runs_stay_within_their_sweep_budget():
    # 755 evaluations in all on these 60 chains (at most 16 a run; Anderson
    # mixing took 1054 sweeps); at beta 3 the seed 1, 2 and 3 chains take 11 each
    runs = [qbp_run(benchmark_style_chain(seed, beta))
            for seed in range(1, 21) for beta in (0.5, 1.0, 2.0)]
    assert all(r.converged for r in runs)
    assert sum(r.iterations for r in runs) <= 1100
    for seed in (1, 2, 3):
        cold = qbp_run(benchmark_style_chain(seed, 3.0))
        assert cold.converged
        assert cold.iterations <= 35


# Chains with positive couplings on which Anderson mixing took 55-312 sweeps, and
# a restart on every growth of its residual 514-3028.  (N, delta, field, beta),
# with Newton's evaluations measured: (16, 0, 1, 10) 11, (16, 0.5, 0.3, 5) 6,
# (16, 1, 1, 5) 6, (16, 1, 3, 10) 16, (16, 2, 3, 5) 6, (32, 0, 0.3, 5) 11,
# (32, 0, 0.3, 10) 6, (32, 0, 1, 10) 11, (32, 0.5, 0.3, 5) 6, (32, 0.5, 1, 5) 11,
# (32, 1, 0.3, 2) 11, (32, 1, 1, 2) 11, (32, 1, 1, 5) 6, (32, 1, 3, 10) 16.
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
# beta, lowest coupling), with evaluations measured: (4, -1, 3, 5, 0.9) 21,
# (4, 0, 3, 10, -1.1) 21, (4, 0.5, 3, 10, -1.1) 26, (8, -1, 1, 10, 0.9) 21,
# (8, -1, 3, 5, 0.9) 26, (8, -1, 3, 5, -1.1) 31, (8, -1, 3, 10, -1.1) 32,
# (8, 0, 3, 5, -1.1) 26, (8, 0, 3, 10, 0.9) 26, (8, 0, 3, 10, -1.1) 31,
# (8, 0.5, 3, 10, -1.1) 38, (8, 1, 3, 10, -1.1) 50.
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


def test_the_640_chain_survey_converges_within_its_evaluation_budget():
    # XXZ chains across N, delta, field, beta and the sign of the couplings:
    # 9,451 evaluations in all (at most 72 a run), where Anderson mixing took
    # 15,882 sweeps; about 0.9 s
    runs = [
        qbp_run(xxz_chain(n, beta, np.random.default_rng(1).uniform(lowest, 1.1, n - 1),
                          delta=delta, field=field))
        for n, delta, field, beta, lowest in itertools.product(
            (4, 8, 16, 32), (-1, 0, 0.5, 1, 2), (0, 0.3, 1, 3), (0.5, 2, 5, 10), (0.9, -1.1))
    ]
    assert len(runs) == 640
    assert all(r.converged for r in runs)
    assert sum(r.iterations for r in runs) <= 10_400


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
    # far beyond exact diagonalization; 128 sites at beta 2 take 16 map evaluations
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
    # the stacked bond terms at scale: 16 map evaluations, worst pair 0.0509, about 0.4 s in all
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
    # is covariant under the rotation (measured to 8.0e-14, sigma_x 0.013-0.040)
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


@pytest.mark.parametrize("n_sites", [64, 128])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_slow_xx_chains_at_beta_5_converge_in_tens_of_evaluations(n_sites, seed):
    # Anderson mixing took 307-500 sweeps on these chains, and spent its budget on
    # the turned N=128 seed-1 chain; Newton's method takes 11-16 evaluations
    # unturned and 15-22 turned
    couplings = np.random.default_rng(seed).uniform(0.9, 1.1, n_sites - 1)
    model = xxz_chain(n_sites, 5.0, couplings, delta=0.0, field=0.3)
    turned, u = complex_rotated(model)
    plain, result = qbp_run(model), qbp_run(turned)
    assert plain.converged and result.converged
    assert plain.iterations <= 60 and result.iterations <= 60
    for i, q in plain.beliefs_single.items():
        np.testing.assert_allclose(result.beliefs_single[i], u[i] @ q @ u[i].conj().T,
                                   rtol=0, atol=1e-12)
    for (i, j), q in plain.beliefs_pair.items():
        uu = np.kron(u[i], u[j])
        np.testing.assert_allclose(result.beliefs_pair[(i, j)], uu @ q @ uu.conj().T,
                                   rtol=0, atol=1e-12)


# --- operation count -----------------------------------------------------------


def test_opcount_values():
    assert qbp_opcount(2) == 48
    assert qbp_opcount(3) == 112
    assert qbp_opcount(5) == 240


def test_opcount_precondition():
    with pytest.raises(ValueError):
        qbp_opcount(1)
