"""Operator belief propagation: exactness, fixed points, determinism.

The two-site update is cross-checked against a raw-numpy oracle that builds
the gauge-fixed log of the traced bond exponential directly.  The Heisenberg
chain gives zero messages after one sweep, so the tests of the damped
iteration use an XXZ chain in a longitudinal field, whose messages are not
multiples of the identity.  The orientation of reversed edges is checked on
a chain whose bond terms are not symmetric under site swap.
"""

import re

import numpy as np
import pytest

from spinbp import linalg, metrics, qbp
from spinbp.qbp import (
    DEFAULT_TOL,
    QbpResult,
    directed_edges,
    qbp_init,
    qbp_opcount,
    qbp_run,
    qbp_update_edge,
)
from spinbp.spinchain import (
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


def test_sweeps_on_swap_asymmetric_chain_match_per_edge_oracle(monkeypatch):
    monkeypatch.setattr(qbp, "MEMORY", 0)  # the oracle takes plain damped steps
    model = swap_asymmetric_chain(1.2)
    sweeps = 3
    edges = directed_edges(model)
    messages = {e: np.zeros((2, 2)) for e in edges}
    for _ in range(sweeps):
        updates = {
            e: two_site_message_oracle(model.beta, *oracle_edge_inputs(model, messages, e))
            for e in edges
        }
        messages = {e: 0.5 * messages[e] + 0.5 * updates[e] for e in edges}
    result = qbp_run(model, max_iters=sweeps)
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
    tol = 1e-10
    result = qbp_run(xxz_chain(3, 1.0, delta=0.5, field=0.3), tol=tol)
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


def test_damping_validation():
    with pytest.raises(ValueError):
        qbp_run(heisenberg_chain(2, 1.0), damping=0.0)


@pytest.mark.parametrize("option", [
    dict(max_iters=0), dict(tol=0.0), dict(tol=-1.0), dict(tol=float("nan")),
    dict(damping=1.5), dict(damping=float("nan")),
])
def test_run_options_are_checked(option):
    # max_iters=0 used to return a not-converged run with residual 0; a
    # non-positive tol never converged
    ((key, value),) = option.items()
    with pytest.raises(ValueError, match=re.escape(f"{key}={value}")):
        qbp_run(heisenberg_chain(2, 1.0), **option)


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
    assert result.residual < DEFAULT_TOL
    assert result.iterations < 100


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_mixed_fixed_point_matches_a_long_plain_run(seed, beta, monkeypatch):
    # at the default tol 1e-10 they agree only to about 1e-10, as a plain
    # run stopped at 1e-10 does
    model = benchmark_style_chain(seed, beta)
    mixed = qbp_run(model, tol=1e-13)
    monkeypatch.setattr(qbp, "MEMORY", 0)
    plain = qbp_run(model, max_iters=5000, tol=1e-15)
    assert mixed.converged and plain.converged
    for i, q in plain.beliefs_single.items():
        np.testing.assert_allclose(mixed.beliefs_single[i], q, rtol=0, atol=1e-12)
    for e, q in plain.beliefs_pair.items():
        np.testing.assert_allclose(mixed.beliefs_pair[e], q, rtol=0, atol=1e-12)


def test_history_restarts_when_the_residual_grows(monkeypatch):
    # on this chain the residual grows once after the history is full; every
    # fit is well conditioned, so only the growth can empty the history
    columns, conditions, lstsq = [], [], np.linalg.lstsq

    def recording_lstsq(a, b, rcond=None):
        fit = lstsq(a, b, rcond=rcond)
        columns.append(a.shape[1])
        conditions.append(fit[3][-1] / fit[3][0])
        return fit

    monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
    result = qbp_run(benchmark_style_chain(3, 2.0))
    assert result.converged
    assert max(columns) == qbp.MEMORY
    assert min(conditions) > qbp.FIT_RCOND
    assert any(b < a for a, b in zip(columns, columns[1:]))  # the history was emptied


def test_ill_conditioned_fits_take_the_damped_step(monkeypatch):
    # with FIT_RCOND = 1 no fit is accepted, so every sweep restarts
    model = benchmark_style_chain(1, 1.0)
    monkeypatch.setattr(qbp, "FIT_RCOND", 1.0)
    mixed = qbp_run(model, max_iters=40)
    monkeypatch.setattr(qbp, "MEMORY", 0)
    plain = qbp_run(model, max_iters=40)
    assert (mixed.iterations, mixed.residual) == (plain.iterations, plain.residual)
    for i in plain.beliefs_single:
        np.testing.assert_array_equal(mixed.beliefs_single[i], plain.beliefs_single[i])
    for e in plain.beliefs_pair:
        np.testing.assert_array_equal(mixed.beliefs_pair[e], plain.beliefs_pair[e])


# --- operation count -----------------------------------------------------------


def test_opcount_values():
    assert qbp_opcount(2) == 48
    assert qbp_opcount(3) == 112
    assert qbp_opcount(5) == 240


def test_opcount_precondition():
    with pytest.raises(ValueError):
        qbp_opcount(1)
