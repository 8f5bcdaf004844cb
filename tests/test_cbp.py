"""Classical sum-product: tree exactness against a pure-Python enumerator."""

import itertools

import numpy as np
import pytest

from spinbp import cbp, linalg
from spinbp.cbp import (
    FactorChain,
    NotAnEdgeError,
    NotATreeError,
    StateSpaceTooLargeError,
    belief_pair,
    belief_single,
    brute_marginal,
    chain_end_marginal,
    run_bp,
)


def loop_marginal(cards, edges, phis, targets):
    """Marginal by explicit enumeration of every joint state (oracle).

    Pure-Python loops, no vectorization, so it shares nothing with the
    library implementations it checks.
    """
    total = 0.0
    shape = [cards[t] for t in targets]
    marg = np.zeros(shape)
    for state in itertools.product(*[range(c) for c in cards]):
        weight = 1.0
        for i, phi in enumerate(phis):
            weight *= phi[state[i]]
        for i, j, psi in edges:
            weight *= psi[state[i], state[j]]
        total += weight
        marg[tuple(state[t] for t in targets)] += weight
    return marg / total


def random_chain(rng, n_vars, signed=False):
    cards = [2] * n_vars
    lo = -1.0 if signed else 0.1
    edges = [(i, i + 1, rng.uniform(lo, 2.0, size=(2, 2))) for i in range(n_vars - 1)]
    phis = [rng.uniform(0.1, 2.0, size=2) for _ in range(n_vars)]
    return FactorChain(cards, edges, phis)


# --- brute_marginal ---------------------------------------------------------


def test_brute_flat_potentials_are_uniform():
    chain = FactorChain([2, 2, 2], [(0, 1, np.ones((2, 2))), (1, 2, np.ones((2, 2)))])
    np.testing.assert_allclose(brute_marginal(chain, [0, 1]), np.full((2, 2), 0.25), atol=1e-15)


def test_brute_hard_equality_constraint():
    chain = FactorChain([2, 2], [(0, 1, np.eye(2))])
    np.testing.assert_allclose(brute_marginal(chain, [0, 1]), np.eye(2) / 2, atol=1e-15)


def test_brute_matches_loop_oracle_on_random_chain():
    rng = np.random.default_rng(42)
    chain = random_chain(rng, 5)
    for targets in ([2], [0, 4], [3, 1]):
        got = brute_marginal(chain, targets)
        expected = loop_marginal(chain.cards, chain.edges, chain.phis, targets)
        np.testing.assert_allclose(got, expected, atol=1e-14)


def test_brute_guards_state_space():
    n = 25  # 2^25 joint states
    chain = FactorChain([2] * n, [(i, i + 1, np.ones((2, 2))) for i in range(n - 1)])
    with pytest.raises(StateSpaceTooLargeError):
        brute_marginal(chain, [0])


def test_brute_target_validation():
    chain = FactorChain([2, 2], [(0, 1, np.ones((2, 2)))])
    with pytest.raises(ValueError):
        brute_marginal(chain, [])
    with pytest.raises(ValueError):
        brute_marginal(chain, [0, 0])
    with pytest.raises(ValueError):
        brute_marginal(chain, [5])


# --- message passing ----------------------------------------------------------


def test_single_message_by_hand():
    # m_{0->1}(x1) = sum_x0 psi[x0, x1] with flat locals: (3, 3), normalized
    chain = FactorChain([2, 2], [(0, 1, np.array([[2.0, 1.0], [1.0, 2.0]]))])
    table = run_bp(chain)
    np.testing.assert_allclose(table.messages[(0, 1)], [0.5, 0.5], atol=1e-15)


def test_flat_potentials_give_uniform_messages():
    chain = FactorChain([2, 2, 2], [(0, 1, np.ones((2, 2))), (1, 2, np.ones((2, 2)))])
    table = run_bp(chain)
    assert len(table.messages) == 4  # both directions on both edges
    for vec in table.messages.values():
        np.testing.assert_allclose(vec, [0.5, 0.5], atol=1e-15)


def test_tree_exactness_on_random_chains():
    rng = np.random.default_rng(7)
    for _ in range(10):
        chain = random_chain(rng, 5)
        table = run_bp(chain)
        for i in range(5):
            np.testing.assert_allclose(
                belief_single(chain, table, i), brute_marginal(chain, [i]), atol=1e-12
            )
        for i, j, _ in chain.edges:
            np.testing.assert_allclose(
                belief_pair(chain, table, i, j), brute_marginal(chain, [i, j]), atol=1e-12
            )


def test_tree_exactness_on_a_branching_tree():
    rng = np.random.default_rng(21)
    cards = [2, 3, 2, 2, 3]
    edges = [
        (0, 1, rng.uniform(0.1, 2.0, size=(2, 3))),
        (1, 2, rng.uniform(0.1, 2.0, size=(3, 2))),
        (1, 3, rng.uniform(0.1, 2.0, size=(3, 2))),
        (3, 4, rng.uniform(0.1, 2.0, size=(2, 3))),
    ]
    phis = [rng.uniform(0.1, 2.0, size=c) for c in cards]
    chain = FactorChain(cards, edges, phis)
    table = run_bp(chain)
    for i in range(5):
        np.testing.assert_allclose(
            belief_single(chain, table, i), brute_marginal(chain, [i]), atol=1e-12
        )
    for i, j, _ in edges:
        np.testing.assert_allclose(
            belief_pair(chain, table, i, j), brute_marginal(chain, [i, j]), atol=1e-12
        )


def test_signed_potentials_still_contract_exactly():
    rng = np.random.default_rng(13)
    chain = random_chain(rng, 4, signed=True)
    table = run_bp(chain)
    for i in range(4):
        np.testing.assert_allclose(
            belief_single(chain, table, i), brute_marginal(chain, [i]), atol=1e-12
        )


def test_pair_belief_marginalizes_to_single():
    rng = np.random.default_rng(3)
    chain = random_chain(rng, 6)
    table = run_bp(chain)
    for i, j, _ in chain.edges:
        pair = belief_pair(chain, table, i, j)
        np.testing.assert_allclose(pair.sum(axis=1), belief_single(chain, table, i), atol=1e-12)
        np.testing.assert_allclose(pair.sum(axis=0), belief_single(chain, table, j), atol=1e-12)


def test_potential_rescaling_leaves_beliefs_unchanged():
    rng = np.random.default_rng(17)
    chain = random_chain(rng, 5)
    scaled = FactorChain(
        chain.cards, [(i, j, 37.5 * psi) for i, j, psi in chain.edges], chain.phis
    )
    t1, t2 = run_bp(chain), run_bp(scaled)
    for i in range(5):
        np.testing.assert_allclose(
            belief_single(chain, t1, i), belief_single(scaled, t2, i), atol=1e-12
        )
    for i, j, _ in chain.edges:
        np.testing.assert_allclose(
            belief_pair(chain, t1, i, j), belief_pair(scaled, t2, i, j), atol=1e-12
        )


def test_two_pass_schedule_message_count():
    rng = np.random.default_rng(1)
    chain = random_chain(rng, 8)
    table = run_bp(chain)
    assert len(table.messages) == 2 * 7
    for vec in table.messages.values():
        assert abs(np.abs(vec).sum() - 1.0) < 1e-12


# --- structure validation ------------------------------------------------------


def test_cycle_is_rejected():
    psis = [np.ones((2, 2))] * 3
    with pytest.raises(NotATreeError):
        FactorChain([2, 2, 2], [(0, 1, psis[0]), (1, 2, psis[1]), (2, 0, psis[2])])


def test_disconnected_is_rejected():
    with pytest.raises(NotATreeError):
        FactorChain([2, 2, 2, 2], [(0, 1, np.ones((2, 2))), (2, 3, np.ones((2, 2)))])


def test_duplicate_edge_is_rejected():
    with pytest.raises(NotATreeError):
        FactorChain([2, 2], [(0, 1, np.ones((2, 2))), (1, 0, np.ones((2, 2)))])


def test_belief_pair_requires_an_edge():
    rng = np.random.default_rng(2)
    chain = random_chain(rng, 4)
    table = run_bp(chain)
    with pytest.raises(NotAnEdgeError):
        belief_pair(chain, table, 0, 2)


# --- chain_end_marginal -----------------------------------------------------


def test_chain_end_marginal_matches_brute():
    rng = np.random.default_rng(19)
    psis = [rng.uniform(0.1, 2.0, size=(3, 3)) for _ in range(4)]
    chain = FactorChain([3] * 5, [(k, k + 1, psis[k]) for k in range(4)])
    got = chain_end_marginal(psis)
    expected = brute_marginal(chain, [0, 4])
    np.testing.assert_allclose(got / np.abs(got).sum(), expected / np.abs(expected).sum(),
                               atol=1e-13)


def test_chain_end_marginal_is_the_matrix_product():
    rng = np.random.default_rng(23)
    w = rng.uniform(-1.0, 1.0, size=(4, 4))
    got = chain_end_marginal([w] * 6)
    expected = np.linalg.matrix_power(w, 6)
    expected /= np.abs(expected).sum()
    np.testing.assert_allclose(got, expected, atol=1e-12)


def sequential_marginal(potentials):
    """The one-product-per-potential recursion with one running scale, as the
    library ran it before repeated potentials were powered by squaring."""
    block = np.asarray(potentials[-1], dtype=float).copy()
    for m in reversed(potentials[:-1]):
        scale = np.abs(block).max()
        if scale > 0.0:
            block /= scale
        block = np.asarray(m, dtype=float) @ block
    return block / np.abs(block).sum()


@pytest.mark.parametrize("n", range(1, 65))
def test_chain_end_marginal_powers_a_repeated_potential(n):
    # every bit pattern of n up to 64: squarings and block products alike
    rng = np.random.default_rng(43)
    w = rng.uniform(-1.0, 1.0, size=(4, 4))
    got = chain_end_marginal([w] * n)
    expected = np.linalg.matrix_power(w, n)
    np.testing.assert_allclose(got, expected / np.abs(expected).sum(), rtol=0, atol=1e-13)


def sector_diagonal(rng, n_sites):
    """Random entries of a 2^n_sites matrix inside its total-Sz sectors (equal
    set-bit counts), which are not contiguous; returns the matrix and the
    mask of the entries between sectors."""
    counts = np.array([bin(i).count("1") for i in range(2**n_sites)])
    between = counts[:, None] != counts[None, :]
    a = rng.uniform(-1.0, 1.0, size=between.shape)
    a[between] = 0.0
    return a, between


@pytest.fixture(params=["blocks", "whole"])
def power_path(request, monkeypatch):
    """Run the test with repeated potentials powered by blocks at every width,
    and with the default width below which they are powered whole."""
    if request.param == "blocks":
        monkeypatch.setattr(linalg, "BLOCK_MIN_DIM", 1)
    return request.param


def test_chain_end_marginal_powers_block_diagonal_potentials(power_path, monkeypatch):
    # sectors of sizes 1, 3, 3 and 1: two stacks of two blocks each
    w, between = sector_diagonal(np.random.default_rng(67), 3)
    powered, power = [], cbp._power

    def recording(stacks, count):
        powered.append([s.shape for s in stacks])
        return power(stacks, count)

    monkeypatch.setattr(cbp, "_power", recording)
    for n in range(1, 65):
        got = chain_end_marginal([w] * n)
        expected = np.linalg.matrix_power(w, n)
        np.testing.assert_allclose(got, expected / np.abs(expected).sum(), rtol=0, atol=1e-13)
        np.testing.assert_array_equal(got[between], 0.0)
    shapes = [(2, 1, 1), (2, 3, 3)] if power_path == "blocks" else [(1, 8, 8)]
    assert powered == [shapes] * 63


def test_chain_end_marginal_powers_a_block_diagonal_run_inside_a_chain(power_path):
    # a run after the first multiplies the block carried so far: the run's
    # blocks act on its rows, and every column is kept
    rng = np.random.default_rng(79)
    w, _ = sector_diagonal(rng, 3)
    first, last = rng.uniform(-1.0, 1.0, size=(5, 8)), rng.uniform(-1.0, 1.0, size=(8, 3))
    for n in (2, 5, 13):
        got = chain_end_marginal([first] + [w] * n + [last])
        expected = first @ np.linalg.matrix_power(w, n) @ last
        np.testing.assert_allclose(got, expected / np.abs(expected).sum(), rtol=0, atol=1e-13)


def test_chain_end_marginal_never_writes_a_potential(power_path):
    # the result is normalized in place, so it must be a fresh array for a
    # single potential, a run of one object, and runs mixed with others
    rng = np.random.default_rng(83)
    w, _ = sector_diagonal(rng, 3)
    a, b = rng.uniform(-1.0, 1.0, size=(2, 8, 8))
    for potentials in ([a], [w], [w] * 2, [w] * 7, [a, w, w, w, b], [w, w, a], [a, b, b]):
        before = [p.copy() for p in potentials]
        got = chain_end_marginal(potentials)
        for p, q in zip(potentials, before):
            assert p.tobytes() == q.tobytes()
            assert not np.shares_memory(got, p)


def test_chain_end_marginal_mixed_runs_match_brute():
    rng = np.random.default_rng(47)
    a, b, c = rng.uniform(0.1, 2.0, size=(3, 3, 3))
    psis = [a, a, a, b, c, c, c, c, c]
    chain = FactorChain([3] * 10, [(k, k + 1, psi) for k, psi in enumerate(psis)])
    got = chain_end_marginal(psis)
    expected = brute_marginal(chain, [0, 9])
    np.testing.assert_allclose(got, expected / np.abs(expected).sum(), rtol=0, atol=1e-13)


def test_chain_end_marginal_of_distinct_potentials_is_the_sequential_recursion():
    # runs of one are the plain step, bit for bit; equal values in distinct
    # objects are not a run
    rng = np.random.default_rng(53)
    cards = [3, 4, 4, 4, 2, 5]
    psis = [rng.uniform(-1.0, 2.0, size=(cards[k], cards[k + 1])) for k in range(5)]
    psis[2] = psis[1].copy()
    for chain in (psis, [rng.uniform(0.1, 1.0, size=(3, 3)) for _ in range(40)]):
        np.testing.assert_array_equal(chain_end_marginal(chain), sequential_marginal(chain))
    same = rng.uniform(0.1, 1.0, size=(3, 3))
    copies = [same.copy() for _ in range(7)]
    np.testing.assert_array_equal(chain_end_marginal(copies), sequential_marginal(copies))


def test_chain_end_marginal_leaves_its_inputs_alone():
    rng = np.random.default_rng(59)
    w = rng.uniform(0.1, 1.0, size=(3, 3))
    kept = w.copy()
    chain_end_marginal([w] * 13)
    np.testing.assert_array_equal(w, kept)


def test_chain_end_marginal_single_edge():
    psi = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(chain_end_marginal([psi]), psi / 10.0, atol=1e-15)


def test_chain_end_marginal_scale_invariant_on_long_chains():
    # a 200-step chain of weights scaled by 1e-8 would underflow any direct
    # product; the log-carried recursion must not care about the scale
    rng = np.random.default_rng(29)
    w = rng.uniform(0.1, 1.0, size=(3, 3))
    big = chain_end_marginal([w] * 200)
    tiny = chain_end_marginal([1e-8 * w] * 200)
    assert np.isfinite(big).all()
    np.testing.assert_allclose(big, tiny, atol=1e-13)


def test_chain_end_marginal_keeps_small_sectors_relatively_precise():
    # two decoupled 2x2 blocks whose leading eigenvalues differ by a factor 0.5:
    # after 200 steps the small block sits near 1e-60 of the large one, and
    # must still match the matrix power to relative, not absolute, precision
    rng = np.random.default_rng(41)
    big, small = rng.uniform(0.1, 1.0, size=(2, 2, 2))
    w = np.zeros((4, 4))
    w[:2, :2] = big / np.abs(np.linalg.eigvals(big)).max()
    w[2:, 2:] = 0.5 * small / np.abs(np.linalg.eigvals(small)).max()
    got = chain_end_marginal([w] * 200)
    expected = np.linalg.matrix_power(w, 200)
    expected /= np.abs(expected).sum()
    assert 1e-70 < np.abs(got[2:, 2:]).max() < 1e-50
    np.testing.assert_array_equal(got[:2, 2:], 0.0)
    np.testing.assert_allclose(got[2:, 2:], expected[2:, 2:], rtol=1e-12, atol=0)
    np.testing.assert_allclose(got[:2, :2], expected[:2, :2], rtol=1e-12, atol=0)


def test_chain_end_marginal_rectangular_matches_brute():
    # cardinalities 2, 3, 4, 5: every block product changes shape
    rng = np.random.default_rng(31)
    cards = [2, 3, 4, 5]
    psis = [rng.uniform(-1.0, 2.0, size=(cards[k], cards[k + 1])) for k in range(3)]
    chain = FactorChain(cards, [(k, k + 1, psis[k]) for k in range(3)])
    got = chain_end_marginal(psis)
    assert got.shape == (2, 5)
    expected = brute_marginal(chain, [0, 3])
    np.testing.assert_allclose(got, expected / np.abs(expected).sum(), atol=1e-13)


@pytest.mark.parametrize("where", ["last potential", "annihilated inside"])
def test_chain_end_marginal_zero_weight_far_end_state(where):
    rng = np.random.default_rng(37)
    psis = [rng.uniform(0.1, 2.0, size=(3, 3)) for _ in range(3)]
    if where == "last potential":
        psis[-1][:, 1] = 0.0
    else:
        # column 1 of the last potential is nonzero, but the one before maps it to 0
        psis[-1][:, 1] = [1.0, -1.0, 0.0]
        psis[-2][:, :2] = 1.0
    chain = FactorChain([3] * 4, [(k, k + 1, psis[k]) for k in range(3)])
    got = chain_end_marginal(psis)
    assert np.isfinite(got).all()
    np.testing.assert_array_equal(got[:, 1], 0.0)
    expected = brute_marginal(chain, [0, 3])
    np.testing.assert_allclose(got, expected / np.abs(expected).sum(), atol=1e-13)


def test_chain_end_marginal_validates_shapes():
    with pytest.raises(ValueError):
        chain_end_marginal([])
    with pytest.raises(ValueError):
        chain_end_marginal([np.ones((2, 3)), np.ones((2, 3))])
