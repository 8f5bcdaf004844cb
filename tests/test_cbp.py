"""Classical sum-product: tree exactness against a pure-Python enumerator."""

import itertools

import numpy as np
import pytest

from conftest import complex_rotated
from spinbp import cbp, linalg, trotter
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
from spinbp.spinchain import heisenberg_chain, xxz_chain


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
    messages = run_bp(chain)
    np.testing.assert_allclose(messages[(0, 1)], [0.5, 0.5], atol=1e-15)


def test_flat_potentials_give_uniform_messages():
    chain = FactorChain([2, 2, 2], [(0, 1, np.ones((2, 2))), (1, 2, np.ones((2, 2)))])
    messages = run_bp(chain)
    assert len(messages) == 4  # both directions on both edges
    for vec in messages.values():
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
    messages = run_bp(chain)
    assert len(messages) == 2 * 7
    for vec in messages.values():
        assert abs(np.abs(vec).sum() - 1.0) < 1e-12


# --- structure validation ------------------------------------------------------


def test_cycle_is_rejected():
    psis = [np.ones((2, 2))] * 3
    with pytest.raises(NotATreeError):
        FactorChain([2, 2, 2], [(0, 1, psis[0]), (1, 2, psis[1]), (2, 0, psis[2])])


def test_disconnected_is_rejected():
    with pytest.raises(NotATreeError):
        FactorChain([2, 2, 2, 2], [(0, 1, np.ones((2, 2))), (2, 3, np.ones((2, 2)))])
    # n - 1 edges, but a cycle among three leaves the fourth variable apart
    with pytest.raises(NotATreeError, match="disconnected"):
        FactorChain([2, 2, 2, 2], [(0, 1, np.ones((2, 2))), (1, 2, np.ones((2, 2))),
                                   (2, 0, np.ones((2, 2)))])


@pytest.mark.parametrize("cards, edges, phis, message", [
    ([2, 0], [(0, 1, np.ones((2, 0)))], None, r"cardinalities must be positive, got \(2, 0\)"),
    ([], [], None, r"cardinalities must be positive, got \(\)"),
    ([2, 2], [(0, 0, np.ones((2, 2)))], None, r"edge \(0, 0\) is invalid for 2 variables"),
    ([2, 2], [(0, 2, np.ones((2, 2)))], None, r"edge \(0, 2\) is invalid for 2 variables"),
    ([2, 3], [(0, 1, np.ones((3, 2)))], None,
     r"edge \(0, 1\) potential has shape \(3, 2\), expected \(2, 3\)"),
    ([2, 2], [(0, 1, [[1.0, np.inf], [1.0, 1.0]])], None,
     r"edge \(0, 1\) potential has non-finite entries"),
    ([2, 2], [(0, 1, np.ones((2, 2)))], [np.ones(2)], "expected 2 local potentials, got 1"),
    ([2, 2], [(0, 1, np.ones((2, 2)))], [np.ones(2), np.ones(3)],
     r"local potential 1 has shape \(3,\)"),
    ([2, 2], [(0, 1, np.ones((2, 2)))], [[np.nan, 1.0], np.ones(2)],
     "local potential 0 has non-finite entries"),
], ids=["zero-card", "no-cards", "self-edge", "edge-out-of-range", "edge-shape",
        "edge-non-finite", "phi-count", "phi-shape", "phi-non-finite"])
def test_factor_chain_checks_its_cards_and_potentials(cards, edges, phis, message):
    with pytest.raises(ValueError, match=message):
        FactorChain(cards, edges, phis)


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


def test_chain_end_marginal_is_the_matrix_product():
    rng = np.random.default_rng(23)
    w = rng.uniform(-1.0, 1.0, size=(4, 4))
    got = chain_end_marginal([w] * 6)
    expected = np.linalg.matrix_power(w, 6)
    expected /= np.abs(expected).sum()
    np.testing.assert_allclose(got, expected, atol=1e-12)


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
    assert powered == [shapes] * 64  # n = 1 is powered too


def rescaled(arrays: list) -> list:
    """Divide every array in place by the largest absolute entry over all of
    them, unless that is zero: the per-stack rescale of the oracle below."""
    scale = max(np.abs(a).max() for a in arrays)
    if scale > 0.0:
        for a in arrays:
            a /= scale
    return arrays


def power_per_stack(stacks: list, count: int) -> list:
    """Each stack to the power ``count`` >= 1, stack by stack: the power is squared
    at each bit of count and multiplies the result where the bit is set, and before
    each product its operand is rescaled over all stacks, in place.  The oracle of
    cbp._power, which carries the stacks in one flat buffer."""
    result = None
    while True:
        if count & 1:
            result = ([p.copy() for p in stacks] if result is None
                      else [p @ r for p, r in zip(stacks, rescaled(result))])
        count >>= 1
        if not count:
            return result
        stacks = [p @ p for p in rescaled(stacks)]


def laid_out(stacks):
    """Copies of ``stacks`` as by_blocks hands them over: views of one flat buffer."""
    return linalg._split(np.concatenate(stacks, axis=None), stacks)


def handed_stacks(matrix):
    """The stacks linalg.by_blocks hands over for ``matrix``, copied."""
    seen = []
    linalg.by_blocks(matrix, lambda stacks: seen.extend(s.copy() for s in stacks) or stacks)
    return seen


def power_inputs():
    """The N=8 Trotter W's sectors (Heisenberg, XXZ(0.5)+h(0.3), a complex chain),
    random sector-diagonal stacks, and one 1e-8-scaled block of a long chain."""
    couplings = np.random.default_rng(1).uniform(0.9, 1.1, 7)
    models = [heisenberg_chain(8, 2.0, couplings),
              xxz_chain(8, 2.0, couplings, delta=0.5, field=0.3),
              complex_rotated(xxz_chain(8, 2.0, couplings, delta=0.5, field=0.3), 0.0)[0]]
    for model in models:
        yield handed_stacks(trotter.build_weights(trotter.trotter_plan(model, 20)).matrix)
    rng = np.random.default_rng(89)
    yield handed_stacks(sector_diagonal(rng, 8)[0])
    yield [1e-8 * rng.uniform(0.1, 1.0, size=(1, 3, 3))]


def test_power_has_the_bits_of_the_per_stack_oracle_over_their_absolute_sum():
    # the per-product scale and the matmuls are the oracle's, so only the
    # normalizing sum is new, and it runs over the stacks in order
    inputs = list(power_inputs())
    assert [len(s) for s in inputs] == [5, 5, 5, 5, 1]
    assert inputs[2][0].dtype == np.complex128
    for stacks in inputs:
        for n in [*range(1, 65), 100, 200]:
            oracle = np.concatenate(power_per_stack([s.copy() for s in stacks], n), axis=None)
            got = cbp._power(laid_out(stacks), n)
            assert [g.shape for g in got] == [s.shape for s in stacks]
            assert np.array_equal(np.concatenate(got, axis=None), oracle / np.abs(oracle).sum())


def test_power_makes_floor_log2_plus_popcount_less_one_products(monkeypatch):
    # one matmul per sector size for each squaring and each product: count
    # those of the widest sector of an N=8 W
    stacks = handed_stacks(sector_diagonal(np.random.default_rng(97), 8)[0])
    shapes, matmul = [], np.matmul

    def counting(a, b, out):
        shapes.append(out.shape)
        return matmul(a, b, out=out)

    monkeypatch.setattr(cbp.np, "matmul", counting)
    for n, products in [(1, 0), (2, 1), (3, 2), (20, 5), (64, 6), (100, 8), (200, 9)]:
        shapes.clear()
        cbp._power(laid_out(stacks), n)
        assert n.bit_length() - 1 + bin(n).count("1") - 1 == products
        assert shapes.count((1, 70, 70)) == products
        assert len(shapes) == 5 * products


def test_power_of_one_normalizes_the_stacks_it_was_handed():
    for stacks in power_inputs():
        handed = laid_out(stacks)
        before = np.concatenate(handed, axis=None)
        got = cbp._power(handed, 1)
        assert len(got) == len(handed)
        for g, h in zip(got, handed):
            assert np.shares_memory(g, h) and g.shape == h.shape
        assert np.array_equal(np.concatenate(handed, axis=None), before / np.abs(before).sum())


def test_chain_end_marginal_never_writes_a_potential(power_path):
    # the result is normalized in place, so it must be a fresh array for a
    # single potential and for every power, whole or by blocks
    rng = np.random.default_rng(83)
    w, _ = sector_diagonal(rng, 3)
    a = rng.uniform(-1.0, 1.0, size=(8, 8))
    for potentials in ([a], [w], [w] * 2, [w] * 7):
        before = [p.copy() for p in potentials]
        got = chain_end_marginal(potentials)
        for p, q in zip(potentials, before):
            assert p.tobytes() == q.tobytes()
            assert not np.shares_memory(got, p)


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


@pytest.mark.parametrize("where", ["last potential", "annihilated inside"])
def test_chain_end_marginal_zero_weight_far_end_state(where):
    rng = np.random.default_rng(37)
    w = rng.uniform(0.1, 2.0, size=(3, 3))
    if where == "last potential":
        w[:, 1] = 0.0  # a zero column of W, so of the last potential
    else:
        # column 1 of W is nonzero, but W^2 annihilates it: W v = 0 for v = W[:, 1]
        w[:, :2] = [[1.0, 1.0], [-1.0, -1.0], [0.0, 0.0]]
    got = chain_end_marginal([w] * 3)
    assert np.isfinite(got).all()
    np.testing.assert_array_equal(got[:, 1], 0.0)
    chain = FactorChain([3] * 4, [(k, k + 1, w) for k in range(3)])
    expected = brute_marginal(chain, [0, 3])
    np.testing.assert_allclose(got, expected / np.abs(expected).sum(), atol=1e-13)


def test_chain_end_marginal_validates_shapes():
    for shape in ((2, 3), (4,), (2, 2, 2)):
        with pytest.raises(ValueError, match="square matrix"):
            chain_end_marginal([np.ones(shape)] * 2)


def test_chain_end_marginal_takes_only_one_repeated_potential():
    # the chain is one matrix power: equal values in distinct objects, or any
    # second object, are not that chain
    rng = np.random.default_rng(89)
    a, b = rng.uniform(0.1, 1.0, size=(2, 3, 3))
    for potentials in ([], [a, b], [a, a, b], [b, a, a], [a, a.copy()], [a, list(a)]):
        with pytest.raises(ValueError, match="one potential object repeated"):
            chain_end_marginal(potentials)
