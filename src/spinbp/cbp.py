"""Sum-product belief propagation on trees, and the end marginal of a chain.

Potentials may carry negative entries: on a tree the message recursion is
still an exact contraction, so the normalized "beliefs" are then signed
quasi-marginals rather than probabilities.  Every message is rescaled to
unit absolute sum when it is produced, so arbitrarily long chains neither
underflow nor overflow; the beliefs are normalized, so the scales are not
kept.  ``chain_end_marginal`` serves the Suzuki-Trotter chain, n copies of
one potential: one matrix power, carried in one flat buffer of its sectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg

# Brute-force marginalization refuses joints larger than this.
MAX_BRUTE_STATES = 2**24


class NotATreeError(ValueError):
    """The edge set is not a tree (wrong count, cycle, or disconnected)."""


class StateSpaceTooLargeError(ValueError):
    """The joint distribution is too large to enumerate."""


class NotAnEdgeError(ValueError):
    """The requested variable pair is not an edge of the model."""


@dataclass(eq=False)
class FactorChain:
    """Tree-structured pairwise model over discrete variables.

    ``cards[i]`` is the number of states of variable i; ``edges`` holds
    triples (i, j, psi) with psi of shape (cards[i], cards[j]); ``phis``
    are per-variable local potentials (default: all ones).
    """

    cards: Sequence[int]
    edges: Sequence[tuple]
    phis: Sequence[np.ndarray] | None = None

    def __post_init__(self):
        self.cards = tuple(linalg.require_int(c, f"cards[{k}]") for k, c in enumerate(self.cards))
        if not self.cards or any(c < 1 for c in self.cards):
            raise ValueError(f"cardinalities must be positive, got {self.cards}")
        n = len(self.cards)

        edges = []
        for i, j, psi in self.edges:
            i, j = linalg.require_int(i, "edge end"), linalg.require_int(j, "edge end")
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"edge ({i}, {j}) is invalid for {n} variables")
            mat = np.asarray(psi, dtype=float)
            if mat.shape != (self.cards[i], self.cards[j]):
                raise ValueError(
                    f"edge ({i}, {j}) potential has shape {mat.shape}, "
                    f"expected {(self.cards[i], self.cards[j])}"
                )
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"edge ({i}, {j}) potential has non-finite entries")
            edges.append((i, j, mat))
        self.edges = tuple(edges)

        if self.phis is None:
            phis = [np.ones(c) for c in self.cards]
        else:
            phis = [np.asarray(p, dtype=float) for p in self.phis]
        if len(phis) != n:
            raise ValueError(f"expected {n} local potentials, got {len(phis)}")
        for i, p in enumerate(phis):
            if p.shape != (self.cards[i],):
                raise ValueError(f"local potential {i} has shape {p.shape}")
            if not np.all(np.isfinite(p)):
                raise ValueError(f"local potential {i} has non-finite entries")
        self.phis = tuple(phis)

        self._adjacency: dict[int, list[int]] = {i: [] for i in range(n)}
        self._psi: dict[tuple[int, int], np.ndarray] = {}  # both orientations, axes (x_i, x_j)
        for i, j, psi in self.edges:
            if (i, j) in self._psi:
                raise NotATreeError(f"duplicate edge between {i} and {j}")
            self._psi[(i, j)], self._psi[(j, i)] = psi, psi.T
            self._adjacency[i].append(j)
            self._adjacency[j].append(i)
        if len(self.edges) != n - 1:
            raise NotATreeError(
                f"a tree on {n} variables needs {n - 1} edges, got {len(self.edges)}"
            )
        # breadth-first walk from variable 0; keeps the visit order and parents
        self._order = [0]
        self._parent: dict[int, int | None] = {0: None}
        for v in self._order:
            for u in self._adjacency[v]:
                if u not in self._parent:
                    self._parent[u] = v
                    self._order.append(u)
        if len(self._order) != n:
            raise NotATreeError("edge set is disconnected")


def brute_marginal(chain: FactorChain, targets) -> np.ndarray:
    """Exact marginal of ``targets`` by summing the materialized joint.

    Output axes follow the order of ``targets``.  Normalized by the signed
    total, so for nonnegative potentials the result sums to 1.
    """
    targets = tuple(linalg.require_int(t, f"targets[{k}]") for k, t in enumerate(targets))
    if not targets:
        raise ValueError("targets must be nonempty")
    if len(set(targets)) != len(targets):
        raise ValueError(f"targets {targets} contain duplicates")
    n = len(chain.cards)
    if any(t < 0 or t >= n for t in targets):
        raise ValueError(f"targets {targets} out of range for {n} variables")
    size = int(np.prod(chain.cards))
    if size > MAX_BRUTE_STATES:
        raise StateSpaceTooLargeError(
            f"joint has {size} states, refusing beyond {MAX_BRUTE_STATES}"
        )

    joint = np.ones(chain.cards)
    for i, phi in enumerate(chain.phis):
        shape = [1] * n
        shape[i] = chain.cards[i]
        joint = joint * phi.reshape(shape)
    for i, j, psi in chain.edges:
        shape = [1] * n
        shape[i] = chain.cards[i]
        shape[j] = chain.cards[j]
        joint = joint * psi.reshape(shape)

    total = joint.sum()
    drop = tuple(k for k in range(n) if k not in targets)
    marg = joint.sum(axis=drop) if drop else joint
    # remaining axes are in ascending variable order; match the given order
    ascending = sorted(targets)
    perm = [ascending.index(t) for t in targets]
    return marg.transpose(perm) / total


def _incoming(chain: FactorChain, messages: dict, i: int, skip: int | None) -> np.ndarray:
    """phi_i times every message into i except the one from ``skip``."""
    prod = chain.phis[i].copy()
    for k in chain._adjacency[i]:
        if k != skip:
            prod = prod * messages[(k, i)]
    return prod


def _send(chain: FactorChain, messages: dict, src: int, dst: int) -> None:
    vec = chain._psi[(dst, src)] @ _incoming(chain, messages, src, dst)
    scale = float(np.abs(vec).sum())
    messages[(src, dst)] = vec / scale if scale > 0.0 else vec


def run_bp(chain: FactorChain) -> dict:
    """Two-pass sum-product: leaves to variable 0, then variable 0 back to leaves.

    Returns the directed messages, (src, dst) -> vector over the states of
    dst, each of unit absolute sum (or zero).  On a tree two passes converge
    exactly; no iteration or damping needed.
    """
    order, parent = chain._order, chain._parent
    messages = {}
    for v in reversed(order):
        if parent[v] is not None:
            _send(chain, messages, v, parent[v])
    for v in order:
        for u in chain._adjacency[v]:
            if parent[u] == v:
                _send(chain, messages, v, u)
    return messages


def belief_single(chain: FactorChain, messages: dict, i: int) -> np.ndarray:
    """b_i proportional to phi_i times all incoming messages, unit sum."""
    b = _incoming(chain, messages, i, None)
    return b / b.sum()


def belief_pair(chain: FactorChain, messages: dict, i: int, j: int) -> np.ndarray:
    """Pairwise belief on edge (i, j), axes ordered (x_i, x_j), unit sum.

    Product of the pair potential, both locals, and the messages flowing
    into i from everywhere but j and into j from everywhere but i.
    """
    if (i, j) not in chain._psi:
        raise NotAnEdgeError(f"({i}, {j}) is not an edge")
    left = _incoming(chain, messages, i, j)
    right = _incoming(chain, messages, j, i)
    b = chain._psi[(i, j)] * np.outer(left, right)
    return b / b.sum()


def _power(stacks: list, count: int) -> list:
    """The stacks ``linalg.by_blocks`` hands over, views of one flat buffer, each
    to the power ``count`` >= 1, then divided by their absolute sum into them.
    The power is squared at each bit of count and multiplies the result where the
    bit is set, one ``np.matmul`` per stack into a spare buffer.  Before each
    product the right operand is divided in place by its largest |entry| (unless
    zero); the |entries| here and for the sum go into a spare's real part."""
    spare, power, result = [], stacks, None

    def times(a, b):  # a @ (b rescaled in place), into a spare buffer; b's is spare after
        out = spare.pop() if spare else linalg._split(np.empty_like(b[0].base), b)
        flat = b[0].base
        top = np.maximum.reduce(np.abs(flat, out[0].base.real))
        if top > 0.0:
            flat /= top
        for x, y, z in zip(a, b, out):
            np.matmul(x, y, z)
        spare.append(b)
        return out

    while True:
        if count & 1:
            result = power if result is None else times(power, result)
        count >>= 1
        if not count:
            flat, into = result[0].base, spare[-1][0].base.real if spare else None
            np.divide(flat, np.add.reduce(np.abs(flat, into)), stacks[0].base)
            return stacks
        if power is result:  # the result keeps this buffer: square a copy
            power = linalg._split(power[0].base.copy(), stacks)
        power = times(power, power)


def chain_end_marginal(potentials: Sequence[np.ndarray]) -> np.ndarray:
    """Joint quasi-marginal of the two end variables of an open chain of n
    identical pairwise potentials: the n-th power of the one matrix W.

    ``potentials`` is one square potential object repeated n >= 1 times, as
    ``[W] * n``; any other list raises ``ValueError``.  W is read by
    ``linalg.as_matrix``, so W^n is float64 or complex128 as W is.  W^n is
    powered within the total-Sz sectors of its 2^N states when they hold
    every nonzero entry (``linalg.by_blocks``): floor(log2 n) squarings and
    popcount(n) - 1 products, each operand first divided by its largest
    absolute entry over all sectors (unless that is zero), so long chains stay
    in range.  The returned matrix (axes: first variable, last variable) is
    fresh, with unit absolute sum, normalized on the sectors before the scatter.
    """
    n = len(potentials)
    if not n or any(p is not potentials[0] for p in potentials):
        raise ValueError("need one potential object repeated n >= 1 times")
    return linalg.by_blocks(linalg.as_matrix(potentials[0]), lambda stacks: _power(stacks, n))
