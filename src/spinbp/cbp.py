"""Sum-product belief propagation on trees of discrete variables.

Potentials may carry negative entries: on a tree the message recursion is
still an exact contraction, so the normalized "beliefs" are then signed
quasi-marginals rather than probabilities.  Every message is rescaled to
unit absolute sum when it is produced, so arbitrarily long chains neither
underflow nor overflow; the beliefs are normalized, so the scales are not
kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
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
        self.cards = tuple(int(c) for c in self.cards)
        if not self.cards or any(c < 1 for c in self.cards):
            raise ValueError(f"cardinalities must be positive, got {self.cards}")
        n = len(self.cards)

        edges = []
        for i, j, psi in self.edges:
            i, j = int(i), int(j)
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
        self._edge_index: dict[tuple[int, int], int] = {}
        for idx, (i, j, _) in enumerate(self.edges):
            if (i, j) in self._edge_index or (j, i) in self._edge_index:
                raise NotATreeError(f"duplicate edge between {i} and {j}")
            self._edge_index[(i, j)] = idx
            self._adjacency[i].append(j)
            self._adjacency[j].append(i)
        self._check_tree()

    def _check_tree(self):
        """Breadth-first walk from variable 0; keeps the visit order and parents."""
        n = len(self.cards)
        if len(self.edges) != n - 1:
            raise NotATreeError(
                f"a tree on {n} variables needs {n - 1} edges, got {len(self.edges)}"
            )
        self._order = [0]
        self._parent: dict[int, int | None] = {0: None}
        for v in self._order:
            for u in self._adjacency[v]:
                if u not in self._parent:
                    self._parent[u] = v
                    self._order.append(u)
        if len(self._order) != n:
            raise NotATreeError("edge set is disconnected")

    @property
    def n_vars(self) -> int:
        return len(self.cards)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(self._adjacency[i])

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self._edge_index or (j, i) in self._edge_index

    def psi_between(self, i: int, j: int) -> np.ndarray:
        """Pairwise potential oriented so axis 0 indexes x_i and axis 1 x_j."""
        if (i, j) in self._edge_index:
            return self.edges[self._edge_index[(i, j)]][2]
        if (j, i) in self._edge_index:
            return self.edges[self._edge_index[(j, i)]][2].T
        raise NotAnEdgeError(f"({i}, {j}) is not an edge")


@dataclass
class MessageTable:
    """Directed messages (src, dst) -> vector over the states of dst, each of
    unit absolute sum (or zero)."""

    messages: dict = field(default_factory=dict)


def brute_marginal(chain: FactorChain, targets) -> np.ndarray:
    """Exact marginal of ``targets`` by summing the materialized joint.

    Output axes follow the order of ``targets``.  Normalized by the signed
    total, so for nonnegative potentials the result sums to 1.
    """
    targets = tuple(int(t) for t in targets)
    if not targets:
        raise ValueError("targets must be nonempty")
    if len(set(targets)) != len(targets):
        raise ValueError(f"targets {targets} contain duplicates")
    n = chain.n_vars
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


def _incoming(chain: FactorChain, table: MessageTable, i: int, skip: int | None) -> np.ndarray:
    """phi_i times every message into i except the one from ``skip``."""
    prod = chain.phis[i].copy()
    for k in chain.neighbors(i):
        if k != skip:
            prod = prod * table.messages[(k, i)]
    return prod


def _send(chain: FactorChain, table: MessageTable, src: int, dst: int) -> None:
    vec = chain.psi_between(src, dst).T @ _incoming(chain, table, src, dst)
    scale = float(np.abs(vec).sum())
    table.messages[(src, dst)] = vec / scale if scale > 0.0 else vec


def run_bp(chain: FactorChain) -> MessageTable:
    """Two-pass sum-product: leaves to variable 0, then variable 0 back to leaves.

    On a tree two passes converge exactly; no iteration or damping needed.
    """
    order, parent = chain._order, chain._parent
    table = MessageTable()
    for v in reversed(order):
        if parent[v] is not None:
            _send(chain, table, v, parent[v])
    for v in order:
        for u in chain.neighbors(v):
            if parent[u] == v:
                _send(chain, table, v, u)
    return table


def belief_single(chain: FactorChain, table: MessageTable, i: int) -> np.ndarray:
    """b_i proportional to phi_i times all incoming messages, unit sum."""
    b = _incoming(chain, table, i, None)
    return b / b.sum()


def belief_pair(chain: FactorChain, table: MessageTable, i: int, j: int) -> np.ndarray:
    """Pairwise belief on edge (i, j), axes ordered (x_i, x_j), unit sum.

    Product of the pair potential, both locals, and the messages flowing
    into i from everywhere but j and into j from everywhere but i.
    """
    if not chain.has_edge(i, j):
        raise NotAnEdgeError(f"({i}, {j}) is not an edge")
    left = _incoming(chain, table, i, j)
    right = _incoming(chain, table, j, i)
    b = chain.psi_between(i, j) * np.outer(left, right)
    return b / b.sum()


def _rescaled(arrays: list) -> list:
    """Divide every array in place by the largest absolute entry over all of
    them, unless that is zero."""
    scale = max(np.abs(a).max() for a in arrays)
    if scale > 0.0:
        for a in arrays:
            a /= scale
    return arrays


def _power(stacks: list, count: int) -> list:
    """Each stack to the power ``count`` >= 1: the power is squared at each bit
    of count and multiplies the result where the bit is set.  Before each
    product its operand is rescaled over all stacks (``_rescaled``), in place."""
    result = None
    while True:
        if count & 1:
            result = ([p.copy() for p in stacks] if result is None
                      else [p @ r for p, r in zip(stacks, _rescaled(result))])
        count >>= 1
        if not count:
            return result
        stacks = [p @ p for p in _rescaled(stacks)]


def chain_end_marginal(potentials: Sequence[np.ndarray]) -> np.ndarray:
    """Joint quasi-marginal of the two end variables of an open chain.

    ``potentials[k]`` couples chain variable k to k+1 (locals flat).  The
    interior variables are summed out by the message recursion
    block <- psi @ block, starting from the last potential; column b of the
    block is the message for far-end state b.  A run of c > 1 consecutive
    potentials that are the same object contributes psi^c, powered within
    the total-Sz sectors of its 2^N states when they hold every nonzero
    entry (``linalg.by_blocks``): floor(log2 c) squarings and popcount(c) - 1
    products, not c - 1.  Before each product its operand is divided by its
    largest absolute entry (unless that is zero), so long chains stay in
    range.  The returned matrix (axes: first variable, last
    variable) is fresh and normalized to unit absolute sum in place.
    """
    runs = []  # [count, matrix] for each run of one object, in chain order
    for k, p in enumerate(potentials):
        if runs and p is potentials[k - 1]:
            runs[-1][0] += 1
        else:
            m = np.asarray(p, dtype=float)
            if m.ndim != 2:
                raise ValueError(f"potential {k} is not a matrix")
            runs.append([1, m])
        if k and before.shape[1] != m.shape[0]:
            raise ValueError(
                f"potential {k - 1} has {before.shape[1]} columns but potential {k} "
                f"has {m.shape[0]} rows"
            )
        before = m
    if not runs:
        raise ValueError("need at least one potential")

    block = None
    for count, psi in reversed(runs):  # last run first
        if count > 1:
            psi = linalg.by_blocks(psi, lambda stacks: _power(stacks, count))
        elif block is None:
            psi = psi.copy()  # the block is rescaled in place
        block = psi if block is None else psi @ _rescaled([block])[0]
    return np.divide(block, np.abs(block).sum(), out=block)
