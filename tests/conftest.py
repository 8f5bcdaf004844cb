"""Fixtures shared by the test modules."""

from collections import Counter

import numpy as np
import pytest

from spinbp import cbp, linalg
from spinbp.spinchain import SpinChainModel


@pytest.fixture
def eig_calls(monkeypatch):
    """(shape, dtype) of each matrix or stack passed to linalg.herm_eig, in call order."""
    calls, herm_eig = [], linalg.herm_eig

    def recording(a):
        calls.append((np.shape(a), np.asarray(a).dtype))
        return herm_eig(a)

    monkeypatch.setattr(linalg, "herm_eig", recording)
    return calls


@pytest.fixture
def solve_calls(monkeypatch):
    """Shape of the coefficient matrix or stack of each np.linalg.solve call, in call order."""
    calls, solve = [], np.linalg.solve

    def recording(a, b):
        calls.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    return calls


def total_hamiltonian(model):
    """H = sum_k I^(k) kron h_k kron I^(N-k-2) in the terms' dtype, the dense oracle
    of spinchain.exact_gibbs.

    Bond k's term is added, in bond order, into the entries where
    I kron h_k kron I can be nonzero: viewing H's row and column indices as
    (left sites, pair k, right sites), those with equal left and equal right
    sites, a strided view of H.
    """
    n = model.n_sites
    h = np.zeros((2**n, 2**n), dtype=model.terms.dtype)
    for k, term in enumerate(model.terms):
        left, right = 2**k, 2 ** (n - k - 2)
        diagonal = np.einsum("aibajb->abij", h.reshape(left, 4, right, left, 4, right))
        diagonal += term
    return h


def by_blocks_rebuilt(a, fn):
    """The square matrix ``a`` with ``fn`` applied to its total-Sz sector blocks, listed
    and indexed anew on every call from a loop over the set-bit counts: the oracle of
    the index linalg._sector_index holds.  ``fn`` takes one (k, d, d) stack per sector
    size d, ascending, and returns stacks of the same shapes; ``a`` is one block when
    narrower than linalg.BLOCK_MIN_DIM or when an entry lies between sectors."""
    dim = len(a)
    counts = np.array([bin(i).count("1") for i in range(dim)])
    if dim < linalg.BLOCK_MIN_DIM or np.count_nonzero(a[counts[:, None] != counts[None, :]]):
        return fn([a[None].copy()])[0][0]
    by_size = {}
    for c in range(counts.max() + 1):
        members = np.flatnonzero(counts == c)
        by_size.setdefault(len(members), []).append(members)
    stacks = [np.array(by_size[d]) for d in sorted(by_size)]
    index = [s[:, :, None] * dim + s[:, None, :] for s in stacks]
    out, flat = np.zeros(a.shape, a.dtype), a.ravel()
    for i, stack in zip(index, fn([flat[i] for i in index])):
        out.ravel()[i] = stack
    return out


def dense_exact_gibbs(model):
    """exp(-beta H) / Z through the dense H: by_blocks_rebuilt hands total_hamiltonian's
    total-Sz sectors (or H whole) to herm_eig, every spectrum shifted by the global
    minimum, and the dense state is divided by its np.trace.  spinchain.exact_gibbs
    must give these bits without forming H."""
    def gibbs(stacks):
        eigs = [linalg.herm_eig(s) for s in stacks]
        lowest = min(w.min() for w, _ in eigs)
        return [linalg.spectral(v, np.exp(-model.beta * (w - lowest))) for w, v in eigs]

    rho = by_blocks_rebuilt(total_hamiltonian(model), gibbs)
    rho /= np.trace(rho).real
    return rho


def through_power(matrix, kernel=lambda stacks: None):
    """cbp.chain_end_marginal([matrix]) with ``kernel(stacks)`` run in place of
    cbp._power on the stacks it hands over, views of one flat buffer that the kernel
    may overwrite (by default it leaves them): the matrix it returns and the
    stacks' shapes."""
    shapes = []

    def power(stacks, count):
        shapes.extend(s.shape for s in stacks)
        kernel(stacks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cbp, "_power", power)
        return cbp.chain_end_marginal([matrix]), shapes


def rotated(model, theta):
    """The model with every site turned by the real rotation u = exp(-i theta sigma_y / 2):
    each bond term becomes (u x u) E (u x u)^T.  Returns the model and u."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    u = np.array([[c, -s], [s, c]])
    uu = np.kron(u, u)
    return SpinChainModel(model.n_sites, tuple(uu @ t @ uu.T for t in model.terms), model.beta), u


def sector_shapes(n_sites):
    """The (k, d, d) stacks into which a 2^n_sites matrix that keeps total Sz
    splits: the k sectors of d states, d ascending, counted by a loop over the
    set-bit counts of the basis states."""
    sizes = Counter(Counter(bin(i).count("1") for i in range(2**n_sites)).values())
    return [(k, d, d) for d, k in sorted(sizes.items())]


def herm_func(a, f):
    """V diag(f(w)) V^dag for a Hermitian matrix or stack with spectrum w: the dense
    oracle of the Gibbs and Trotter tests, built on linalg.herm_eig and spectral."""
    w, v = linalg.herm_eig(a)
    return linalg.spectral(v, f(w))


def herm_log(a):
    """log(A) for positive semidefinite A, or for each of a stack, with the spectrum
    raised to at least linalg.POSITIVE_FLOOR."""
    return herm_func(a, lambda w: np.log(np.maximum(w, linalg.POSITIVE_FLOOR)))


def embed_term(term, pair, n_sites):
    """I^(i) kron term kron I^(n-i-2), the 4x4 bond term on sites ``pair`` = (i, i+1)
    embedded into the full 2^n x 2^n chain space."""
    i, j = pair
    if j != i + 1 or i < 0 or j >= n_sites:
        raise ValueError(f"pair {pair} is not a nearest-neighbour bond of {n_sites} sites")
    t = linalg.as_matrix(term)
    if t.shape != (4, 4):
        raise ValueError(f"bond term must be 4x4, got {t.shape}")
    left, right = np.eye(2**i), np.eye(2 ** (n_sites - i - 2))
    return linalg.kron(linalg.kron(left, t), right)


def free_fermion_pairs(couplings, field, beta):
    """The adjacent-pair reduced Gibbs states (sites a, a+1) of the XX chain in a
    field, ``xxz_chain(n, beta, couplings, delta=0, field=field)``, from its
    free-fermion (Jordan-Wigner) solution; basis index 0 = spin up = occupied.

    The one-body matrix M has diagonal 2 h_i, with h_i = field * (bonds at i) / 2
    since each bond splits the field over its two sites, and hoppings 2 J_k.
    C = V f(w) V^T, with the Fermi factor f(w) = 1 / (exp(beta w) + 1), gives
    <c_a^dag c_b>; Wick's theorem gives n_ab = <n_a n_b> = C_aa C_bb - C_ab C_ba.
    """
    couplings = np.asarray(couplings, dtype=float)
    n = len(couplings) + 1
    bonds_at = np.bincount(np.r_[0:n - 1, 1:n], minlength=n)
    m = np.diag(field * bonds_at) + np.diag(2 * couplings, 1) + np.diag(2 * couplings, -1)
    w, v = np.linalg.eigh(m)
    c = (v * (1 - np.tanh(beta * w / 2)) / 2) @ v.T  # tanh form: no overflow at large beta w
    pairs = []
    for a in range(n - 1):
        b = a + 1
        nab = c[a, a] * c[b, b] - c[a, b] * c[b, a]
        rho = np.diag([nab, c[a, a] - nab, c[b, b] - nab, 1 - c[a, a] - c[b, b] + nab])
        rho[1, 2] = rho[2, 1] = c[a, b]
        pairs.append(rho)
    return pairs


def tfim_pairs(couplings, g, beta):
    """The adjacent-pair reduced Gibbs states (sites a, a+1) of the transverse-field
    Ising chain with bonds J_k sx.sx + (g/2)(sz.1 + 1.sz), from its Majorana solution;
    basis index 0 = spin up.

    The Majoranas a_2i = S_i sx_i and a_2i+1 = S_i sy_i, with S_i the sz string left
    of site i, give sz_i = -i a_2i a_2i+1 and sx_i sx_i+1 = -i a_2i+1 a_2i+2, so
    H = (i/4) a^T A a with A real antisymmetric, and <a_p a_q> = [1 + tanh(beta iA/2)]_pq.
    A pair's state is (1/4) sum_S <m_S^dag> m_S over the parity-even products m_S of
    its four Majoranas, written on two sites as sx.1, sy.1, sz.sx, sz.sy; the
    four-fold product follows from Wick's rule.
    """
    couplings = np.asarray(couplings, dtype=float)
    n = len(couplings) + 1
    field = g * np.bincount(np.r_[0:n - 1, 1:n], minlength=n) / 2
    a = np.zeros((2 * n, 2 * n))
    a[2 * np.arange(n), 2 * np.arange(n) + 1] = -2 * field
    a[2 * np.arange(n - 1) + 1, 2 * np.arange(n - 1) + 2] = -2 * couplings
    w, v = np.linalg.eigh(1j * (a - a.T))
    two_point = np.eye(2 * n) + (v * np.tanh(beta * w / 2)) @ v.conj().T
    x, y, z = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])
    m = [np.kron(x, np.eye(2)), np.kron(y, np.eye(2)), np.kron(z, x), np.kron(z, y)]
    pairs = []
    for s in range(0, 2 * n - 2, 2):
        c = two_point[s:s + 4, s:s + 4]
        rho = np.eye(4, dtype=complex)
        for p in range(4):
            for q in range(p + 1, 4):
                rho += c[q, p] * m[p] @ m[q]  # <(m_p m_q)^dag> = <m_q m_p>
        wick = c[0, 1] * c[2, 3] - c[0, 2] * c[1, 3] + c[0, 3] * c[1, 2]
        pairs.append((rho + wick * m[0] @ m[1] @ m[2] @ m[3]) / 4)
    return pairs


def complex_rotated(model, theta=0.4):
    """The model with site i turned by u_i = exp(-i phi_i sigma_z/2) exp(-i theta sigma_y/2),
    phi_i drawn from default_rng(2) in [-pi, pi]: each bond term becomes
    (u_k x u_k+1) E (u_k x u_k+1)^dag, and the XX chain gains a complex
    Dzyaloshinskii-Moriya exchange.  Returns the model and the (N,2,2) stack of u_i."""
    phi = np.random.default_rng(2).uniform(-np.pi, np.pi, model.n_sites)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    u = np.exp(-0.5j * np.outer(phi, [1, -1]))[:, :, None] * np.array([[c, -s], [s, c]])
    uu = [np.kron(u[k], u[k + 1]) for k in range(model.n_sites - 1)]
    return SpinChainModel(model.n_sites, [w @ t @ w.conj().T for w, t in zip(uu, model.terms)],
                          model.beta), u
