"""Heisenberg and XXZ spin-chain models and the exact Gibbs-state reference.

Sites are numbered 0..n_sites-1.  A model is an open chain with one
Hermitian 4x4 coupling term per nearest-neighbour bond, held as one
read-only (N-1, 4, 4) array that both approximate engines read as it is;
bond k couples sites (k, k+1) with the left site in the first tensor slot.  The exchange
term uses the Pauli-matrix convention (not spin-1/2 operators), coupling
strength 1 unless a per-bond coupling is given; any other convention only
rescales the inverse temperature.  The exact state is diagonalized in H's
total-Sz sector blocks, filled straight from the bond terms: H is never dense.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)


def xxz_term(delta: float) -> np.ndarray:
    """Two-site XXZ exchange sx.sx + sy.sy + delta sz.sz (4x4, real symmetric, float64)."""
    return (
        linalg.kron(SIGMA_X, SIGMA_X)
        + linalg.kron(SIGMA_Y, SIGMA_Y)
        + float(delta) * linalg.kron(SIGMA_Z, SIGMA_Z)
    ).real.copy()


def heisenberg_term() -> np.ndarray:
    """Two-site exchange term sx.sx + sy.sy + sz.sz (4x4, real symmetric)."""
    return xxz_term(1.0)


@dataclass(frozen=True, eq=False)
class SpinChainModel:
    """Open qubit chain with nearest-neighbour bond terms and a temperature.

    ``terms`` is one read-only (N-1, 4, 4) array, ``terms[k]`` the Hermitian
    operator on sites (k, k+1): a fresh copy of the given 4x4 terms (or stack),
    checked in one stacked call, float64 when no term has an imaginary part,
    else complex128.  ``beta`` is the inverse temperature of exp(-beta H) / Z.
    Models compare and hash by identity, as they hold an array.
    """

    n_sites: int
    terms: np.ndarray
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "n_sites", linalg.require_int(self.n_sites, "n_sites"))
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be positive, got {self.n_sites}")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")
        if len(self.terms) != self.n_sites - 1:
            raise ValueError(f"expected {self.n_sites - 1} bond terms for {self.n_sites} "
                             f"sites, got {len(self.terms)}")
        try:  # a fresh copy; terms of unequal shapes do not stack
            terms = np.array(self.terms) if len(self.terms) else np.zeros((0, 4, 4))
        except ValueError:
            terms = np.zeros(0)
        if terms.shape[1:] != (4, 4):
            k = next(k for k, t in enumerate(self.terms) if np.shape(t) != (4, 4))
            raise ValueError(f"bond term {k} must be 4x4, got {np.shape(self.terms[k])}")
        finite = np.isfinite(terms).all(axis=(1, 2))
        if not finite.all():  # require_hermitian rejects these too, but this names the bond
            raise ValueError(f"bond term {int(np.argmin(finite))} has non-finite entries")
        terms = linalg.require_hermitian(terms)
        if np.iscomplexobj(terms) and not terms.imag.any():  # real symmetric: real arithmetic
            terms = terms.real.copy()
        terms.flags.writeable = False
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "beta", float(self.beta))


def xxz_chain(
    n_sites: int,
    beta: float,
    couplings: Sequence[float] | None = None,
    delta: float = 1.0,
    field: float = 0.0,
) -> SpinChainModel:
    """XXZ chain in a longitudinal field; optional per-bond couplings J_k (default 1).

    Bond k is J_k (sx.sx + sy.sy + delta sz.sz) + (field/2) (sz.1 + 1.sz):
    the field term is split evenly over the two sites of each bond and is
    not scaled by J_k.  Delta 1 and field 0 give the Heisenberg chain.
    """
    if linalg.require_int(n_sites, "n_sites") < 1:  # before the couplings are sized
        raise ValueError(f"n_sites must be positive, got {n_sites}")
    for name, value in (("delta", delta), ("field", field)):
        # checked before any product, where inf * 0 would warn
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    couplings = np.ones(n_sites - 1) if couplings is None else np.asarray(couplings, np.float64)
    if len(couplings) != n_sites - 1:
        raise ValueError(f"expected {n_sites - 1} couplings for {n_sites} sites, "
                         f"got {len(couplings)}")
    finite = np.isfinite(couplings)
    if not finite.all():  # checked before the product, where inf * 0 would warn
        k = int(np.argmin(finite))
        raise ValueError(f"bond {k}: coupling must be finite, got {couplings[k]}")
    terms = couplings[:, None, None] * xxz_term(delta)
    if field:  # adding a zero field would flip the sign of zeros under negative J_k
        terms += (float(field) / 2) * np.diag([2.0, 0.0, 0.0, -2.0])  # sz.1 + 1.sz
    return SpinChainModel(n_sites, terms, beta)


def heisenberg_chain(
    n_sites: int, beta: float, couplings: Sequence[float] | None = None
) -> SpinChainModel:
    """Isotropic Heisenberg chain; optional per-bond couplings J_k (default 1)."""
    return xxz_chain(n_sites, beta, couplings)


# The entries of a two-site term between pair states of unequal up-spin counts
# (0, 1, 1, 2): a nonzero one there breaks total Sz, and H keeps no sectors.
_CROSS = np.array([0, 1, 1, 2])[:, None] != np.array([0, 1, 1, 2])


@functools.cache
def _bond_index(n_sites: int, split: bool) -> tuple[np.ndarray, ...]:
    """Positions in the flat buffer of H's blocks, held read-only per width and layout.

    The buffer is H itself, or when ``split`` the stacks of ``linalg._sector_index``
    one after another.  Returns the entries of a 4x4 term that each bond adds (the
    6 that keep the up-spin count when ``split``, else all 16), the positions of
    H's diagonal in basis order, and one (2^(N-2), entries) array per bond.
    """
    dim, offset = 2**n_sites, 0
    row = np.arange(dim)
    start = row * dim  # where a state's row begins in the buffer
    for index in linalg._sector_index(n_sites) if split else ():
        states = index.diagonal(axis1=1, axis2=2) // (dim + 1)
        start[states] = np.arange(offset, offset + index.size, len(states[0])).reshape(states.shape)
        row[states] = np.arange(len(states[0]))
        offset += index.size
    entries = np.flatnonzero(~_CROSS if split else np.ones(16))
    tables = [entries, start + row]
    for k in range(n_sites - 1):  # a state is (left sites, bond k's pair, right sites)
        right = 2 ** (n_sites - k - 2)
        outside = (np.arange(2**k)[:, None] * 4 * right + np.arange(right)).reshape(-1, 1)
        tables.append(start[outside + entries // 4 * right] + row[outside + entries % 4 * right])
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


def exact_gibbs(model: SpinChainModel) -> np.ndarray:
    """exp(-beta H) / tr exp(-beta H) from H's blocks, added up bond by bond at the
    positions ``_bond_index`` holds: the N+1 total-Sz sectors (one ``herm_eig`` call
    per size) from ``linalg.BLOCK_MIN_DIM`` states on when no term mixes up-spin
    counts, else H whole.  All spectra share one shift, their global minimum, so no
    beta overflows; the blocks are divided by their diagonal summed in basis order
    (``np.trace``'s bits) and scattered into the dense state."""
    n, dim, terms = model.n_sites, 2**model.n_sites, model.terms
    split = dim >= linalg.BLOCK_MIN_DIM and not terms[:, _CROSS].any()
    index = linalg._sector_index(n) if split else ()
    entries, diagonal, *bonds = _bond_index(n, split)
    buf = np.zeros(sum(i.size for i in index) or dim * dim, terms.dtype)
    for at, term in zip(bonds, terms):
        buf[at] += term.ravel()[entries]
    # the state is allocated before the eigensolves: after them, warm calls fault it in
    rho = np.zeros((dim, dim), buf.dtype) if split else buf.reshape(dim, dim)
    stacks = linalg._split(buf, index) or [rho[None]]
    eigs = [linalg.herm_eig(s) for s in stacks]
    lowest = min(w.min() for w, _ in eigs)
    for s, (w, v) in zip(stacks, eigs):
        s[...] = linalg.spectral(v, np.exp(-model.beta * (w - lowest)))
    buf /= buf[diagonal].sum().real
    if split:
        rho.ravel()[index[0].base] = buf
    return rho


def parse_key_values(text: str) -> dict[str, str]:
    """Parse ``key=value`` lines; blank lines and '#' comments are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key in {raw!r}")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _couplings_from_keys(keys: dict[str, str], sites: int) -> list[float]:
    """Per-bond couplings from ``J_<i>`` keys, 1-based bond index, default 1.

    Each bond has one spelling: ``J_01``, ``J_+1`` or ``J_ 1`` is rejected."""
    if sites < 1:  # before the couplings are sized, as in xxz_chain
        raise ValueError(f"n_sites must be positive, got {sites}")
    couplings = [1.0] * (sites - 1)
    for key, value in keys.items():
        if not key.startswith("J_"):
            continue
        try:
            bond = int(key[2:])
        except ValueError:
            raise ValueError(f"field {key!r}: bond index is not an integer") from None
        if key != f"J_{bond}":
            raise ValueError(f"field {key!r}: bond {bond} must be spelled J_{bond}")
        if not 1 <= bond <= sites - 1:
            why = (f"bond index out of range 1..{sites - 1}" if sites > 1
                   else "a 1-site chain has no bonds")
            raise ValueError(f"field {key!r}: {why}")
        try:
            coupling = float(value)
        except ValueError:
            raise ValueError(f"field {key!r}: not a number: {value!r}") from None
        if not np.isfinite(coupling):
            raise ValueError(f"field {key!r}: coupling must be finite, got {value!r}")
        couplings[bond - 1] = coupling
    return couplings


# The keys each model reads, besides the per-bond couplings J_<i>.
MODEL_KEYS = {"heisenberg": ("model", "sites", "beta"),
              "xxz": ("model", "sites", "beta", "delta", "field")}


def model_from_keys(keys: dict[str, str]) -> SpinChainModel:
    """Build a model from the plain-text description format.

    Keys, and no others: ``model=heisenberg`` (the default) or ``model=xxz``,
    ``sites=<int>``, ``beta=<float>`` (default 1), optional per-bond couplings
    ``J_<i>=<float>`` where i is the 1-based bond index (bond i couples sites i
    and i+1 in 1-based labels), and for ``xxz`` only ``delta=<float>`` (default
    1) and ``field=<float>`` (default 0), the parameters of ``xxz_chain``.
    """
    kind = keys.get("model", "heisenberg")
    named = MODEL_KEYS.get(kind)
    if named is None:
        raise ValueError(f"unsupported model {kind!r}; choose from {list(MODEL_KEYS)}")
    for key in keys:
        if key not in named and not key.startswith("J_"):
            raise ValueError(f"unknown key {key!r}; {kind} keys are {', '.join(named)}, J_<i>")
    try:
        sites = int(keys["sites"])
    except KeyError:
        raise ValueError("model description is missing the 'sites' key") from None
    except ValueError:
        raise ValueError(f"field 'sites': not an integer: {keys['sites']!r}") from None
    numbers = {}
    for key, default in (("beta", "1.0"), ("delta", "1.0"), ("field", "0.0")):
        try:
            numbers[key] = float(keys.get(key, default))
        except ValueError:
            raise ValueError(f"field {key!r}: not a number: {keys[key]!r}") from None
    return xxz_chain(sites, couplings=_couplings_from_keys(keys, sites), **numbers)
