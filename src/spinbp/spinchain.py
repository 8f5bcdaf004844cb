"""Heisenberg and XXZ spin-chain models and the exact Gibbs-state reference.

Sites are numbered 0..n_sites-1.  A model is an open chain with one
Hermitian 4x4 coupling term per nearest-neighbour bond, held as one
read-only (N-1, 4, 4) array that both approximate engines read as it is;
bond k couples sites (k, k+1) with the left site in the first tensor slot.  The exchange
term uses the Pauli-matrix convention (not spin-1/2 operators), coupling
strength 1 unless a per-bond coupling is given; any other convention only
rescales the inverse temperature.
"""

from __future__ import annotations

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


def total_hamiltonian(model: SpinChainModel) -> np.ndarray:
    """H = sum_k I^(k) kron h_k kron I^(N-k-2), bit for bit.

    Bond k's term is added, in bond order, into the entries where
    I kron h_k kron I can be nonzero: viewing H's row and column indices as
    (left sites, pair k, right sites), those with equal left and equal right
    sites, a strided view of H.  H has the terms' dtype.
    """
    n = model.n_sites
    h = np.zeros((2**n, 2**n), dtype=model.terms.dtype)
    for k, term in enumerate(model.terms):
        left, right = 2**k, 2 ** (n - k - 2)
        diagonal = np.einsum("aibajb->abij", h.reshape(left, 4, right, left, 4, right))
        diagonal += term
    return h


def exact_gibbs(model: SpinChainModel) -> np.ndarray:
    """exp(-beta H) / tr exp(-beta H), diagonalized by sectors (``linalg.by_blocks``).

    A chain whose bond terms commute with sz.1 + 1.sz is diagonalized in its
    N+1 total-Sz sectors, the widest C(N, N/2) states; any other H is one
    block.  Every spectrum is shifted by the global minimum so large beta
    cannot overflow; the shift cancels in the normalization.  The sector
    blocks of one state must share that one scale, so the per-matrix shift of
    ``linalg.shifted_exp`` does not serve here.  A real model's state is
    float64, computed in real arithmetic.
    """
    def gibbs(stacks):
        eigs = [linalg.herm_eig(s) for s in stacks]
        lowest = min(w.min() for w, _ in eigs)
        return [linalg.spectral(v, np.exp(-model.beta * (w - lowest))) for w, v in eigs]

    rho = linalg.by_blocks(total_hamiltonian(model), gibbs)
    rho /= np.trace(rho).real
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
