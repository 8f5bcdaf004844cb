"""Heisenberg and XXZ spin-chain models and the exact Gibbs-state reference.

Sites are numbered 0..n_sites-1.  A model is an open chain with one
Hermitian 4x4 coupling term per nearest-neighbour bond; bond k couples
sites (k, k+1) with the left site in the first tensor slot.  The exchange
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


@dataclass(frozen=True)
class SpinChainModel:
    """Open qubit chain with nearest-neighbour bond terms and a temperature.

    ``terms[k]`` is the Hermitian 4x4 operator on sites (k, k+1); ``beta``
    is the inverse temperature of the Gibbs state exp(-beta H) / Z.  Terms
    are stored as float64 when none has an imaginary part, else complex128.
    """

    n_sites: int
    terms: tuple
    beta: float

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be positive, got {self.n_sites}")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")
        if len(self.terms) != self.n_sites - 1:
            raise ValueError(
                f"expected {self.n_sites - 1} bond terms for {self.n_sites} sites, "
                f"got {len(self.terms)}"
            )
        for k, t in enumerate(self.terms):
            # before the Hermiticity check, whose comparisons are all false on NaN
            if not np.isfinite(t).all():
                raise ValueError(f"bond term {k} has non-finite entries")
        checked = tuple(linalg.require_hermitian(t) for t in self.terms)
        for k, t in enumerate(checked):
            if t.shape != (4, 4):
                raise ValueError(f"bond term {k} must be 4x4, got {t.shape}")
        if not any(t.imag.any() for t in checked):  # real symmetric: real arithmetic
            checked = tuple(t.real.copy() for t in checked)
        object.__setattr__(self, "terms", checked)
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
    if n_sites < 1:  # before the couplings are sized
        raise ValueError(f"n_sites must be positive, got {n_sites}")
    for name, value in (("delta", delta), ("field", field)):
        # checked before any product, where inf * 0 would warn
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    exchange = xxz_term(delta)
    if couplings is None:
        couplings = [1.0] * (n_sites - 1)
    couplings = [float(j) for j in couplings]
    if len(couplings) != n_sites - 1:
        raise ValueError(
            f"expected {n_sites - 1} couplings for {n_sites} sites, got {len(couplings)}"
        )
    for k, j in enumerate(couplings):
        # checked before the product, where inf * 0 would warn
        if not np.isfinite(j):
            raise ValueError(f"bond {k}: coupling must be finite, got {j}")
    terms = [j * exchange for j in couplings]
    # adding a zero field would flip the sign of zeros under negative J_k
    if field:
        zeeman = (float(field) / 2) * (
            linalg.kron(SIGMA_Z, IDENTITY_2) + linalg.kron(IDENTITY_2, SIGMA_Z)
        )
        terms = [t + zeeman for t in terms]
    return SpinChainModel(n_sites, tuple(terms), beta)


def heisenberg_chain(
    n_sites: int, beta: float, couplings: Sequence[float] | None = None
) -> SpinChainModel:
    """Isotropic Heisenberg chain; optional per-bond couplings J_k (default 1)."""
    return xxz_chain(n_sites, beta, couplings)


def embed_term(term, pair: tuple[int, int], n_sites: int) -> np.ndarray:
    """Embed a 4x4 bond term on sites ``pair`` = (i, i+1) into the full chain.

    Returns I^(i) kron term kron I^(n-i-2), a 2^n x 2^n matrix.
    """
    i, j = pair
    if j != i + 1 or i < 0 or j >= n_sites:
        raise ValueError(f"pair {pair} is not a nearest-neighbour bond of {n_sites} sites")
    t = linalg.as_matrix(term)
    if t.shape != (4, 4):
        raise ValueError(f"bond term must be 4x4, got {t.shape}")
    left, right = np.eye(2**i), np.eye(2 ** (n_sites - i - 2))
    return linalg.kron(linalg.kron(left, t), right)


def total_hamiltonian(model: SpinChainModel) -> np.ndarray:
    """Sum of all embedded bond terms, equal bit for bit to summing ``embed_term``.

    Bond k's term is added, in bond order, into the entries where
    I kron term kron I can be nonzero: viewing H's row and column indices as
    (left sites, pair k, right sites), those with equal left and equal right
    sites, a strided view of H.  H has the terms' dtype.
    """
    n = model.n_sites
    h = np.zeros((2**n, 2**n), dtype=np.result_type(np.float64, *model.terms))
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
    cannot overflow; the shift cancels in the normalization.  A real model's
    state is float64, computed in real arithmetic.
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


def couplings_from_keys(keys: dict[str, str], sites: int) -> list[float]:
    """Per-bond couplings from ``J_<i>`` keys, 1-based bond index, default 1."""
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


def model_from_keys(keys: dict[str, str]) -> SpinChainModel:
    """Build a model from the plain-text description format.

    Keys, and no others: ``model=heisenberg``, ``sites=<int>``, ``beta=<float>``
    and optional per-bond couplings ``J_<i>=<float>`` where i is the 1-based
    bond index (bond i couples sites i and i+1 in 1-based labels).
    """
    kind = keys.get("model", "heisenberg")
    if kind != "heisenberg":
        raise ValueError(f"unsupported model {kind!r}; only 'heisenberg' is available")
    for key in keys:
        if key not in ("model", "sites", "beta") and not key.startswith("J_"):
            raise ValueError(f"unknown key {key!r}; model keys are model, sites, beta, J_<i>")
    try:
        sites = int(keys["sites"])
    except KeyError:
        raise ValueError("model description is missing the 'sites' key") from None
    except ValueError:
        raise ValueError(f"field 'sites': not an integer: {keys['sites']!r}") from None
    try:
        beta = float(keys.get("beta", "1.0"))
    except ValueError:
        raise ValueError(f"field 'beta': not a number: {keys['beta']!r}") from None
    return heisenberg_chain(sites, beta, couplings_from_keys(keys, sites))


def load_model(path) -> SpinChainModel:
    """Read a model description file (see ``model_from_keys``)."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_keys(parse_key_values(fh.read()))
