"""Dense Hermitian linear algebra kernel.

All operators in this package are plain numpy matrices, float64 when real
and complex128 otherwise, and keep their dtype through every operation.
This module provides the validated operations the engines share: spectral
decomposition, matrix functions of Hermitian matrices, Kronecker products,
partial traces and the absolute trace norm.  Matrices stay dense; the sizes
of interest (8x8 up to 4096x4096) never justify sparse storage.
``herm_eig`` is the package's only eigensolver call: every spectrum, in
``mat_func``, ``abs_trace_norm``, the exact Gibbs state and the metrics,
passes its Hermiticity check and its handler for solver failure.  The check
makes one pass, A - A^dag: an exactly Hermitian input (the symmetrized states,
spectral outputs and differences the package builds) skips the relative test
and the symmetrization, which would return it bit for bit; a NaN or inf entry
is always rejected.

``by_blocks`` is the one block kernel: it applies a function to the total-Sz
sectors of a 2^N x 2^N matrix (``sz_sectors``: the basis states with equal
set-bit counts), one stack per sector size, when the sectors hold every
nonzero entry.  So a Hamiltonian or Trotter slice that conserves total Sz
costs the sum of the sectors' cubes; any other matrix, and one narrower than
``BLOCK_MIN_DIM``, is one block.

``require_hermitian``, ``herm_eig``, ``mat_func`` (so ``herm_exp`` and
``herm_log``) and ``kron`` also take a stack of shape (..., d, d) and act on
each matrix, so many small matrices cost one call.  Every check (Hermiticity,
positivity) is made per matrix, on that matrix's own scale, and a stack gives
the same bits as the per-matrix calls.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

# Relative Hermiticity tolerance used by every construction check.
HERMITIAN_RTOL = 1e-12
# ``mat_func(..., positive=True)`` raises clamped eigenvalues to this, so log stays finite.
POSITIVE_FLOOR = 1e-300
# ``by_blocks`` takes a narrower matrix whole: there a dense product costs no
# more than gathering the sectors and the extra calls per sector size
# (break-even near 64 states on one BLAS thread).
BLOCK_MIN_DIM = 128


class NotHermitianError(ValueError):
    """Input matrix fails the Hermiticity construction check."""


class NoConvergenceError(RuntimeError):
    """The iterative eigensolver gave up; the input is pathological."""


class DomainError(ValueError):
    """An eigenvalue lies outside the domain of the requested scalar function."""


class HermitianEigen(NamedTuple):
    """Spectral decomposition A = V diag(w) V^dag with ascending eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_stack(a) -> np.ndarray:
    """Coerce to a square matrix or stack (..., d, d), promoted to at least float64."""
    arr = np.asarray(a)
    if arr.dtype != np.float64 and arr.dtype != np.complex128:  # before result_type
        arr = arr.astype(np.result_type(arr.dtype, np.float64))
    if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {arr.shape}")
    return arr


def as_matrix(a) -> np.ndarray:
    """Coerce to one square matrix, in the dtype ``as_stack`` gives."""
    arr = as_stack(a)
    if arr.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _first_flagged(flags: np.ndarray) -> tuple[tuple, str]:
    """Index of the first flagged matrix and a message prefix naming it.

    ``flags`` holds one bool per matrix; for a single matrix it is 0-d, the
    index is () and the prefix is empty.
    """
    at = np.unravel_index(int(np.argmax(flags)), flags.shape)
    return at, (f"stack index {tuple(int(i) for i in at)}: " if at else "")


def require_hermitian(a) -> np.ndarray:
    """Return ``a`` as a matrix or stack (see ``as_stack``), rejecting non-Hermitian input.

    The check is relative and applies to each matrix of a stack on its own
    scale: max |A - A^dag| must not exceed HERMITIAN_RTOL * max |A|.  A NaN or
    infinite entry fails it.
    """
    return _checked(a)[0]


@np.errstate(invalid="ignore")  # inf - inf gives the NaN skew that rejects an inf entry
def _checked(a) -> tuple[np.ndarray, bool]:
    """``require_hermitian(a)`` and whether it is exactly Hermitian, from one A - A^dag;
    a zero skew passes every relative check, and a NaN or inf entry never gives one."""
    arr = as_stack(a)
    skew = arr - dagger(arr)
    if not np.count_nonzero(skew):  # a NaN counts as nonzero
        return arr, True
    finite = np.isfinite(arr).all(axis=(-2, -1))
    if not finite.all():
        at, where = _first_flagged(~finite)
        entries = np.argwhere(~np.isfinite(arr[at]))
        raise NotHermitianError(
            f"{where}matrix has {len(entries)} non-finite entries, the first "
            f"{arr[at][tuple(entries[0])]} at {tuple(int(i) for i in entries[0])}"
        )
    residue = np.abs(skew).max(axis=(-2, -1), initial=0.0)
    tol = HERMITIAN_RTOL * np.abs(arr).max(axis=(-2, -1), initial=0.0)
    bad = residue > tol
    if bad.any():
        at, where = _first_flagged(bad)
        raise NotHermitianError(
            f"{where}matrix is not Hermitian: residue {residue[at]:.3e} exceeds "
            f"{HERMITIAN_RTOL:g} * max|A| = {tol[at]:.3e}"
        )
    return arr, False


def herm_eig(a) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix or stack, eigenvalues ascending.

    The checked input is symmetrized as (A + A^dag) / 2 first, unless it is
    exactly Hermitian, where that would return A bit for bit.
    """
    arr, exact = _checked(a)
    if not exact:
        arr = (arr + dagger(arr)) / 2
    try:
        w, v = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return HermitianEigen(w, v)


def mat_func(a, f: Callable[[np.ndarray], np.ndarray], *, positive: bool = False) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix, or to each of a stack, spectrally.

    Returns V diag(f(w)) V^dag.  ``f`` must act elementwise on a real numpy
    array (np.exp, np.log, ...).  With ``positive=True`` the spectrum is
    clamped by ``positive_spectrum`` before ``f`` is applied.
    """
    w, v = herm_eig(a)
    return spectral(v, np.asarray(f(positive_spectrum(w) if positive else w)))


def positive_spectrum(w: np.ndarray) -> np.ndarray:
    """Spectra w (..., d) of positive semidefinite matrices, each clamped on its
    own scale: eigenvalues down to -1e-12 * max|w| are raised to ``POSITIVE_FLOOR``,
    which keeps log finite on roundoff; anything lower raises DomainError."""
    tol = HERMITIAN_RTOL * np.abs(w).max(axis=-1, initial=0.0)
    lowest = w.min(axis=-1, initial=np.inf)
    bad = lowest < -tol
    if bad.any():
        at, where = _first_flagged(bad)
        raise DomainError(
            f"{where}eigenvalue {lowest[at]:.6e} below the clamp tolerance "
            f"{-tol[at]:.3e}; input is not positive semidefinite"
        )
    return np.maximum(w, POSITIVE_FLOOR)


def spectral(v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """V diag(fw) V^dag from eigenvectors ``v`` and function values ``fw``,
    for one matrix or a stack; a real ``fw`` gives a Hermitian result."""
    out = (v * fw[..., None, :]) @ dagger(v)
    if not np.iscomplexobj(fw):
        # real-valued f on a Hermitian argument: repair roundoff skew
        out = (out + dagger(out)) / 2
    return out


def herm_exp(a) -> np.ndarray:
    """exp(A) for Hermitian A, or for each matrix of a stack."""
    return mat_func(a, np.exp)


def herm_log(a) -> np.ndarray:
    """log(A) for Hermitian positive-definite A, or for each matrix of a stack
    (roundoff-negative eigenvalues clamped)."""
    return mat_func(a, np.log, positive=True)


def kron(a, b) -> np.ndarray:
    """Kronecker product: (A kron B)[..., i*dB+k, j*dB+l] = A[..., i,j] * B[..., k,l].

    Either factor may be a stack of square matrices; leading axes broadcast.
    """
    a, b = as_stack(a), as_stack(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    dim = a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (dim, dim))


def partial_trace(a, site_dims: Sequence[int], keep) -> np.ndarray:
    """Trace out every tensor factor whose position is not in ``keep``.

    ``site_dims`` lists the local dimension of each factor in row-major
    Kronecker order; ``keep`` holds the (0-based) positions to retain, which
    stay in their original relative order.  Trace and Hermiticity of the
    input are preserved.
    """
    arr = as_matrix(a)
    dims = [int(d) for d in site_dims]
    if any(d <= 0 for d in dims):
        raise ValueError(f"site dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if total != arr.shape[0]:
        raise ValueError(
            f"dimension mismatch: product of site dims {total} != matrix dim {arr.shape[0]}"
        )
    kept = sorted(set(int(i) for i in keep))
    if not kept:
        raise ValueError("keep set must be nonempty")
    if kept[0] < 0 or kept[-1] >= len(dims):
        raise ValueError(f"keep indices {kept} out of range for {len(dims)} sites")

    k = len(dims)
    tensor = arr.reshape(dims + dims)
    row_subs = list(range(k))
    kept_set = set(kept)
    col_subs = [k + i if i in kept_set else i for i in range(k)]
    out_subs = kept + [k + i for i in kept]
    out = np.einsum(tensor, row_subs + col_subs, out_subs)
    d = int(np.prod([dims[i] for i in kept]))
    return out.reshape(d, d)


def sz_sectors(n_sites: int) -> list[np.ndarray]:
    """Index sets of the total-Sz sectors of ``n_sites`` qubits, stacked by size.

    Basis state i lies in sector c when c bits of i are set.  Each returned
    (k, d) integer array holds the k sectors of d = C(n_sites, c) states, one
    per row, ascending within a row and ordered by c; the arrays come in
    ascending d.
    """
    states = np.arange(2**n_sites)
    counts = sum((states >> bit) & 1 for bit in range(n_sites))
    sectors = [np.flatnonzero(counts == c) for c in range(n_sites + 1)]
    return [np.array([s for s in sectors if len(s) == d])
            for d in sorted({len(s) for s in sectors})]


def by_blocks(a: np.ndarray, fn: Callable[[list], list]) -> np.ndarray:
    """The square matrix ``a`` with ``fn`` applied to its total-Sz sector blocks.

    ``fn`` takes the blocks of ``sz_sectors`` as a list of (k, d, d) stacks
    in ascending d, which it may overwrite, and returns stacks of the same
    shapes; entries between blocks stay zero.  The sectors are used only when
    they hold every nonzero entry of ``a`` (a NaN counts as nonzero).  Otherwise,
    and for a matrix narrower than ``BLOCK_MIN_DIM`` or whose width is not a
    power of two, ``a`` is one block and ``fn`` gets a copy of it.
    """
    dim = len(a)
    if dim >= BLOCK_MIN_DIM and not dim & (dim - 1):
        at = [(s[:, :, None], s[:, None, :]) for s in sz_sectors(dim.bit_length() - 1)]
        stacks = [a[i] for i in at]
        if sum(np.count_nonzero(s) for s in stacks) == np.count_nonzero(a):
            out = np.zeros_like(a)
            for i, stack in zip(at, fn(stacks)):
                out[i] = stack
            return out
    return fn([a[None].copy()])[0][0]


def abs_trace_norm(a) -> float:
    """tr|A| = sum of |eigenvalues| for Hermitian A."""
    return float(np.abs(herm_eig(as_matrix(a)).eigenvalues).sum())
