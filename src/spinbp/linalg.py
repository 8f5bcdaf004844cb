"""Dense Hermitian linear algebra kernel.

All operators in this package are plain numpy matrices, float64 when real
and complex128 otherwise, and keep their dtype through every operation.
This module provides the validated operations the engines share: spectral
decomposition, the shifted exponential of Hermitian matrices, Kronecker
products and partial traces.  Matrices stay dense; the sizes of interest
(8x8 up to 4096x4096) never justify sparse storage.  ``herm_eig`` is the
package's only eigensolver call: every spectrum, in ``shifted_exp``, the
exact Gibbs state, the qbp sweep and the metrics, passes its Hermiticity
check and its handler for solver failure.
The check makes one pass, A - A^dag: an exactly Hermitian input (the
symmetrized states, spectral outputs and differences the package builds)
skips the relative test and the symmetrization, which would return it bit for
bit; a NaN or inf entry is always rejected.

``_sector_index`` is the flat gather/scatter index of the total-Sz sectors of a
2^N x 2^N matrix (the basis states with equal set-bit counts), one (k, d, d) view
per sector size, held read-only per width (C(2N, N) x 8 bytes: 0.10 MB at N = 8,
1.48 MB at N = 10, 21.6 MB at N = 12).  ``cbp.chain_end_marginal`` gathers the st
engine's W through it into one flat buffer, powers the sectors there and scatters
them back, so W^n costs the sum of the sectors' cubes; ``spinchain.exact_gibbs``
fills H's blocks from the bond terms through it and per-bond tables (0.02, 0.12
and 0.57 MB more).

``require_hermitian``, ``herm_eig``, ``shifted_exp``, ``spectral`` and
``kron`` also take a stack of shape (..., d, d) and act on each matrix, so
many small matrices cost one call.  Every Hermiticity check and every shift
is made per matrix, on that matrix's own scale, and a stack gives the same
bits as the per-matrix calls.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

# Relative Hermiticity tolerance used by every construction check.
HERMITIAN_RTOL = 1e-12
# qbp raises the determinant and the divisors of its message read-off to at
# least this, so log and division stay finite on a rank-deficient operator.
POSITIVE_FLOOR = 1e-300
# ``cbp.chain_end_marginal`` and ``spinchain.exact_gibbs`` take a narrower matrix
# whole: there a dense product costs no more than the sectors and the extra calls
# per sector size (break-even near 64 states on one BLAS thread).
BLOCK_MIN_DIM = 128


class NotHermitianError(ValueError):
    """Input matrix fails the Hermiticity construction check."""


class NoConvergenceError(RuntimeError):
    """The iterative eigensolver gave up; the input is pathological."""


class HermitianEigen(NamedTuple):
    """Spectral decomposition A = V diag(w) V^dag with ascending eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def require_int(value, name: str) -> int:
    """``value`` as an int; anything but a Python or numpy integer is a ValueError
    naming ``name``, so a float count is refused rather than truncated, and a
    bool (Python's, which is an int subclass, or numpy's) is not taken as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}={value!r} is not an integer")
    return int(value)


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


def shifted_exp(a) -> np.ndarray:
    """exp(A - w_max) for Hermitian A, or for each matrix of a stack, with w_max
    the matrix's own largest eigenvalue: every eigenvalue of the result lies in
    [0, 1], so it stays in range at any scale of A."""
    w, v = herm_eig(a)
    return spectral(v, np.exp(w - w[..., -1:]))


def spectral(v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """V diag(fw) V^dag from eigenvectors ``v`` and function values ``fw``,
    for one matrix or a stack; a real ``fw`` gives a Hermitian result."""
    out = (v * fw[..., None, :]) @ dagger(v)
    if not np.iscomplexobj(fw):
        # real-valued f on a Hermitian argument: repair roundoff skew
        out = (out + dagger(out)) / 2
    return out


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
    dims = [require_int(d, f"site_dims[{i}]") for i, d in enumerate(site_dims)]
    if any(d <= 0 for d in dims):
        raise ValueError(f"site dimensions must be positive, got {dims}")
    total = math.prod(dims)
    if total != arr.shape[0]:
        raise ValueError(
            f"dimension mismatch: product of site dims {total} != matrix dim {arr.shape[0]}"
        )
    kept = sorted(set(require_int(i, f"keep[{k}]") for k, i in enumerate(keep)))
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
    d = math.prod(dims[i] for i in kept)
    return out.reshape(d, d)


@functools.cache
def _sector_index(n_sites: int) -> tuple[np.ndarray, ...]:
    """The flat row-major index of the total-Sz sector blocks of a 2^N x 2^N
    matrix, built once per width and held: one read-only array, C(2N, N) entries,
    as (k, d, d) views per sector size d, ascending (``[0].base`` is the array).

    Basis state i lies in sector c when c bits of i are set; the k sectors of
    d = C(N, c) states come ordered by c, ascending within each.  Entry [j, r, r]
    of a view is s * (2^N + 1) for the r-th state s of its j-th sector, so the
    sectors are its diagonal divided by 2^N + 1.
    """
    counts = np.zeros(1, dtype=np.intp)
    for _ in range(n_sites):  # the states with the next bit set count one more
        counts = np.concatenate((counts, counts + 1))
    sizes = [math.comb(n_sites, c) for c in range(n_sites + 1)]
    sectors = np.split(np.argsort(counts, kind="stable"), np.cumsum(sizes)[:-1])
    flat, start, index = np.empty(math.comb(2 * n_sites, n_sites), np.intp), 0, []
    for d in sorted(set(sizes)):  # each size's entries are written into their view
        states = np.array([s for s in sectors if len(s) == d])
        view = flat[start:start + states.size * d].reshape(len(states), d, d)
        view[...] = states[:, None, :]  # a copy: unlike a ufunc, it takes no buffer
        view += states[:, :, None] * 2**n_sites
        index.append(view)
        start += view.size
    flat.flags.writeable = False
    return tuple(_split(flat, index))


def _split(flat: np.ndarray, like: Sequence[np.ndarray]) -> list:
    """``flat`` cut into views shaped as the arrays of ``like``, laid end to end."""
    views, start = [], 0
    for a in like:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return views
