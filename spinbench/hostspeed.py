"""A frozen reference kernel that measures the host's current speed.

On a shared host the same pass can take 30-50% longer for minutes at a time
while other tenants load the machine.  The kernel below does a fixed amount
of the kinds of work a sweep pass does (small LAPACK calls, matrix-vector
products on 256-vectors, tiny numpy calls dominated by per-call overhead,
and plain bytecode), so timing it next to the passes tells how fast the host
is running right now.  It never calls spinbp, so changes to spinbp do not
move it.  It must stay unchanged for its timings to compare across commits.
"""

import time

import numpy as np

# About the median time of reference_kernel_s() on the 2-vCPU Xeon host with
# OpenBLAS on one thread where the benchmark was defined; adjusted times are
# seconds at that speed.
REFERENCE_S = 0.1

_rng = np.random.default_rng(0)
_SYM64 = _rng.standard_normal((64, 64))
_SYM64 = _SYM64 + _SYM64.T
_POS256 = np.abs(_rng.standard_normal((256, 256)))
_SYM4 = _rng.standard_normal((4, 4))
_SYM4 = _SYM4 + _SYM4.T
_M2 = _rng.standard_normal((2, 2))


def reference_kernel_s() -> float:
    """Seconds the fixed reference work takes on the host right now."""
    start = time.perf_counter()
    for _ in range(100):
        np.linalg.eigh(_SYM64)
    v = np.ones(256)
    for _ in range(1500):
        v = _POS256 @ v
        v /= np.abs(v).sum()
    for _ in range(1000):
        np.kron(_M2, _M2)
        np.linalg.eigh(_SYM4)
    acc = 0
    for i in range(150_000):
        acc += i * i
    return time.perf_counter() - start


def adjusted(seconds: float, kernel_s: float) -> float:
    """``seconds`` scaled to the reference speed, given the kernel's time now."""
    return seconds * REFERENCE_S / kernel_s
