"""Conformance: every engine on seeded models of every kind the library accepts.

Each engine either gives a reduced state that ``metrics.scores`` accepts
against the exact state, or raises an error named here: the first-order st
state of a chain of three or more sites, real or complex, may carry a
non-Hermitian residue that the metrics reject.  st builds its transfer
weights in the bond terms' dtype, so a complex chain scores as a real one
does.  Warnings are errors, so an overflow fails the test.
"""

import numpy as np
import pytest

from spinbp import linalg, metrics
from spinbp.qbp import qbp_run
from spinbp.spinchain import SpinChainModel, exact_gibbs, heisenberg_chain, xxz_chain
from spinbp.trotter import st_reduced, trotter_plan


def random_terms(rng, sites, complex_):
    """(A + A^dag) / 4 with Gaussian A, one per bond."""
    shape = (sites - 1, 4, 4)
    a = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_ else 0)
    return tuple((a + linalg.dagger(a)) / 4)


def xxz(rng, sites, beta, cut):
    """XXZ chain with random negative couplings, one of them zero if ``cut``."""
    couplings = -rng.uniform(0.5, 1.5, size=sites - 1)
    if cut:
        couplings[rng.integers(sites - 1)] = 0.0
    return xxz_chain(sites, beta, couplings, rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))


MODELS = {
    "random-real": lambda rng, n, b: SpinChainModel(n, random_terms(rng, n, False), b),
    "random-complex": lambda rng, n, b: SpinChainModel(n, random_terms(rng, n, True), b),
    "xxz-negative": lambda rng, n, b: xxz(rng, n, b, cut=False),
    "xxz-zero-coupling": lambda rng, n, b: xxz(rng, n, b, cut=True),
    "zero-terms": lambda rng, n, b: SpinChainModel(n, (np.zeros((4, 4)),) * (n - 1), b),
    "beta-zero": lambda rng, n, b: SpinChainModel(n, random_terms(rng, n, False), 0.0),
    "heisenberg-beta-300": lambda rng, n, b: heisenberg_chain(n, 300.0),
}


def st_outcome(model, keep, n_slices, reference):
    """'ok' if the st state scores, else the name of the error it raised."""
    try:
        metrics.scores(st_reduced(trotter_plan(model, n_slices), keep), reference)
    except metrics.NotDensityMatrixError as exc:
        if "Hermiticity residue" not in str(exc):
            raise
        return "not-hermitian"
    return "ok"


@pytest.mark.filterwarnings("error")
def test_every_engine_scores_or_names_its_refusal(eig_calls):
    rng = np.random.default_rng(2014)
    unexpected = []
    for sites in range(2, 8):
        for kind, build in MODELS.items():
            model = build(rng, sites, float(rng.choice([0.5, 1.0, 2.0])))
            bond = int(rng.integers(sites - 1))
            keep = (bond, bond + 1)
            exact = linalg.partial_trace(exact_gibbs(model), [2] * sites, keep)
            fid, dist = metrics.scores(exact, exact)
            assert fid == pytest.approx(1.0) and dist == pytest.approx(0.0, abs=1e-12)

            allowed = {"ok", "not-hermitian"} if sites >= 3 else {"ok"}
            for n_slices in (20, 100):
                got = st_outcome(model, keep, n_slices, exact)
                if got not in allowed:
                    unexpected.append((kind, sites, "st", n_slices, got))

            result = qbp_run(model)
            assert result.converged, (kind, sites, result.residual)
            metrics.scores(result.beliefs_pair[keep], exact)
    assert unexpected == []
    # N = 7 is 128 states: H of the chains that conserve total Sz goes through
    # by_blocks' sector path, and that of the random chains through its
    # one-block fallback
    shapes = {shape for shape, _ in eig_calls}
    assert {(2, 35, 35), (1, 128, 128)} <= shapes
