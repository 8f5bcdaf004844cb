"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from spinbp import linalg


@pytest.fixture
def eig_calls(monkeypatch):
    """(shape, dtype) of each matrix or stack passed to linalg.herm_eig, in call order."""
    calls, herm_eig = [], linalg.herm_eig

    def recording(a):
        calls.append((np.shape(a), np.asarray(a).dtype))
        return herm_eig(a)

    monkeypatch.setattr(linalg, "herm_eig", recording)
    return calls
