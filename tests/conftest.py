"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from qcmi.linalg import HermitianEigen


@pytest.fixture
def applies(monkeypatch):
    """Record (stack length, size) of each HermitianEigen.apply call: the
    matrix functions built from a decomposition."""
    calls = []
    original = HermitianEigen.apply

    def recorded(self, f):
        q = self.eigenvectors
        calls.append((int(np.prod(q.shape[:-2])), q.shape[-1]))
        return original(self, f)

    monkeypatch.setattr(HermitianEigen, "apply", recorded)
    return calls
