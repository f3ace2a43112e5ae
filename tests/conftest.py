import numpy as np
import pytest

from securejscc import pipeline
from securejscc.lwe import ErrorTriple


@pytest.fixture
def zero_error_rows(monkeypatch):
    """Make the chain encrypt with all-zero error triples."""
    def fake(seed, indices, params):
        return ErrorTriple(*(np.zeros((len(indices), n), dtype=np.int64)
                             for n in (params.n1, params.n2, params.k)))
    monkeypatch.setattr(pipeline, "derive_error_rows", fake)
