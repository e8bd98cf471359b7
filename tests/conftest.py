from collections import Counter

import numpy as np
import pytest


@pytest.fixture
def decompositions(monkeypatch):
    """Counts of the ``numpy.linalg`` factorizations called while the test runs.

    ``eigh``, ``eigvalsh`` and ``svd`` are the ones the benchmark's tracer
    counts; ``cholesky`` is counted here as well.
    """
    counts = Counter()
    for name in ("cholesky", "eigh", "eigvalsh", "svd"):
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts
