import numpy as np
import pytest

from fbc2c import encoder


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices factored with singular vectors, in call order.

    ``np.linalg.svd`` is replaced where ``encoder.py`` looks it up; calls
    that ask for singular values only (``diagnostics``) are not counted.
    """
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(encoder.np.linalg, "svd", counting)
    return calls
