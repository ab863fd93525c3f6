import os
from importlib.metadata import version

import numpy as np
import pytest

from fbc2c import encoder


def pytest_report_header(config):
    """The BLAS pin and the numpy and scipy versions, so a log shows which run it is."""
    pin = os.environ.get("OPENBLAS_NUM_THREADS", "unpinned")
    return f"OPENBLAS_NUM_THREADS: {pin}; numpy {np.__version__}; scipy {version('scipy')}"


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
