"""Import ``ihvit`` before any test module imports numpy.

``ihvit`` sets the BLAS thread counts to 1 unless the environment sets
them, and BLAS reads them only when numpy first loads.  Importing it here
makes the suite run with the BLAS setting that library users and the
benchmark get.
"""

import math

import pytest

import ihvit  # noqa: F401
from ihvit import tensor as T


@pytest.fixture(params=["im2col", "dense"])
def conv_path(request, monkeypatch):
    """Send conv2d calls down one of its two paths whatever the plane size:
    im2col, or one GEMM against the unrolled weight matrix (which must
    still fit in ``_IM2COL_BYTES``)."""
    monkeypatch.setattr(T, "_DENSE_PLANE_RATIO", 0 if request.param == "im2col" else math.inf)
    return request.param
