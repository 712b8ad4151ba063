"""Fixtures shared by the test tree."""

import pytest

from repro.blas import BlasError, blas_info, set_blas_threads


@pytest.fixture(params=[1, 2])
def blas_threads(request):
    """Run the test at 1 and at 2 BLAS threads, then restore the count.

    Output bits depend on the count (docs/engine.md), so a test taking
    this fixture compares bits within one count, never across two."""
    before = blas_info()["threads"]
    try:
        set_blas_threads(request.param)
    except BlasError as exc:
        pytest.skip(str(exc))
    yield request.param
    set_blas_threads(before)
