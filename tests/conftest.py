# Imported before any test module loads numpy, so the suite runs BLAS on one
# thread as `latfold` and `python -m latfold` do, and sweeps fork workers.
import os

import pytest

import latfold  # noqa: F401


@pytest.fixture
def cpu_set(monkeypatch):
    """``cpu_set(n)``: latfold then sees ``n`` usable CPUs, as if run under taskset."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return use
