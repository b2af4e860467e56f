"""Pytest configuration: make tests/helpers.py importable and keep
hypothesis deadlines off (interpreted executors are slow but
deterministic); run the ``helpers.PROFILED`` legs under ``REPRO_PROFILE``."""
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

# Stage-boundary IR verification is on by default under pytest (the prod
# default is "off"); CI additionally runs one leg with REPRO_VERIFY=full.
os.environ.setdefault("REPRO_VERIFY", "boundary")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "profiled: run under REPRO_PROFILE (the helpers.PROFILED leg)")


@pytest.fixture(autouse=True)
def _profiled_leg(request, monkeypatch):
    """A ``profiled`` test runs with ``REPRO_PROFILE`` set, and must have
    timed at least one plan instruction: the leg is not the plain one."""
    if request.node.get_closest_marker("profiled") is None:
        yield
        return
    from repro.obs.profiler import profile_summary

    monkeypatch.setenv("REPRO_PROFILE", "1")
    before = profile_summary()["calls"]
    yield
    assert profile_summary()["calls"] > before, "the profiled leg timed no instruction"
