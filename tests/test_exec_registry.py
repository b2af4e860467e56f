"""Backend table: the two backends and their capabilities, and the one
shape every unknown-backend error takes."""
import numpy as np
import pytest

import repro as rp
from repro.exec.registry import available_backends, batched_backends, get_backend
from repro.util import ReproError


def test_registry_builtins_and_capabilities():
    assert available_backends() == ("ref", "plan")
    assert not get_backend("ref").batched
    assert get_backend("plan").batched
    assert batched_backends() == ("plan",)


def test_unknown_backend_errors_list_registered_set():
    fc = rp.compile(rp.trace_like(lambda x: rp.sum(x), (np.ones(4),)))
    with pytest.raises(ReproError, match=r"registered backends: ref, plan$"):
        fc(np.ones(4), backend="bogus")
    with pytest.raises(ReproError, match="registered backends"):
        fc.call_batched((np.ones((2, 4)),), (True,), 2, backend="bogus")
    jac = rp.jacobian(rp.compile(rp.trace_like(lambda x: rp.map(lambda v: v * v, x), (np.ones(3),))))
    with pytest.raises(ReproError, match="registered backends"):
        jac(np.ones(3), backend="bogus")


@pytest.mark.parametrize("name", ["shard", "codegen"])
def test_removed_backend_name_fails_loudly(name, monkeypatch):
    """``shard`` and ``codegen`` are gone: the keyword on ``Compiled``,
    ``grad`` and ``jacobian``, and ``REPRO_BACKEND``, all get the
    unknown-backend error listing what is registered."""
    fc = rp.compile(rp.trace_like(lambda v: rp.sum(rp.map(lambda x: x * x, v)), (np.ones(3),)))
    want = rf"unknown backend '{name}'; registered backends: ref, plan$"
    calls = (fc, rp.grad(fc), rp.jacobian(rp.compile(
        rp.trace_like(lambda v: rp.map(lambda x: x * x, v), (np.ones(3),)))))
    for call in calls:
        with pytest.raises(ReproError, match=want):
            call(np.ones(3), backend=name)
    monkeypatch.setenv("REPRO_BACKEND", name)
    for call in calls:
        with pytest.raises(ReproError, match=want):
            call(np.ones(3))
