"""Backend table: the three backends and their capabilities, and the one
shape every unknown-backend error takes."""
import numpy as np
import pytest

import repro as rp
from repro.exec.registry import available_backends, batched_backends, get_backend
from repro.util import ReproError


def test_registry_builtins_and_capabilities():
    assert available_backends() == ("ref", "plan", "codegen")
    assert not get_backend("ref").batched
    for name in ("plan", "codegen"):
        assert get_backend(name).batched
    assert "ref" not in batched_backends()


def test_unknown_backend_errors_list_registered_set():
    fc = rp.compile(rp.trace_like(lambda x: rp.sum(x), (np.ones(4),)))
    with pytest.raises(ReproError, match=r"registered backends: ref, plan, codegen"):
        fc(np.ones(4), backend="bogus")
    with pytest.raises(ReproError, match="registered backends"):
        fc.call_batched((np.ones((2, 4)),), (True,), 2, backend="bogus")
    jac = rp.jacobian(rp.compile(rp.trace_like(lambda x: rp.map(lambda v: v * v, x), (np.ones(3),))))
    with pytest.raises(ReproError, match="registered backends"):
        jac(np.ones(3), backend="bogus")


def test_removed_backend_name_fails_loudly(monkeypatch):
    """``shard`` is gone: the keyword and ``REPRO_BACKEND`` both get the
    unknown-backend error listing what is registered."""
    fc = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: x * 2.0, v), (np.ones(8),)))
    with pytest.raises(ReproError, match="unknown backend 'shard'.*ref, plan, codegen"):
        fc(np.ones(8), backend="shard")
    monkeypatch.setenv("REPRO_BACKEND", "shard")
    with pytest.raises(ReproError, match="unknown backend 'shard'.*ref, plan, codegen"):
        fc(np.ones(8))
