"""Backend table: the two backends, the one shape every unknown-backend
error takes, and no batched capability or knob left."""
import dataclasses

import numpy as np
import pytest

import repro as rp
from repro import exec as rexec
from repro.apps import ba, datagen, hand, lstm
from repro.apps.seeding import identity_seed_pass
from repro.exec import registry
from repro.exec.registry import Backend, available_backends
from repro.util import ReproError


def test_registry_builtins_and_no_batched_capability():
    """A batched call is a ``map`` every backend runs, so a ``Backend`` is a
    name and ``run``, and nothing lists batch-capable backends."""
    assert available_backends() == ("ref", "plan")
    assert [f.name for f in dataclasses.fields(Backend)] == ["name", "run"]
    for mod in (registry, rexec):
        assert not hasattr(mod, "batched_backends")
        assert not hasattr(mod, "run_fun_plan_batched")


def test_batched_keyword_is_gone_from_every_seeded_callable():
    """``batched=`` was the per-seed-loop knob; it is a ``TypeError`` now."""
    vec = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: x * x, v), (np.ones(3),)))
    hb = datagen.hand_instance(2, 4, seed=0)
    hfwd = rp.jvp(rp.compile(hand.build_ir(2, 4)))
    xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(2, 2, 2, 2, seed=0)
    lfwd = rp.jvp(rp.compile(lstm.build_ir(2, 2, 2, 2)))
    cams, pts, ws, oc, op, feats = datagen.ba_instance(2, 3, 4, seed=0)
    jv = rp.vjp(rp.compile(ba.build_ir(4)), wrt=[0, 1, 2])
    calls = (
        lambda **kw: rp.jacobian(vec)(np.ones(3), **kw),
        lambda **kw: identity_seed_pass(hfwd, hb, 0, **kw),
        lambda **kw: hand.jacobian_fwd_ad(hfwd, *hb, **kw),
        lambda **kw: lstm.grad_fwd_ad(lfwd, xs, wx, wh, b, wy, tg, **kw),
        lambda **kw: ba.jacobian_ad(jv, *ba.gather_obs(cams, pts, ws, oc, op), feats, **kw),
    )
    for call in calls:
        call()
        with pytest.raises(TypeError, match="batched"):
            call(batched=False)


def test_unknown_backend_errors_list_registered_set():
    fc = rp.compile(rp.trace_like(lambda x: rp.sum(x), (np.ones(4),)))
    with pytest.raises(ReproError, match=r"registered backends: ref, plan$"):
        fc(np.ones(4), backend="bogus")
    with pytest.raises(ReproError, match="registered backends"):
        fc.call_batched((np.ones((2, 4)),), (True,), 2, backend="bogus")
    jac = rp.jacobian(rp.compile(rp.trace_like(lambda x: rp.map(lambda v: v * v, x), (np.ones(3),))))
    with pytest.raises(ReproError, match="registered backends"):
        jac(np.ones(3), backend="bogus")


def test_an_unknown_backend_is_not_counted_as_called():
    """The name is validated before the call is recorded, on ``__call__``
    as on ``call_batched``: a refused call leaves ``backend_calls`` as it
    was."""
    from repro import obs

    fc = rp.compile(rp.trace_like(lambda x: rp.sum(x), (np.ones(4),)))
    before = dict(obs.snapshot()["backend_calls"])
    with pytest.raises(ReproError, match="registered backends"):
        fc(np.ones(4), backend="bogus")
    with pytest.raises(ReproError, match="registered backends"):
        fc.call_batched((np.ones((2, 4)),), (True,), 2, backend="bogus")
    assert obs.snapshot()["backend_calls"] == before
    fc(np.ones(4), backend="ref")
    assert obs.snapshot()["backend_calls"]["ref"] == before.get("ref", 0) + 1


@pytest.mark.parametrize("name", ["shard", "codegen"])
def test_removed_backend_name_fails_loudly(name):
    """``shard`` and ``codegen`` are gone: the keyword on ``Compiled``,
    ``grad`` and ``jacobian`` gets the unknown-backend error listing what is
    registered."""
    fc = rp.compile(rp.trace_like(lambda v: rp.sum(rp.map(lambda x: x * x, v)), (np.ones(3),)))
    want = rf"unknown backend '{name}'; registered backends: ref, plan$"
    calls = (fc, rp.grad(fc), rp.jacobian(rp.compile(
        rp.trace_like(lambda v: rp.map(lambda x: x * x, v), (np.ones(3),)))))
    for call in calls:
        with pytest.raises(ReproError, match=want):
            call(np.ones(3), backend=name)
