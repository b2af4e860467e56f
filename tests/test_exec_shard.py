"""Sharded executor + backend registry: registry round-trips, shardability
golden cases, shard/plan/ref parity (fuzz corpus + apps), determinism
across worker counts, batched-seed sharding, and the plan-cache backend
dimension."""
import numpy as np
import pytest

import repro as rp
from repro.apps import ba, datagen, gmm, hand, kmeans, lstm
from repro.exec.plan import plan_cache_stats, plan_for
from repro.exec.registry import (
    Backend,
    available_backends,
    batched_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.exec.shard import (
    reset_shard_stats,
    shard_stats,
    shutdown_shard_pool,
)
from repro.ir.analysis import parallel_split
from repro.util import ReproError

from helpers import run_both
from test_fuzz_programs import _gen_program


@pytest.fixture
def sharded(monkeypatch):
    """Force genuine sharding at test sizes: 2 workers, tiny chunks."""
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
    monkeypatch.setenv("REPRO_SHARD_MIN_CHUNK", "4")
    monkeypatch.setenv("REPRO_SHARD_MODE", "thread")
    yield
    shutdown_shard_pool()


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------


def test_registry_builtins_and_capabilities():
    assert available_backends()[:4] == ("ref", "plan", "codegen", "shard")
    assert not get_backend("ref").batched
    for name in ("plan", "codegen", "shard"):
        assert get_backend(name).batched
    assert get_backend("shard").sharded and not get_backend("plan").sharded
    assert "ref" not in batched_backends()


def test_registry_round_trip():
    calls = []

    def run(fun, args):
        calls.append(fun.name)
        return get_backend("plan").run(fun, args)

    register_backend(Backend("counting", run=run))
    try:
        assert "counting" in available_backends()
        fc = rp.compile(rp.trace_like(lambda x: rp.sum(x), (np.ones(4),)))
        assert fc(np.arange(4.0), backend="counting") == 6.0
        assert calls  # dispatch went through the custom backend
        # no run_batched -> call_batched refuses, naming the capable set
        with pytest.raises(ReproError, match="cannot run batched"):
            fc.call_batched((np.ones((2, 4)),), (True,), 2, backend="counting")
        # duplicate registration is an error unless overwritten
        with pytest.raises(ReproError, match="already registered"):
            register_backend(Backend("counting", run=run))
        register_backend(Backend("counting", run=run), overwrite=True)
    finally:
        unregister_backend("counting")
    assert "counting" not in available_backends()


def test_unknown_backend_errors_list_registered_set():
    fc = rp.compile(rp.trace_like(lambda x: rp.sum(x), (np.ones(4),)))
    with pytest.raises(ReproError, match=r"registered backends: .*plan.*shard"):
        fc(np.ones(4), backend="bogus")
    with pytest.raises(ReproError, match="registered backends"):
        fc.call_batched((np.ones((2, 4)),), (True,), 2, backend="bogus")
    jac = rp.jacobian(rp.compile(rp.trace_like(lambda x: rp.map(lambda v: v * v, x), (np.ones(3),))))
    with pytest.raises(ReproError, match="registered backends"):
        jac(np.ones(3), backend="bogus")
    with pytest.raises(ReproError, match="registered backends"):
        unregister_backend("bogus")


# ---------------------------------------------------------------------------
# Shardability analysis — golden cases
# ---------------------------------------------------------------------------


def test_parallel_split_top_level_map_is_map_kind():
    fun = rp.compile(ba.build_ir(32)).fun
    split = parallel_split(fun)
    assert split is not None and split.kind == "map"
    # all three residual arrays come straight off the sharded map
    assert split.n_outs == 3 and split.suffix_fun is None


def test_parallel_split_gmm_is_reduce_kind():
    fun = rp.compile(gmm.build_ir(48, 4, 4)).fun
    split = parallel_split(fun)
    assert split is not None and split.kind == "reduce"
    assert split.combine_op == "add"
    # the scalar epilogue (wishart, lse_alphas, constants) runs as a suffix
    assert split.suffix_fun is not None


def test_parallel_split_rejects_scan_and_loops():
    scan_fun = rp.trace_like(lambda xs: rp.scan(lambda a, b: a + b, 0.0, xs), (np.ones(8),))
    assert parallel_split(scan_fun) is None
    loop_fun = rp.trace_like(
        lambda x: rp.fori_loop(5, lambda i, a: a * 1.1 + x, x), (1.0,)
    )
    assert parallel_split(loop_fun) is None


def test_parallel_split_rejects_map_reading_its_own_input_whole():
    # The lambda reads xs[0] while xs is also the mapped array: slicing the
    # array would change what the lambda sees, so this must not shard.
    fun = rp.trace_like(lambda xs: rp.map(lambda x: x + xs[0], xs), (np.ones(8),))
    assert parallel_split(fun) is None


def test_parallel_split_picks_the_heaviest_soac():
    # A cheap map over `small` followed by a heavy map over `big`: the shard
    # point must be the heavy one even though both are candidates.
    def f(small, big):
        a = rp.sum(rp.map(lambda s: s * 2.0, small))
        b = rp.map(lambda v: rp.sin(v) * rp.cos(v) + rp.exp(-v * v) * a, big)
        return b

    fun = rp.trace_like(f, (np.ones(4), np.ones(64)))
    split = parallel_split(fun)
    assert split is not None and split.kind == "map"
    # the sharded inputs have the extent of `big`, not `small`
    pre = rp.compile(split.prefix_fun, optimize=False)
    res = pre(np.ones(4), np.ones(64))
    res = res if isinstance(res, tuple) else (res,)
    assert any(np.asarray(res[i]).shape[:1] == (64,) for i in split.sharded_src)


# ---------------------------------------------------------------------------
# Parity: shard vs ref/plan
# ---------------------------------------------------------------------------


def test_shard_parity_fuzz_corpus(sharded):
    for seed in (3, 17, 123, 999, 5005, 31337):
        prog = _gen_program(seed)
        xs = np.random.default_rng(seed).standard_normal(64) * 0.8
        fc = rp.compile(rp.trace_like(prog, (xs,)))
        r_plan = fc(xs, backend="plan")
        r_shard = fc(xs, backend="shard")
        np.testing.assert_allclose(r_shard, r_plan, rtol=1e-9, atol=1e-12)
        r_ref = fc(xs, backend="ref")
        np.testing.assert_allclose(r_shard, r_ref, rtol=1e-8, atol=1e-11)


@pytest.mark.parametrize("app", ["gmm", "ba", "lstm", "hand", "kmeans"])
def test_shard_parity_apps(sharded, app):
    if app == "gmm":
        args = datagen.gmm_instance(96, 4, 4, 0)[:4]
        fc = rp.compile(gmm.build_ir(96, 4, 4))
    elif app == "ba":
        cams, pts, ws, oc, op_, feats = datagen.ba_instance(4, 10, 48, seed=1)
        args = ba.gather_obs(cams, pts, ws, oc, op_) + (feats,)
        fc = rp.compile(ba.build_ir(48))
    elif app == "lstm":
        xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(3, 4, 5, 6, seed=2)
        args = (xs, wx, wh, b, wy, tg)
        fc = rp.compile(lstm.build_ir(xs.shape[0], xs.shape[1], xs.shape[2], wh.shape[1]))
    elif app == "hand":
        args = datagen.hand_instance(4, 48, seed=3)
        fc = rp.compile(hand.build_ir(4, 48))
    else:
        pts, ctr = datagen.kmeans_instance(4, 96, 3, seed=4)
        args = (pts, ctr)
        fc = rp.compile(kmeans.build_ir(96, 4, 3))
    r_plan = fc(*args, backend="plan")
    r_shard = fc(*args, backend="shard")
    rp_ = r_plan if isinstance(r_plan, tuple) else (r_plan,)
    rs_ = r_shard if isinstance(r_shard, tuple) else (r_shard,)
    for a, b_ in zip(rp_, rs_):
        np.testing.assert_allclose(np.asarray(a), np.asarray(b_), rtol=1e-9, atol=1e-12)
    # gradients evaluate through the shard backend too (mostly the suffix /
    # fallback machinery at these sizes — must stay consistent with plan)
    wrt = {"gmm": [0, 1, 2], "ba": None, "lstm": [1, 2, 3, 4], "hand": [0], "kmeans": [1]}[app]
    if app != "ba":
        g = rp.grad(fc, wrt=wrt)
        gp = g(*args, backend="plan")
        gs = g(*args, backend="shard")
        gp = gp if isinstance(gp, tuple) else (gp,)
        gs = gs if isinstance(gs, tuple) else (gs,)
        for a, b_ in zip(gp, gs):
            np.testing.assert_allclose(np.asarray(a), np.asarray(b_), rtol=1e-8, atol=1e-11)


def test_shard_determinism_one_vs_many_workers(monkeypatch):
    """Chunk boundaries depend only on the extent, never the worker count,
    so results must be bitwise identical at 1 and N workers — including the
    reduce kind, whose partial-combine tree is fixed by the chunking."""
    monkeypatch.setenv("REPRO_SHARD_MIN_CHUNK", "4")
    monkeypatch.setenv("REPRO_SHARD_MODE", "thread")
    xs = np.random.default_rng(0).standard_normal(97)
    fmap = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: rp.sin(x) * x, v), (xs,)))
    fred = rp.compile(rp.trace_like(lambda v: rp.sum(rp.map(lambda x: rp.exp(-x * x), v)), (xs,)))
    results = {}
    for w in ("1", "3"):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", w)
        results[w] = (fmap(xs, backend="shard"), fred(xs, backend="shard"))
    shutdown_shard_pool()
    np.testing.assert_array_equal(results["1"][0], results["3"][0])
    np.testing.assert_array_equal(results["1"][1], results["3"][1])


# ---------------------------------------------------------------------------
# Batched-seed sharding (the jacobian composition)
# ---------------------------------------------------------------------------


def test_shard_batched_jacobian_matches_plan(sharded):
    fc = rp.compile(rp.trace_like(lambda x: rp.map(lambda v: rp.sin(v) * v, x), (np.ones(12),)))
    x = np.linspace(0.1, 1.2, 12)
    for mode in ("fwd", "rev"):
        jac = rp.jacobian(fc, mode=mode)
        Jp = jac(x, backend="plan")
        Js = jac(x, backend="shard")
        np.testing.assert_array_equal(Jp, Js)
    st = shard_stats()
    assert st["batched_calls"] >= 2 and st["chunks"] >= 4


def test_ba_jacobian_ad_on_shard_backend(sharded):
    cams, pts, ws, oc, op_, feats = datagen.ba_instance(4, 10, 20, seed=6)
    gc, gp, gw = ba.gather_obs(cams, pts, ws, oc, op_)
    jv = rp.vjp(rp.compile(ba.build_ir(20)), wrt=[0, 1, 2])
    Js = ba.jacobian_ad(jv, gc, gp, gw, feats, backend="shard")
    Jp = ba.jacobian_ad(jv, gc, gp, gw, feats, backend="plan")
    for a, b_ in zip(Js, Jp):
        np.testing.assert_array_equal(a, b_)


def test_hand_jacobian_fwd_ad_batched_matches_loop_and_grad(sharded):
    theta, base, wghts, tgts = datagen.hand_instance(4, 12, seed=7)
    fc = rp.compile(hand.build_ir(4, 12))
    fwd = rp.jvp(fc)
    batched = hand.jacobian_fwd_ad(fwd, theta, base, wghts, tgts, backend="plan")
    looped = hand.jacobian_fwd_ad(fwd, theta, base, wghts, tgts, backend="plan", batched=False)
    on_shard = hand.jacobian_fwd_ad(fwd, theta, base, wghts, tgts, backend="shard")
    np.testing.assert_allclose(batched, looped, rtol=1e-9, atol=1e-12)
    np.testing.assert_array_equal(batched, on_shard)
    # forward over the full basis == the reverse-mode gradient
    g = rp.grad(fc, wrt=[0])
    np.testing.assert_allclose(batched, g(theta, base, wghts, tgts), rtol=1e-7, atol=1e-9)


def test_lstm_grad_fwd_ad_batched_matches_loop_and_grad(sharded):
    xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(2, 3, 4, 5, seed=8)
    fc = rp.compile(lstm.build_ir(xs.shape[0], xs.shape[1], xs.shape[2], wh.shape[1]))
    fwd = rp.jvp(fc)
    batched = lstm.grad_fwd_ad(fwd, xs, wx, wh, b, wy, tg, backend="plan")
    looped = lstm.grad_fwd_ad(fwd, xs, wx, wh, b, wy, tg, backend="plan", batched=False)
    on_shard = lstm.grad_fwd_ad(fwd, xs, wx, wh, b, wy, tg, backend="shard")
    np.testing.assert_allclose(batched, looped, rtol=1e-9, atol=1e-12)
    np.testing.assert_array_equal(batched, on_shard)
    gb = rp.grad(fc, wrt=[1, 2, 3, 4])(xs, wx, wh, b, wy, tg)[2]
    np.testing.assert_allclose(batched, gb, rtol=1e-7, atol=1e-9)


# ---------------------------------------------------------------------------
# Stats, cache keying, fallbacks
# ---------------------------------------------------------------------------


def test_shard_stats_counters_and_reset(sharded):
    reset_shard_stats()
    xs = np.arange(64.0)
    fc = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: x * 2.0, v), (xs,)))
    fc(xs, backend="shard")
    st = shard_stats()
    assert st["sharded_calls"] == 1 and st["chunks"] >= 2
    assert st["workers"] == 2 and st["mode"] == "thread"
    # a scan cannot shard -> falls back (and still agrees with plan)
    fs = rp.compile(rp.trace_like(lambda v: rp.scan(lambda a, b: a + b, 0.0, v), (xs,)))
    np.testing.assert_allclose(fs(xs, backend="shard"), fs(xs, backend="plan"))
    assert shard_stats()["fallback_calls"] >= 1
    reset_shard_stats()
    assert shard_stats()["sharded_calls"] == 0


def test_small_extents_fall_back(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
    monkeypatch.delenv("REPRO_SHARD_MIN_CHUNK", raising=False)
    reset_shard_stats()
    xs = np.arange(16.0)  # far below the default 1024-element chunk floor
    fc = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: x * 2.0, v), (xs,)))
    np.testing.assert_array_equal(fc(xs, backend="shard"), fc(xs, backend="plan"))
    st = shard_stats()
    assert st["fallback_calls"] >= 1 and st["sharded_calls"] == 0


def test_plan_cache_backend_dimension_separates_entries(sharded):
    xs = np.arange(8.0)
    fun = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: x + 1.0, v), (xs,))).fun
    before = plan_cache_stats()["entries"]
    p_plan = plan_for(fun, (xs,))
    p_shard = plan_for(fun, (xs,), backend="shard")
    assert p_plan is not p_shard
    assert plan_cache_stats()["entries"] == before + 2
    # same key resolves to the same plan again
    assert plan_for(fun, (xs,), backend="shard") is p_shard


def test_process_mode_parity(monkeypatch):
    """End-to-end shm transport through a spawn-based process pool; skipped
    when the environment cannot spawn workers (the executor then falls back
    in-process, which is itself asserted correct)."""
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
    monkeypatch.setenv("REPRO_SHARD_MIN_CHUNK", "4")
    monkeypatch.setenv("REPRO_SHARD_MODE", "process")
    monkeypatch.setenv("REPRO_SHARD_SHM_MIN", "0")
    reset_shard_stats()
    try:
        xs = np.random.default_rng(5).standard_normal(64)
        fc = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: rp.tanh(x) * x, v), (xs,)))
        np.testing.assert_array_equal(fc(xs, backend="shard"), fc(xs, backend="plan"))
        st = shard_stats()
        if st["pool_errors"]:
            pytest.skip("process pool unavailable in this environment")
        assert st["sharded_calls"] == 1 and st["chunks"] >= 2
    finally:
        shutdown_shard_pool()
