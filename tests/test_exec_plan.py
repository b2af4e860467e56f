"""Plan backend: parity with the interpreters, batched multi-seed jacobians,
plan-cache behaviour, and the compiled-path speedup."""
import numpy as np
import pytest

import repro as rp
from helpers import reduce_census, run_both
from repro.exec import plan as plan_mod
from repro.exec import values as exec_values
from repro.exec.plan import clear_plan_cache, plan_cache_stats
from repro.util import ADError, ExecError

rng = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# Parity (run_both also covers "plan" suite-wide via helpers.BACKENDS)
# ---------------------------------------------------------------------------


def test_plan_parity_nested_control_flow():
    def f(m, ns):
        def row(r, n):
            s = rp.scan(lambda a, b: a + b, 0.0, r)
            t = rp.sum(rp.map(lambda x: rp.tanh(x), s))
            u = rp.fori_loop(n, lambda i, a: a * 0.9 + t, t)
            return rp.cond(u > 0.0, lambda: u, lambda: u * u)

        return rp.map(row, m, ns)

    fc = rp.compile(rp.trace_like(f, (np.ones((2, 3)), np.array([1, 2]))))
    run_both(fc, rng.standard_normal((4, 5)), np.array([0, 3, 1, 5]))


def test_plan_parity_hist_scatter_update():
    def f(inds, vals, dest):
        h = rp.reduce_by_index(4, lambda a, b: a + b, 0.0, inds, vals)
        s = rp.scatter(dest, inds, vals)
        u = rp.update(s, 0, 9.5)
        return h, u

    fc = rp.compile(
        rp.trace_like(f, (np.array([0, 1]), np.ones(2), np.zeros(6)))
    )
    run_both(
        fc, np.array([1, 3, 1, 7, -1, 0]), rng.standard_normal(6), np.zeros(6)
    )


def test_plan_parity_reverse_ad_with_accumulators():
    def f(xs, ys):
        return rp.sum(rp.map(lambda x, y: rp.exp(x) * y, xs, ys))

    fc = rp.compile(rp.trace_like(f, (np.ones(5), np.ones(5))))
    g = rp.grad(fc)
    xs, ys = rng.standard_normal(5), rng.standard_normal(5)
    for got in (g(xs, ys, backend="plan"),):
        ref = g(xs, ys, backend="ref")
        np.testing.assert_allclose(np.asarray(got), np.asarray(ref))


def test_plan_irregular_nested_parallelism_rejected():
    def f(ns):
        return rp.map(
            lambda n: rp.sum(rp.map(lambda i: rp.astype(i, rp.F64), rp.iota(n))), ns
        )

    fc = rp.compile(rp.trace_like(f, (np.array([1, 2]),)))
    with pytest.raises(ExecError):
        fc(np.array([1, 2, 3]), backend="plan")


# ---------------------------------------------------------------------------
# Batched multi-seed jacobian
# ---------------------------------------------------------------------------


def _matrix_to_vector():
    """A non-square case: (3,4) matrix input -> length-3 vector output."""

    def f(m):
        return rp.map(lambda r: rp.sum(rp.map(lambda x: rp.tanh(x * x), r)), m)

    return rp.compile(rp.trace_like(f, (np.ones((3, 4)),)))


@pytest.mark.parametrize("mode", ["fwd", "rev"])
def test_jacobian_batched_vs_looped_all_backends(mode):
    fc = _matrix_to_vector()
    x = rng.standard_normal((3, 4))
    j = rp.jacobian(fc, mode=mode)
    ref = j(x, backend="ref")  # ref always loops over seeds
    assert ref.shape == (3, 3, 4)
    for backend in ("plan", "codegen"):
        looped = j(x, backend=backend, batched=False)
        batch = j(x, backend=backend, batched=True)
        np.testing.assert_allclose(looped, ref, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(batch, ref, rtol=1e-10, atol=1e-10)


def test_jacobian_fwd_rev_parity_nonsquare():
    fc = _matrix_to_vector()
    x = rng.standard_normal((3, 4))
    jf = rp.jacobian(fc, mode="fwd")
    jr = rp.jacobian(fc, mode="rev")
    for backend in ("ref", "plan"):
        np.testing.assert_allclose(
            jf(x, backend=backend), jr(x, backend=backend), rtol=1e-9, atol=1e-9
        )


def test_jacobian_multidim_output_shape_and_values():
    # vector -> matrix: J has shape y.shape + x.shape = (2, 3, 4)
    def f(v):
        return rp.map(lambda a: rp.map(lambda b: a * b, v), v)

    fc = rp.compile(rp.trace_like(f, (np.ones(3),)))
    # f: R^3 -> R^{3x3}; check against the analytic Jacobian.
    x = rng.standard_normal(3)
    j = rp.jacobian(fc)
    J = j(x, backend="plan")
    assert J.shape == (3, 3, 3)
    expect = np.zeros((3, 3, 3))
    for i in range(3):
        for k in range(3):
            expect[i, k, i] += x[k]
            expect[i, k, k] += x[i]
    np.testing.assert_allclose(J, expect, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(J, j(x, backend="ref"), rtol=1e-10, atol=1e-10)


def test_jacobian_batched_on_ref_fails_loudly():
    fc = _matrix_to_vector()
    with pytest.raises(ADError):
        rp.jacobian(fc)(np.ones((3, 4)), backend="ref", batched=True)


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


def test_plan_cache_hit_skips_recompile():
    def f(v):
        return rp.map(lambda x: rp.sin(x) * 2.0, v)

    fc = rp.compile(rp.trace_like(f, (np.ones(4),)))
    clear_plan_cache()
    x = rng.standard_normal(4)
    fc(x, backend="plan")
    s1 = plan_cache_stats()
    assert s1["misses"] >= 1 and s1["hits"] == 0
    fc(x, backend="plan")
    fc(x, backend="plan")
    s2 = plan_cache_stats()
    assert s2["misses"] == s1["misses"], "repeat same-shape call re-lowered a plan"
    assert s2["hits"] == s1["hits"] + 2
    # A new shape of the same rank/dtype signature hits the same entry —
    # plans are shape-generic, no re-lowering.
    fc(rng.standard_normal(9), backend="plan")
    s3 = plan_cache_stats()
    assert s3["misses"] == s2["misses"], "new extent re-lowered the plan"
    assert s3["hits"] == s2["hits"] + 1


def test_plan_cache_counts_jacobian_reuse():
    fc = _matrix_to_vector()
    j = rp.jacobian(fc)
    x = rng.standard_normal((3, 4))
    clear_plan_cache()
    j(x, backend="plan")
    misses_first = plan_cache_stats()["misses"]
    j(x, backend="plan")
    j(x, backend="plan")
    s = plan_cache_stats()
    assert s["misses"] == misses_first, "jacobian re-lowered plans on repeat calls"
    assert s["hits"] >= 2 * 2  # primal + derivative plan per call


# ---------------------------------------------------------------------------
# While-loop fuel (shared, configurable constant)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["ref", "plan", "codegen"])
def test_while_fuel_configurable_and_reported(backend, monkeypatch):
    def f(x):
        return rp.while_loop(lambda v: v < 1.0e9, lambda v: v + 1.0, x)

    fc = rp.compile(rp.trace_like(f, (0.0,)))
    monkeypatch.setattr(exec_values, "WHILE_FUEL", 25)
    with pytest.raises(ExecError, match=r"25 iterations"):
        fc(0.0, backend=backend)


@pytest.mark.parametrize("kind", ["unop", "binop"])
@pytest.mark.parametrize("emitter", ["plan", "codegen"])
def test_unknown_scalar_op_fails_when_the_plan_is_built(emitter, kind):
    """Scalar operators resolve to their NumPy function at emit time on both
    emitters: an unknown one is an ``ExecError`` from the constructor, with
    one wording, before anything runs."""
    from repro.exec import CodegenPlan, Plan, lower_fun

    fc = rp.compile(rp.trace_like(lambda x, y: rp.sin(x) * y, (1.0, 1.0)))
    ir = lower_fun(fc.fun)
    (op,) = [o for ins in ir.body.instrs if ins.kind == "run" for o in ins.ops if o.kind == kind]
    op.op = "frobnicate"
    what = {"unop": "unary", "binop": "binary"}[kind]
    with pytest.raises(ExecError, match=f"unknown {what} op 'frobnicate'"):
        {"plan": Plan, "codegen": CodegenPlan}[emitter](fc.fun, ir=ir)


# ---------------------------------------------------------------------------
# Compiled-path jacobian: batching is not a loss, no generic fold remains
# ---------------------------------------------------------------------------


def _median_time(f, repeats=3):
    import time

    ts = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        ts.append(time.perf_counter() - t0)
    return float(np.median(ts))


def test_batched_plan_jacobian_speedup_over_looped_plan():
    # GMM-sized: 64-dimensional input, O(n^2) work per evaluation.
    n = 64

    def f(v):
        return rp.map(lambda a: rp.sum(rp.map(lambda b: rp.tanh(a * b), v)), v)

    fc = rp.compile(rp.trace_like(f, (np.ones(n),)))
    j = rp.jacobian(fc, mode="fwd")
    x = rng.standard_normal(n)
    # Warm up: lower plans, and check the two paths agree before timing.
    np.testing.assert_allclose(
        j(x, backend="plan", batched=True),
        j(x, backend="plan", batched=False),
        rtol=1e-9,
        atol=1e-9,
    )
    t_loop = _median_time(lambda: j(x, backend="plan", batched=False))
    t_plan = _median_time(lambda: j(x, backend="plan", batched=True))
    speedup = t_loop / t_plan
    print(
        f"\njacobian n={n}: looped-plan {t_loop*1e3:.1f} ms, "
        f"batched-plan {t_plan*1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    # Both sides run the ufunc kernel since reduce fission (opt/fission.py)
    # and the same cached plan, so the ratio is what batching alone buys
    # (64 looped calls ~7.7 ms, one batched call ~2.9 ms).  What is worth
    # pinning is that batching is not a loss and that no generic fold is
    # left in the jvp plan.
    assert t_plan <= t_loop, f"batched plan jacobian slower: {speedup:.2f}x"
    census = reduce_census(j.fwd.fun)
    assert census and all(strategy != "generic" for _, strategy in census), census


# ---------------------------------------------------------------------------
# Scalar-run fusion and cache bounding (PR 2)
# ---------------------------------------------------------------------------


def test_plan_fuses_scalar_runs_and_counts_them():
    def f(x, y):
        a = x * 2.0
        b = rp.sin(a) + y
        c = rp.where(b > 0.0, b, a)
        return c * c + 1.0

    fun = rp.trace_like(f, (1.0, 1.0))
    clear_plan_cache()
    fc = rp.compile(fun)
    out = fc(0.3, -0.2, backend="plan")
    np.testing.assert_allclose(out, fc(0.3, -0.2, backend="ref"))
    st = plan_cache_stats()
    assert st["fused_stms"] >= 2, st
    clear_plan_cache()


def test_plan_fused_runs_inside_map_lambdas():
    def f(xs):
        return rp.map(lambda x: rp.tanh(x * 2.0 + 1.0) * x, xs)

    fun = rp.trace_like(f, (np.ones(8),))
    clear_plan_cache()
    fc = rp.compile(fun)
    xs = rng.standard_normal(8)
    run_both(fc, xs)
    assert plan_cache_stats()["fused_stms"] > 0
    clear_plan_cache()


def _distinct_funs(k):
    """k structurally distinct compiled functions (distinct cache keys —
    one entry each; extents never make new entries)."""
    funs = []
    for i in range(k):
        c = float(i + 2)
        funs.append(rp.compile(rp.trace_like(lambda xs, _c=c: rp.sum(xs) * _c, (np.ones(4),))))
    return funs


def test_plan_cache_lru_eviction(monkeypatch):
    monkeypatch.setattr(plan_mod, "_DEFAULT_CACHE_SIZE", 2)
    clear_plan_cache()
    funs = _distinct_funs(4)  # four distinct entries
    for fc in funs:
        fc(np.ones(3), backend="plan")
    st = plan_cache_stats()
    assert st["entries"] <= 2
    assert st["evictions"] >= 2
    # Evicted functions re-lower on demand and still run correctly.
    np.testing.assert_allclose(funs[0](np.ones(3), backend="plan"), 6.0)
    clear_plan_cache()


def test_plan_cache_lru_keeps_recently_used(monkeypatch):
    monkeypatch.setattr(plan_mod, "_DEFAULT_CACHE_SIZE", 2)
    clear_plan_cache()
    f3, f4, f5 = _distinct_funs(3)
    f3(np.ones(3), backend="plan")  # miss: fun 3
    f4(np.ones(3), backend="plan")  # miss: fun 4
    f3(np.ones(3), backend="plan")  # hit: fun 3 -> most recent
    f5(np.ones(3), backend="plan")  # miss: evicts fun 4, not fun 3
    s = plan_cache_stats()
    f3(np.ones(3), backend="plan")  # still cached
    s2 = plan_cache_stats()
    assert s2["hits"] == s["hits"] + 1
    assert s2["misses"] == s["misses"]
    clear_plan_cache()
