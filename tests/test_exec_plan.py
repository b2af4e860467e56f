"""Plan backend: parity with the interpreters, batched multi-seed jacobians,
plan-cache behaviour, and the compiled-path speedup."""
import numpy as np
import pytest

import repro as rp
from helpers import BACKENDS, LEGS, batched_equals_per_seed, looped_jacobian, reduce_census, run_both
from repro.exec import plan as plan_mod
from repro.exec import values as exec_values
from repro.exec.plan import clear_plan_cache, plan_cache_stats
from repro.util import ADError, ExecError

rng = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# Parity (run_both also covers "plan" suite-wide via helpers.BACKENDS)
# ---------------------------------------------------------------------------

#: Programs whose lowering reads an extent at run time (``Size``, iota and
#: replicate lengths, histogram sizes, empty and one-element reduces) plus
#: every SOAC strategy, control flow and accumulators; each is traced at
#: ``ex``'s shapes and run at different ones.
_brng = np.random.default_rng(29)
_BATTERY = [
    ("size_iota_replicate", lambda v: rp.sum(
        rp.map(lambda i: rp.astype(i, rp.F64), rp.iota(rp.size(v)))
    ) * rp.sum(v), (np.ones(5),), (_brng.standard_normal(7),)),
    ("reduce_nonempty", lambda v: rp.sum(v) + rp.reduce(
        lambda a, b: rp.maximum(a, b), -1.0e9, v
    ), (np.ones(6),), (_brng.standard_normal(9),)),
    ("reduce_empty", lambda v: rp.sum(v), (np.zeros(0),), (np.zeros(0),)),
    ("reduce_one", lambda v: rp.sum(v) * 3.0, (np.ones(1),),
     (_brng.standard_normal(1),)),
    ("scan_hist", lambda inds, vals: rp.sum(
        rp.scan(lambda a, b: a + b, 0.0, vals)
    ) + rp.sum(rp.reduce_by_index(4, lambda a, b: a + b, 0.0, inds, vals)),
     (np.array([0, 1, 2]), np.ones(3)),
     (np.array([3, 1, -1, 2, 0]), _brng.standard_normal(5))),
    ("loop_while_if", lambda x, v: rp.cond(
        x > 0.0,
        lambda: rp.fori_loop(3, lambda i, a: a + rp.sum(v), x),
        lambda: rp.while_loop(lambda a: a < 4.0, lambda a: a + 1.0, x),
    ), (0.5, np.ones(4)), (-2.5, _brng.standard_normal(6))),
    ("update_scatter_concat", lambda v, inds: rp.sum(
        rp.concat(rp.update(v, 1, 9.0),
                  rp.reverse(rp.scatter(rp.zeros_like(v), inds, v)))
    ), (np.ones(4), np.array([0, 2, 1, 3])),
     (_brng.standard_normal(4), np.array([3, 0, 2, 1]))),
    ("nested_map_redomap", lambda m: rp.map(
        lambda r: rp.sum(rp.map(lambda x: rp.exp(x) * x, r)), m
    ), (np.ones((3, 4)),), (_brng.standard_normal((5, 2)),)),
]


@pytest.mark.parametrize("name,f,ex,args", _BATTERY, ids=[b[0] for b in _BATTERY])
def test_plan_parity_battery(name, f, ex, args):
    """Against ``ref`` through the cached plan, and an uncached ``Plan``
    bitwise the cached one."""
    from repro.exec import Plan

    fc = rp.compile(rp.trace_like(f, ex))
    run_both(fc, *args)
    assert _bits(Plan(fc.fun).run(tuple(args))) == _bits(fc(*args, backend="plan"))


@pytest.mark.parametrize("name,f,ex,args", _BATTERY, ids=[b[0] for b in _BATTERY])
def test_timed_plan_is_bitwise_the_plan(name, f, ex, args):
    """Timing every closure at every depth (``REPRO_PROFILE``) changes no bit
    of a result, and does time the plan."""
    from repro.exec import Plan
    from repro.obs.profiler import profile_summary

    fc = rp.compile(rp.trace_like(f, ex))
    timed = Plan(fc.fun, profile=True)
    before = profile_summary()["calls"]
    assert _bits(timed.run(tuple(args))) == _bits(Plan(fc.fun).run(tuple(args)))
    assert profile_summary()["calls"] > before


def test_plan_gradient_through_while_and_scan_matches_ref():
    def f(v, w):
        s = rp.sum(v * w)
        wh = rp.while_loop(lambda a: a < 10.0, lambda a: a * 2.0, 1.0 + 0.0 * s)
        return s * wh + rp.sum(rp.scan(lambda a, b: a + b, 0.0, v))

    v, w = rng.standard_normal(8), rng.standard_normal(8)
    run_both(rp.grad(rp.compile(rp.trace_like(f, (v, w)))), v, w)


def test_bench_codegen_residue_is_a_plan():
    """``exec/codegen.py:CodegenPlan`` is a ``Plan`` with no source, bitwise
    ``Plan`` on an unbatched and a batched call: the benchmark's staged
    equality check through it still tests a real plan."""
    from repro.exec import CodegenPlan, Plan

    fun = rp.trace_like(lambda v, w: rp.sum(rp.map(lambda x: rp.sin(x) * x, v * w))
                        * rp.sum(v + w), (np.ones(6), np.ones(6)))
    cg, p = CodegenPlan(fun), Plan(fun)
    assert isinstance(cg, Plan) and cg.source == ""
    v, w = rng.standard_normal(6), rng.standard_normal(6)
    assert _bits(cg.run((v, w))) == _bits(p.run((v, w)))
    vb = rng.standard_normal((4, 6))
    assert (_bits(cg.run_batched((vb, w), (True, False), 4))
            == _bits(p.run_batched((vb, w), (True, False), 4)))


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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ["fwd", "rev"])
def test_jacobian_batched_vs_looped_all_backends(mode, backend):
    """The one batched pass against a per-seed loop on the same backend."""
    fc = _matrix_to_vector()
    x = rng.standard_normal((3, 4))
    batch = rp.jacobian(fc, mode=mode)(x, backend=backend)
    assert batch.shape == (3, 3, 4)
    np.testing.assert_allclose(batch, looped_jacobian(fc, x, mode, backend),
                               rtol=1e-12, atol=1e-12)


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


@pytest.mark.parametrize("mode", ["forward", "bogus", ""])
def test_jacobian_rejects_an_unknown_mode(mode):
    """Only "fwd", "rev" and None name a mode; anything else fails when
    ``jacobian`` is called, not by silently running reverse mode."""
    with pytest.raises(ADError, match=r'"fwd", "rev" or None'):
        rp.jacobian(_matrix_to_vector(), mode=mode)


@pytest.mark.parametrize("backend", BACKENDS)
def test_jacobian_with_batch_invariant_and_while_parts(backend):
    """An ``if`` on the primal, a ``while`` whose trip count depends on it
    and a map result no seed touches: on ``ref`` the batched pass is a map
    like any other."""
    def f(v):
        s = rp.sum(v)
        t = rp.cond(s > 0.0, lambda: s * 2.0, lambda: s - 1.0)
        w = rp.while_loop(lambda a: a < 4.0, lambda a: a * 2.0 + 0.5, t * t)
        return rp.map(lambda x: rp.sin(x) * t + w, v)

    fc = rp.compile(rp.trace_like(f, (np.ones(3),)))
    for x in (np.array([0.3, 0.9, -0.2]), np.array([-0.3, -0.9, 0.2])):
        for mode in ("fwd", "rev"):
            np.testing.assert_allclose(rp.jacobian(fc, mode=mode)(x, backend=backend),
                                       looped_jacobian(fc, x, mode, backend),
                                       rtol=1e-12, atol=1e-12)


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


@pytest.mark.parametrize("backend", LEGS)
def test_while_fuel_configurable_and_reported(backend, monkeypatch):
    def f(x):
        return rp.while_loop(lambda v: v < 1.0e9, lambda v: v + 1.0, x)

    fc = rp.compile(rp.trace_like(f, (0.0,)))
    monkeypatch.setattr(exec_values, "WHILE_FUEL", 25)
    with pytest.raises(ExecError, match=r"25 iterations"):
        fc(0.0, backend=backend)


@pytest.mark.parametrize("kind", ["unop", "binop"])
@pytest.mark.parametrize("profile", [False, True], ids=["plan", "plan-profiled"])
def test_unknown_scalar_op_fails_when_the_plan_is_built(profile, kind):
    """Scalar operators resolve to their NumPy function at emit time, timed
    or not: an unknown one is an ``ExecError`` from the constructor, before
    anything runs."""
    from repro.exec import Plan, lower_fun

    fc = rp.compile(rp.trace_like(lambda x, y: rp.sin(x) * y, (1.0, 1.0)))
    ir = lower_fun(fc.fun)
    (op,) = [o for ins in ir.body.instrs if ins.kind == "run" for o in ins.ops if o.kind == kind]
    op.op = "frobnicate"
    what = {"unop": "unary", "binop": "binary"}[kind]
    with pytest.raises(ExecError, match=f"unknown {what} op 'frobnicate'"):
        Plan(fc.fun, ir=ir, profile=profile)


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

    def looped():  # one jvp call per basis seed, the same cached plan
        return np.stack([j.fwd(x, e, backend="plan")[-1] for e in np.eye(n)], axis=1)

    # Warm up: lower plans, and check the two paths agree before timing.  The
    # looped plan is hot after its 64 calls; the batched one runs HOT_CALLS
    # more, so the call that builds its loops is not in the timed window.
    np.testing.assert_allclose(j(x, backend="plan"), looped(), rtol=1e-9, atol=1e-9)
    for _ in range(plan_mod.HOT_CALLS):
        j(x, backend="plan")
    t_loop = _median_time(looped)
    t_plan = _median_time(lambda: j(x, backend="plan"))
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


# ---------------------------------------------------------------------------
# Per-instruction dispatch: what emission knows is not paid for per call
# ---------------------------------------------------------------------------


def _python_calls(f) -> int:
    """The Python function calls (``sys.setprofile`` "call" events) of ``f()``."""
    import sys

    n = [0]

    def count(_frame, event, _arg):
        n[0] += event == "call"

    sys.setprofile(count)
    try:
        f()
    finally:
        sys.setprofile(None)
    return n[0]


def test_cached_lstm_gradient_dispatch_budget(monkeypatch):
    """One cached LSTM gradient call at the benchmark's size makes at most
    13,000 Python calls (19,071 when every instruction built its operand list,
    ran its body through a generator and every fused-run op made a ``BV``), and
    its primal no more than then: 5,051 with the kernel runs compiled, 5,567
    with no compiler (they run their NumPy closures).  Python 3.12 inlines
    comprehensions, so there the counts only fall."""
    from repro.apps import datagen, lstm

    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(16, 12, 10, 16, 0)
    fc = rp.compile(lstm.build_ir(12, 16, 10, 16))
    g = rp.grad(fc, wrt=[1, 2, 3, 4])
    args = (xs, wx, wh, b, wy, tg)
    for _ in range(plan_mod.HOT_CALLS):
        g(*args)
        fc(*args)
    fallbacks = plan_cache_stats()["kernel_fallbacks"]
    grad_calls = _python_calls(lambda: g(*args))
    primal_calls = _python_calls(lambda: fc(*args))
    compiled = plan_cache_stats()["kernel_fallbacks"] == fallbacks
    assert grad_calls <= 13_000, grad_calls
    assert primal_calls <= (5_051 if compiled else 5_567), (primal_calls, compiled)


# ---------------------------------------------------------------------------
# Extent-dependent paths: where a kernel picks a path from extents (a scalar
# branch, a uniform loop, no mask, no element), its results still carry the
# batch depth the plan's static layout gave them (``exec/lower.py:layout``).
# Each program runs on ref and plan (``run_both``); batched calls also
# against the per-seed loop.
# ---------------------------------------------------------------------------


def _bits(out):
    return [np.asarray(a).tobytes() for a in (out if isinstance(out, tuple) else (out,))]


@pytest.mark.parametrize("n", [1, 3])
def test_if_on_a_batched_condition_of_extent_one_or_more(n):
    """Extent 1: the scalar path runs one branch, whose result (a constant
    in ``els``) is raised to the join's depth; more: both under masks."""
    def f(xs, a):
        return rp.map(lambda x: rp.cond(x > 0.0, lambda: x * a, lambda: a + 1.0), xs)

    xs = np.linspace(-1.0, 1.0, n) if n > 1 else np.array([-0.5])
    fc = rp.compile(rp.trace_like(f, (xs, 2.0)))
    run_both(fc, xs, 2.0)
    seeds = np.array([[0.7], [-0.2]]) if n == 1 else np.stack([xs, -xs])
    batched_equals_per_seed(fc, (seeds, 2.0), (True, False), 2)
    batched_equals_per_seed(fc, (seeds[:1], 2.0), (True, False), 1)


@pytest.mark.parametrize("ns", [[3, 3, 3], [1, 3, 0]], ids=["agree", "vary"])
def test_loop_whose_lane_trip_counts_agree_or_vary(ns):
    """Trip counts that happen to agree run the uniform path (no mask); the
    state starts from a constant and is raised to the loop's fact."""
    def f(xs, ns):
        return rp.map(lambda x, n: rp.fori_loop(n, lambda i, a: a * 0.5 + x, 1.0), xs, ns)

    xs, ns = np.array([0.5, -1.0, 2.0]), np.array(ns, dtype=np.int64)
    fc = rp.compile(rp.trace_like(f, (xs, ns)))
    run_both(fc, xs, ns)
    batched_equals_per_seed(fc, (np.stack([xs, xs * 2.0]), ns), (True, False), 2)


@pytest.mark.parametrize("n", [1, 3], ids=["unmasked", "masked"])
def test_update_inside_an_if_with_and_without_a_mask(n):
    """At extent 1 the branch runs unmasked and ``update`` materialises
    nothing per lane; under a mask it does — either way at the same depth."""
    def f(xs, arr):
        def lane(x):
            hit = rp.cond(x > 0.0, lambda: rp.update(arr, 1, x), lambda: arr)
            return rp.sum(hit) * x
        return rp.map(lane, xs)

    xs = np.array([0.5]) if n == 1 else np.array([0.5, -1.0, 2.0])
    arr = np.arange(4.0)
    fc = rp.compile(rp.trace_like(f, (xs, arr)))
    run_both(fc, xs, arr)
    batched_equals_per_seed(fc, (np.stack([xs, -xs]), arr), (True, False), 2)


def test_generic_fold_over_no_elements():
    """The operator is not a ufunc (a generic fold): over no elements the
    neutral element comes back, at the fold's depth."""
    op = lambda a, b: a * b + a  # noqa: E731

    def f(m, xs):
        return rp.map(lambda row: rp.reduce(op, 0.5, row), m), rp.reduce(op, 0.25, xs)

    m, xs = np.zeros((3, 0)), np.zeros(0)
    fc = rp.compile(rp.trace_like(f, (np.ones((3, 2)), np.ones(2))))
    run_both(fc, m, xs)
    batched_equals_per_seed(fc, (np.zeros((2, 3, 0)), xs), (True, False), 2)


@pytest.mark.parametrize("op", [lambda a, b: a + b * b, lambda a, b: a * b + a],
                         ids=["redomap", "generic"])
def test_scan_over_an_empty_array_inside_a_map(op):
    def f(m):
        return rp.map(lambda row: rp.scan(op, 0.0, row), m)

    fc = rp.compile(rp.trace_like(f, (np.ones((3, 2)),)))
    for m in (np.zeros((3, 0)), np.ones((2, 3)) * 0.5):
        run_both(fc, m)
    batched_equals_per_seed(fc, (np.zeros((2, 3, 0)),), (True,), 2)


def test_jacobian_and_call_batched_at_batch_size_one():
    fc = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: rp.sin(x) * x, v), (np.ones(1),)))
    x = np.array([0.3])
    want = rp.jacobian(fc)(x, backend="ref")
    got = rp.jacobian(fc)(x, backend="plan")
    np.testing.assert_allclose(got, want, rtol=1e-12)
    np.testing.assert_array_equal(got, looped_jacobian(fc, x, "fwd", "plan"))
    batched_equals_per_seed(fc, (x[None, :],), (True,), 1)
